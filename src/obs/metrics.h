// Deterministic metrics registry.
//
// Labeled counter / gauge / fixed-bucket-histogram families, modelled on
// the Prometheus data model but with two hard extra requirements from this
// repo's contracts:
//
//   * Emission is strictly ordered and byte-stable (lint rule R2): families
//     iterate by name, series by label values, buckets by bound — all
//     std::map / sorted vectors, never unordered containers. Two registries
//     holding the same values emit identical bytes, which is what lets the
//     test suite diff whole snapshots across identically-seeded runs.
//   * Hot-path updates are lock-free: Counter and Gauge are single atomics
//     with relaxed ordering, so instrumented code pays one fetch_add per
//     event. Registration and Histogram::observe take annotated
//     common::Mutex locks (registration is startup-time, histogram
//     observations are per-checkpoint/per-report, never per-packet).
//
// Registration is get-or-create: asking for an existing family with the
// same kind/help/labels returns it; a mismatch throws std::logic_error at
// startup rather than silently forking a family. Metric and label names
// must be snake_case ([a-z][a-z0-9_]*) — enforced here at runtime, and at
// compile time for the tamper_* families of the obs/families.h catalog.
//
// Snapshots come in two formats from the same ordered walk:
//   * write_json()        — "tamper-metrics/1" JSON document
//   * write_prometheus()  — text exposition format version 0.0.4
//
// Gauges whose truth lives elsewhere (queue depth, spool depth, heartbeat
// age) are refreshed by collector callbacks registered with
// add_collector(); every snapshot runs the collectors first, outside the
// registry lock, so collectors may freely touch registry handles.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tamper::obs {

/// snake_case: [a-z][a-z0-9_]*. The rule for metric AND label names.
[[nodiscard]] constexpr bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.front() < 'a' || name.front() > 'z') return false;
  for (const char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) return false;
  return true;
}

/// Deterministic decimal rendering shared by both emission formats:
/// integral values print without a fraction, everything else as %.9g;
/// non-finite values as +Inf / -Inf / NaN (Prometheus spellings).
[[nodiscard]] std::string format_metric_value(double v);

/// Monotone event counter. Lock-free; safe from any thread.
class Counter {
 public:
  /// Returns the post-increment value (the service uses it for cadence).
  std::uint64_t add(std::uint64_t n = 1) noexcept {
    return v_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  /// Monotone set, for mirroring an external cumulative counter (queue and
  /// emitter stats). Never moves the value backwards.
  void increment_to(std::uint64_t total) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < total &&
           !v_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time measurement. Lock-free; safe from any thread.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: upper bounds are set at registration and an
/// implicit +Inf bucket catches the overflow. A value lands in the first
/// bucket whose bound is >= it (inclusive upper bounds, the Prometheus
/// `le` convention).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept TAMPER_EXCLUDES(mu_);

  struct Snapshot {
    std::vector<std::uint64_t> bucket_counts;  ///< per-bucket, bounds then +Inf
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const TAMPER_EXCLUDES(mu_);
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }

 private:
  const std::vector<double> bounds_;  ///< ascending, finite
  mutable common::Mutex mu_;
  std::vector<std::uint64_t> counts_ TAMPER_GUARDED_BY(mu_);  ///< bounds + overflow
  std::uint64_t count_ TAMPER_GUARDED_BY(mu_) = 0;
  double sum_ TAMPER_GUARDED_BY(mu_) = 0.0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
[[nodiscard]] std::string_view name(MetricKind kind) noexcept;

struct Family;  // a catalog entry, obs/families.h

namespace internal {

class JsonCursor;  // emission helper, defined in metrics.cpp

/// Common family state + the ordered emission walk. Series handles are
/// stable for the life of the registry (unique_ptr in a std::map).
class FamilyBase {
 public:
  FamilyBase(MetricKind kind, std::string name, std::string help,
             std::vector<std::string> label_keys)
      : kind_(kind),
        name_(std::move(name)),
        help_(std::move(help)),
        label_keys_(std::move(label_keys)) {}
  virtual ~FamilyBase() = default;

  [[nodiscard]] MetricKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& metric_name() const noexcept { return name_; }
  [[nodiscard]] const std::string& help() const noexcept { return help_; }
  [[nodiscard]] const std::vector<std::string>& label_keys() const noexcept {
    return label_keys_;
  }

  virtual void write_prometheus(std::ostream& out) const = 0;
  virtual void write_json(JsonCursor& json) const = 0;

  /// Sum of all series values, for read-back sampling (timeseries rollups).
  /// Counter and gauge families report true; histograms have no single
  /// scalar reading and report false.
  virtual bool accumulate_total(double* /*out*/) const { return false; }

 protected:
  void check_arity(const std::vector<std::string>& label_values) const;

  const MetricKind kind_;
  const std::string name_;
  const std::string help_;
  const std::vector<std::string> label_keys_;
};

}  // namespace internal

class CounterFamily final : public internal::FamilyBase {
 public:
  using FamilyBase::FamilyBase;
  /// The series for these label values (created on first use).
  Counter& with(std::vector<std::string> label_values = {}) TAMPER_EXCLUDES(mu_);
  void write_prometheus(std::ostream& out) const override TAMPER_EXCLUDES(mu_);
  void write_json(internal::JsonCursor& json) const override TAMPER_EXCLUDES(mu_);
  bool accumulate_total(double* out) const override TAMPER_EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<Counter>> series_
      TAMPER_GUARDED_BY(mu_);
};

class GaugeFamily final : public internal::FamilyBase {
 public:
  using FamilyBase::FamilyBase;
  Gauge& with(std::vector<std::string> label_values = {}) TAMPER_EXCLUDES(mu_);
  void write_prometheus(std::ostream& out) const override TAMPER_EXCLUDES(mu_);
  void write_json(internal::JsonCursor& json) const override TAMPER_EXCLUDES(mu_);
  bool accumulate_total(double* out) const override TAMPER_EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<Gauge>> series_
      TAMPER_GUARDED_BY(mu_);
};

class HistogramFamily final : public internal::FamilyBase {
 public:
  HistogramFamily(std::string name, std::string help,
                  std::vector<std::string> label_keys, std::vector<double> bounds)
      : FamilyBase(MetricKind::kHistogram, std::move(name), std::move(help),
                   std::move(label_keys)),
        bounds_(std::move(bounds)) {}
  Histogram& with(std::vector<std::string> label_values = {}) TAMPER_EXCLUDES(mu_);
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  void write_prometheus(std::ostream& out) const override TAMPER_EXCLUDES(mu_);
  void write_json(internal::JsonCursor& json) const override TAMPER_EXCLUDES(mu_);

 private:
  const std::vector<double> bounds_;
  mutable common::Mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<Histogram>> series_
      TAMPER_GUARDED_BY(mu_);
};

/// Sensible default bounds (seconds) for the duration histograms.
[[nodiscard]] std::vector<double> duration_buckets();

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Unlabeled conveniences: the family's single default series.
  Counter& counter(std::string_view name, std::string_view help)
      TAMPER_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, std::string_view help) TAMPER_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds) TAMPER_EXCLUDES(mu_);

  // Catalog entries (obs/families.h): the same registrations, with name,
  // help and label taken from the entry. Histograms use duration_buckets().
  // Throws std::logic_error when the entry's kind or label arity does not
  // fit the call.
  Counter& counter(const Family& entry) TAMPER_EXCLUDES(mu_);
  CounterFamily& counter_family(const Family& entry) TAMPER_EXCLUDES(mu_);
  Gauge& gauge(const Family& entry) TAMPER_EXCLUDES(mu_);
  Histogram& histogram(const Family& entry) TAMPER_EXCLUDES(mu_);

  // Labeled families.
  CounterFamily& counter_family(std::string_view name, std::string_view help,
                                std::vector<std::string> label_keys)
      TAMPER_EXCLUDES(mu_);
  GaugeFamily& gauge_family(std::string_view name, std::string_view help,
                            std::vector<std::string> label_keys)
      TAMPER_EXCLUDES(mu_);
  HistogramFamily& histogram_family(std::string_view name, std::string_view help,
                                    std::vector<std::string> label_keys,
                                    std::vector<double> bounds)
      TAMPER_EXCLUDES(mu_);

  /// Collector callbacks refresh mirrored gauges/counters before every
  /// snapshot. They run outside the registry lock and may use any registry
  /// handle. remove_collector() before destroying captured state.
  using CollectorId = std::uint64_t;
  CollectorId add_collector(std::function<void()> fn) TAMPER_EXCLUDES(mu_);
  void remove_collector(CollectorId id) TAMPER_EXCLUDES(mu_);

  /// Prometheus text exposition format, version 0.0.4. Runs collectors.
  void write_prometheus(std::ostream& out) TAMPER_EXCLUDES(mu_);
  /// "tamper-metrics/1" JSON snapshot. Runs collectors.
  void write_json(std::ostream& out, bool pretty = true) TAMPER_EXCLUDES(mu_);

  [[nodiscard]] std::string prometheus_text() TAMPER_EXCLUDES(mu_);
  [[nodiscard]] std::string json_text(bool pretty = true) TAMPER_EXCLUDES(mu_);

  /// Run the collectors without emitting — refreshes mirrored gauges so a
  /// subsequent read_family_total sees current values.
  void refresh() TAMPER_EXCLUDES(mu_) { collect(); }

  /// Read the summed value of a counter/gauge family (all series added).
  /// Returns false when the family is absent or is a histogram. Does NOT
  /// run collectors — call refresh() first when mirrored state matters.
  [[nodiscard]] bool read_family_total(std::string_view name, double* out)
      TAMPER_EXCLUDES(mu_);

 private:
  internal::FamilyBase& family(MetricKind kind, std::string_view name,
                               std::string_view help,
                               std::vector<std::string> label_keys,
                               std::vector<double> bounds) TAMPER_EXCLUDES(mu_);
  void collect() TAMPER_EXCLUDES(mu_);

  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<internal::FamilyBase>, std::less<>> families_
      TAMPER_GUARDED_BY(mu_);
  std::map<CollectorId, std::function<void()>> collectors_ TAMPER_GUARDED_BY(mu_);
  CollectorId next_collector_ TAMPER_GUARDED_BY(mu_) = 0;
};

}  // namespace tamper::obs

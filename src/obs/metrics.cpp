#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/json.h"
#include "obs/families.h"

namespace tamper::obs {

namespace internal {

/// Thin pass-through so family emission can use the shared JsonWriter
/// without metrics.h exposing it.
class JsonCursor {
 public:
  explicit JsonCursor(common::JsonWriter& writer) : w(writer) {}
  common::JsonWriter& w;
};

}  // namespace internal

namespace {

/// Prometheus label-value escaping: backslash, double-quote, newline.
void write_escaped_label(std::ostream& out, std::string_view v) {
  for (const char c : v) {
    if (c == '\\') out << "\\\\";
    else if (c == '"') out << "\\\"";
    else if (c == '\n') out << "\\n";
    else out << c;
  }
}

/// Prometheus HELP escaping: backslash and newline only.
void write_escaped_help(std::ostream& out, std::string_view v) {
  for (const char c : v) {
    if (c == '\\') out << "\\\\";
    else if (c == '\n') out << "\\n";
    else out << c;
  }
}

void write_label_block(std::ostream& out, const std::vector<std::string>& keys,
                       const std::vector<std::string>& values,
                       std::string_view extra_key = {}, std::string_view extra_value = {}) {
  if (keys.empty() && extra_key.empty()) return;
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!first) out << ',';
    first = false;
    out << keys[i] << "=\"";
    write_escaped_label(out, values[i]);
    out << '"';
  }
  if (!extra_key.empty()) {
    if (!first) out << ',';
    out << extra_key << "=\"" << extra_value << '"';
  }
  out << '}';
}

void write_family_header(std::ostream& out, const internal::FamilyBase& fam) {
  out << "# HELP " << fam.metric_name() << ' ';
  write_escaped_help(out, fam.help());
  out << '\n';
  out << "# TYPE " << fam.metric_name() << ' ' << name(fam.kind()) << '\n';
}

void write_labels_json(common::JsonWriter& json, const std::vector<std::string>& values) {
  json.key("labels");
  json.begin_array();
  for (const auto& v : values) json.value(v);
  json.end_array();
}

}  // namespace

std::string format_metric_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

std::string_view name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]))
      throw std::invalid_argument("histogram bounds must be finite (+Inf is implicit)");
    if (i > 0 && bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument("histogram bounds must be strictly ascending");
  }
  common::MutexLock lock(mu_);
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) noexcept {
  common::MutexLock lock(mu_);
  // First bound >= v (inclusive upper bounds, the `le` convention). NaN
  // compares false against every bound, which would make lower_bound pick
  // bucket 0; route it to the +Inf overflow bucket explicitly.
  const std::size_t idx =
      std::isnan(v) ? bounds_.size()
                    : static_cast<std::size_t>(
                          std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                          bounds_.begin());
  ++counts_[idx];
  ++count_;
  sum_ += v;
}

Histogram::Snapshot Histogram::snapshot() const {
  common::MutexLock lock(mu_);
  return Snapshot{counts_, count_, sum_};
}

// ----------------------------------------------------------------- Families

namespace internal {

void FamilyBase::check_arity(const std::vector<std::string>& label_values) const {
  if (label_values.size() != label_keys_.size())
    throw std::invalid_argument("metric family " + name_ + " takes " +
                                std::to_string(label_keys_.size()) +
                                " label value(s), got " +
                                std::to_string(label_values.size()));
}

}  // namespace internal

Counter& CounterFamily::with(std::vector<std::string> label_values) {
  check_arity(label_values);
  common::MutexLock lock(mu_);
  auto& slot = series_[std::move(label_values)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& GaugeFamily::with(std::vector<std::string> label_values) {
  check_arity(label_values);
  common::MutexLock lock(mu_);
  auto& slot = series_[std::move(label_values)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& HistogramFamily::with(std::vector<std::string> label_values) {
  check_arity(label_values);
  common::MutexLock lock(mu_);
  auto& slot = series_[std::move(label_values)];
  if (!slot) slot = std::make_unique<Histogram>(bounds_);
  return *slot;
}

void CounterFamily::write_prometheus(std::ostream& out) const {
  write_family_header(out, *this);
  common::MutexLock lock(mu_);
  for (const auto& [labels, counter] : series_) {
    out << name_;
    write_label_block(out, label_keys_, labels);
    out << ' ' << counter->value() << '\n';
  }
}

void GaugeFamily::write_prometheus(std::ostream& out) const {
  write_family_header(out, *this);
  common::MutexLock lock(mu_);
  for (const auto& [labels, gauge] : series_) {
    out << name_;
    write_label_block(out, label_keys_, labels);
    out << ' ' << format_metric_value(gauge->value()) << '\n';
  }
}

void HistogramFamily::write_prometheus(std::ostream& out) const {
  write_family_header(out, *this);
  common::MutexLock lock(mu_);
  for (const auto& [labels, histogram] : series_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < snap.bucket_counts.size(); ++i) {
      cumulative += snap.bucket_counts[i];
      const std::string le = i < bounds_.size()
                                 ? format_metric_value(bounds_[i])
                                 : std::string("+Inf");
      out << name_ << "_bucket";
      write_label_block(out, label_keys_, labels, "le", le);
      out << ' ' << cumulative << '\n';
    }
    out << name_ << "_sum";
    write_label_block(out, label_keys_, labels);
    out << ' ' << format_metric_value(snap.sum) << '\n';
    out << name_ << "_count";
    write_label_block(out, label_keys_, labels);
    out << ' ' << snap.count << '\n';
  }
}

void CounterFamily::write_json(internal::JsonCursor& json) const {
  common::MutexLock lock(mu_);
  for (const auto& [labels, counter] : series_) {
    json.w.begin_object();
    write_labels_json(json.w, labels);
    json.w.kv("value", counter->value());
    json.w.end_object();
  }
}

void GaugeFamily::write_json(internal::JsonCursor& json) const {
  common::MutexLock lock(mu_);
  for (const auto& [labels, gauge] : series_) {
    json.w.begin_object();
    write_labels_json(json.w, labels);
    json.w.kv("value", gauge->value());
    json.w.end_object();
  }
}

void HistogramFamily::write_json(internal::JsonCursor& json) const {
  common::MutexLock lock(mu_);
  for (const auto& [labels, histogram] : series_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    json.w.begin_object();
    write_labels_json(json.w, labels);
    json.w.kv("count", snap.count);
    json.w.kv("sum", snap.sum);
    json.w.key("buckets");
    json.w.begin_array();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < snap.bucket_counts.size(); ++i) {
      cumulative += snap.bucket_counts[i];
      json.w.begin_object();
      if (i < bounds_.size())
        json.w.kv("le", bounds_[i]);
      else
        json.w.kv("le", "+Inf");
      json.w.kv("count", cumulative);
      json.w.end_object();
    }
    json.w.end_array();
    json.w.end_object();
  }
}

bool CounterFamily::accumulate_total(double* out) const {
  common::MutexLock lock(mu_);
  double total = 0.0;
  for (const auto& [labels, counter] : series_)
    total += static_cast<double>(counter->value());
  *out = total;
  return true;
}

bool GaugeFamily::accumulate_total(double* out) const {
  common::MutexLock lock(mu_);
  double total = 0.0;
  for (const auto& [labels, gauge] : series_) total += gauge->value();
  *out = total;
  return true;
}

std::vector<double> duration_buckets() {
  return {0.00025, 0.001, 0.004, 0.016, 0.0625, 0.25, 1.0, 4.0};
}

// ----------------------------------------------------------------- Registry

internal::FamilyBase& Registry::family(MetricKind kind, std::string_view name,
                                       std::string_view help,
                                       std::vector<std::string> label_keys,
                                       std::vector<double> bounds) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("metric name must be snake_case: " + std::string(name));
  for (const auto& key : label_keys)
    if (!valid_metric_name(key))
      throw std::invalid_argument("label name must be snake_case: " + key);

  common::MutexLock lock(mu_);
  const auto it = families_.find(name);
  if (it != families_.end()) {
    internal::FamilyBase& existing = *it->second;
    const bool same_kind = existing.kind() == kind;
    const bool same_shape = existing.help() == help && existing.label_keys() == label_keys;
    bool same_bounds = true;
    if (kind == MetricKind::kHistogram && same_kind)
      same_bounds = static_cast<HistogramFamily&>(existing).bounds() == bounds;
    if (!same_kind || !same_shape || !same_bounds)
      throw std::logic_error("metric family re-registered with a different "
                             "kind/help/labels/bounds: " +
                             std::string(name));
    return existing;
  }

  std::unique_ptr<internal::FamilyBase> fam;
  switch (kind) {
    case MetricKind::kCounter:
      fam = std::make_unique<CounterFamily>(kind, std::string(name), std::string(help),
                                            std::move(label_keys));
      break;
    case MetricKind::kGauge:
      fam = std::make_unique<GaugeFamily>(kind, std::string(name), std::string(help),
                                          std::move(label_keys));
      break;
    case MetricKind::kHistogram:
      fam = std::make_unique<HistogramFamily>(std::string(name), std::string(help),
                                              std::move(label_keys), std::move(bounds));
      break;
  }
  internal::FamilyBase& ref = *fam;
  families_.emplace(std::string(name), std::move(fam));
  return ref;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return counter_family(name, help, {}).with();
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return gauge_family(name, help, {}).with();
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds) {
  return histogram_family(name, help, {}, std::move(bounds)).with();
}

CounterFamily& Registry::counter_family(std::string_view name, std::string_view help,
                                        std::vector<std::string> label_keys) {
  return static_cast<CounterFamily&>(
      family(MetricKind::kCounter, name, help, std::move(label_keys), {}));
}

GaugeFamily& Registry::gauge_family(std::string_view name, std::string_view help,
                                    std::vector<std::string> label_keys) {
  return static_cast<GaugeFamily&>(
      family(MetricKind::kGauge, name, help, std::move(label_keys), {}));
}

HistogramFamily& Registry::histogram_family(std::string_view name, std::string_view help,
                                            std::vector<std::string> label_keys,
                                            std::vector<double> bounds) {
  return static_cast<HistogramFamily&>(
      family(MetricKind::kHistogram, name, help, std::move(label_keys), std::move(bounds)));
}

namespace {

void check_entry(const Family& entry, MetricKind kind, bool labeled) {
  if (entry.kind != kind || entry.label.empty() == labeled)
    throw std::logic_error("metric family " + std::string(entry.name) +
                           " registered as the wrong kind or label arity");
}

}  // namespace

Counter& Registry::counter(const Family& entry) {
  check_entry(entry, MetricKind::kCounter, false);
  return counter(entry.name, entry.help);
}

CounterFamily& Registry::counter_family(const Family& entry) {
  check_entry(entry, MetricKind::kCounter, true);
  return counter_family(entry.name, entry.help, {std::string(entry.label)});
}

Gauge& Registry::gauge(const Family& entry) {
  check_entry(entry, MetricKind::kGauge, false);
  return gauge(entry.name, entry.help);
}

Histogram& Registry::histogram(const Family& entry) {
  check_entry(entry, MetricKind::kHistogram, false);
  return histogram(entry.name, entry.help, duration_buckets());
}

Registry::CollectorId Registry::add_collector(std::function<void()> fn) {
  common::MutexLock lock(mu_);
  const CollectorId id = next_collector_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void Registry::remove_collector(CollectorId id) {
  common::MutexLock lock(mu_);
  collectors_.erase(id);
}

void Registry::collect() {
  std::vector<std::function<void()>> fns;
  {
    common::MutexLock lock(mu_);
    fns.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) fns.push_back(fn);
  }
  // Outside the lock: collectors touch registry handles (and take mu_
  // themselves via with()/counter()).
  for (const auto& fn : fns) fn();
}

void Registry::write_prometheus(std::ostream& out) {
  collect();
  common::MutexLock lock(mu_);
  for (const auto& [name, fam] : families_) fam->write_prometheus(out);
}

void Registry::write_json(std::ostream& out, bool pretty) {
  collect();
  common::JsonWriter json(out, pretty);
  internal::JsonCursor cursor(json);
  common::MutexLock lock(mu_);
  json.begin_object();
  json.kv("schema", "tamper-metrics/1");
  json.key("families");
  json.begin_array();
  for (const auto& [fname, fam] : families_) {
    json.begin_object();
    json.kv("name", fam->metric_name());
    json.kv("type", name(fam->kind()));
    json.kv("help", fam->help());
    json.key("label_keys");
    json.begin_array();
    for (const auto& key : fam->label_keys()) json.value(key);
    json.end_array();
    json.key("series");
    json.begin_array();
    fam->write_json(cursor);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

bool Registry::read_family_total(std::string_view name, double* out) {
  common::MutexLock lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end()) return false;
  return it->second->accumulate_total(out);
}

std::string Registry::prometheus_text() {
  std::ostringstream out;
  write_prometheus(out);
  return out.str();
}

std::string Registry::json_text(bool pretty) {
  std::ostringstream out;
  write_json(out, pretty);
  return out.str();
}

}  // namespace tamper::obs

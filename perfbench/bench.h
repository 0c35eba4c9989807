// Shared plumbing for the end-to-end benchmark: options, timers, order
// statistics, the seeded input builders, and the result that main() prints.
//
// Every call into libtamper goes through its public headers; nothing in
// src/ is instrumented. Per-layer timings come from timers placed around
// those calls here.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture/sample.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper::analysis {
class Pipeline;
}

namespace tamperbench {

namespace analysis = tamper::analysis;
namespace capture = tamper::capture;
namespace world = tamper::world;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Work completed per second over every timed round: total work over total
/// time. On a shared host the CPU's speed drifts over tens of seconds; the
/// whole-run rate follows that drift least, less than a high percentile of
/// per-round rates, which chases short fast bursts.
struct Throughput {
  double work = 0.0;
  double seconds = 0.0;
  std::size_t rounds = 0;
  void add(double round_work, double round_seconds) {
    work += round_work;
    seconds += round_seconds;
    ++rounds;
  }
  [[nodiscard]] double per_s() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

/// Fault injected into one workload's input, so the benchmark's own test
/// can show each output check fires.
enum class Corruption : std::uint8_t { kNone, kDropFrame, kFlipPartial };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  ///< service checkpoints go here
  double scale = 1.0;     ///< multiplies every input size (tests use < 1)
  Corruption corrupt = Corruption::kNone;

  /// An input size scaled by `scale`, never below `floor`.
  [[nodiscard]] std::size_t sized(std::size_t full, std::size_t floor = 1) const;
};

/// What one run prints: the metrics, the operation counts behind
/// `failed`, and the reasons any output check failed.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Descriptive facts (input sizes, sample counts) printed on their own
  /// line before the result.
  void info(const std::string& key, double value) { info_[key] = value; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed operation or output check; `why` is printed to stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Checks `ok`, counting one attempted operation and, when false, one
  /// failure.
  void check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
  }

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double failed_frac() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  /// Prints the info line, then the result line (always last on stdout).
  void print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, double> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set since the last reset_peak_rss(), in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();
/// Returns the heap's free memory to the OS (glibc's malloc_trim). Memory an
/// earlier phase freed stays resident otherwise, and whether a later phase
/// reuses it depends on which thread's arena it landed in: the peak then
/// jumps by tens of MB from run to run.
void trim_heap();
/// Trims the heap, then restarts the peak-RSS high-water mark at the
/// current RSS (best effort: without kernel support the peak covers the
/// whole process).
void reset_peak_rss();

/// The default two-week global scenario: the default World, and
/// TrafficConfig defaults with the seed derived from the benchmark seed.
[[nodiscard]] world::TrafficConfig traffic_config(std::uint64_t seed, bool keep_raw);

/// `count` generated connections from `world`.
[[nodiscard]] std::vector<world::LabeledConnection> generate(const world::World& world,
                                                             std::uint64_t seed,
                                                             std::size_t count,
                                                             bool keep_raw);

/// The samples of `conns` ordered by their first packet's capture time (the
/// order a tap would see them complete in), ties kept in generation order.
[[nodiscard]] std::vector<capture::ConnectionSample> samples_in_capture_order(
    std::vector<world::LabeledConnection>&& conns);

/// Runs set-up and keeps its product. An untraced run sets up three times
/// and reports the median wall time as setup_s; a traced run sets up once.
template <typename Fn>
auto timed_setup(const Options& opts, Result& result, Fn&& build) {
  const int repeats = opts.trace ? 1 : 3;
  std::vector<double> times;
  for (int i = 0;; ++i) {
    const auto t0 = Clock::now();
    auto product = build();
    times.push_back(seconds_since(t0));
    if (i + 1 >= repeats) {
      if (!opts.trace) result.metric("setup_s", median(times), "s");
      return product;
    }
  }
}

// The workloads. Each fills `result` with every end-to-end metric (or, when
// opts.trace, every per-layer metric) and runs its output checks.
void run_pcap_report(const Options& opts, Result& result);
void run_service_stream(const Options& opts, Result& result);
void run_fleet_merge(const Options& opts, Result& result);

/// Per-layer metrics every workload reports: the ingest decomposition and
/// the obs overhead intervals, measured over `samples`.
void measure_ingest_layers(const world::World& world,
                           const std::vector<capture::ConnectionSample>& samples,
                           double budget_s, Result& result);

/// Per-layer analysis.state_bytes.* metrics: each aggregator's snapshot size.
void record_state_bytes(const analysis::Pipeline& pipeline, Result& result);

}  // namespace tamperbench

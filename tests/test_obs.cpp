// Observability suite: metrics registry semantics (get-or-create, runtime
// name validation, histogram bucket-boundary edges), byte-stable ordered
// emission in both formats, the Chrome-trace ring (wrap, terminator), the
// leveled logger under a ManualClock, the output validators on good and
// broken inputs, and the service-level contracts — twin identically-seeded
// supervised runs emit identical snapshot bytes, a chaos campaign's
// degradation counters agree with DegradedStats, and RunSummary is a delta
// view over registry counters (the single bookkeeping path).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/pipeline.h"
#include "common/binio.h"
#include "fault/chaos.h"
#include "obs/anomaly.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/supervisor.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper {
namespace {

namespace fs = std::filesystem;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 10'000}, .seed = 0x0b5}};
  return kWorld;
}

std::vector<capture::ConnectionSample> generate_samples(std::size_t n,
                                                        std::uint64_t seed = 0xfade) {
  world::TrafficConfig traffic;
  traffic.seed = seed;
  world::TrafficGenerator generator(shared_world(), traffic);
  std::vector<capture::ConnectionSample> out;
  out.reserve(n);
  generator.generate(n, [&](world::LabeledConnection&& conn) {
    out.push_back(std::move(conn.sample));
  });
  return out;
}

struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("tamper_obs_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
  fs::path path;
};

/// Value of one sample line (`series value`) in a Prometheus exposition.
double sample_value(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::stod(text.substr(pos + needle.size()));
    pos += needle.size();
  }
  ADD_FAILURE() << "series not found: " << series;
  return -1.0;
}

// ----------------------------------------------------------------- metrics --

TEST(MetricNames, SnakeCaseOnly) {
  EXPECT_TRUE(obs::valid_metric_name("tamper_ingest_samples_total"));
  EXPECT_TRUE(obs::valid_metric_name("x"));
  EXPECT_TRUE(obs::valid_metric_name("a1_b2"));
  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_FALSE(obs::valid_metric_name("Tamper_total"));
  EXPECT_FALSE(obs::valid_metric_name("1starts_with_digit"));
  EXPECT_FALSE(obs::valid_metric_name("_starts_with_underscore"));
  EXPECT_FALSE(obs::valid_metric_name("has-dash"));
  EXPECT_FALSE(obs::valid_metric_name("has.dot"));
}

TEST(MetricValues, DeterministicRendering) {
  EXPECT_EQ(obs::format_metric_value(0.0), "0");
  EXPECT_EQ(obs::format_metric_value(42.0), "42");
  EXPECT_EQ(obs::format_metric_value(-7.0), "-7");
  EXPECT_EQ(obs::format_metric_value(0.25), "0.25");
  EXPECT_EQ(obs::format_metric_value(0.00025), "0.00025");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(obs::format_metric_value(inf), "+Inf");
  EXPECT_EQ(obs::format_metric_value(-inf), "-Inf");
  EXPECT_EQ(obs::format_metric_value(std::nan("")), "NaN");
}

TEST(Counter, AddReturnsPostValueAndIncrementToIsMonotone) {
  obs::Counter c;
  EXPECT_EQ(c.add(), 1u);
  EXPECT_EQ(c.add(9), 10u);
  c.increment_to(25);
  EXPECT_EQ(c.value(), 25u);
  c.increment_to(7);  // never backwards
  EXPECT_EQ(c.value(), 25u);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1.0 -> bucket 0
  h.observe(1.0);   // == bound: inclusive -> bucket 0
  h.observe(1.0000001);  // just above -> bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(4.5);   // above every bound -> +Inf overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 2u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.0000001 + 2.0 + 4.0 + 4.5);
}

TEST(Histogram, NanLandsInOverflowBucket) {
  obs::Histogram h({1.0});
  h.observe(std::nan(""));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.bucket_counts[0], 0u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.count, 1u);
}

TEST(Histogram, RejectsUnsortedOrNonFiniteBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(Registry, GetOrCreateReturnsTheSameSeries) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("obs_test_hits_total", "hits");
  obs::Counter& b = reg.counter("obs_test_hits_total", "hits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, MismatchedReRegistrationThrows) {
  obs::Registry reg;
  reg.counter("obs_test_mismatch_total", "original help");
  EXPECT_THROW(reg.counter("obs_test_mismatch_total", "different help"),
               std::logic_error);
  EXPECT_THROW(reg.gauge("obs_test_mismatch_total", "original help"),
               std::logic_error);
}

TEST(Registry, RejectsBadNamesAtRuntime) {
  obs::Registry reg;
  EXPECT_THROW(reg.counter("Bad_Name", "capitals"), std::invalid_argument);
  EXPECT_THROW(reg.counter_family("obs_test_labeled_total", "help", {"Bad-Key"}),
               std::invalid_argument);
}

TEST(Registry, LabelArityIsChecked) {
  obs::Registry reg;
  auto& fam = reg.counter_family("obs_test_arity_total", "help", {"a", "b"});
  EXPECT_THROW(fam.with({"only_one"}), std::invalid_argument);
  fam.with({"x", "y"}).add();
}

TEST(Registry, PrometheusExpositionIsByteExact) {
  obs::Registry reg;
  reg.counter("obs_golden_events_total", "Events with a \\ and\nnewline").add(3);
  auto& fam = reg.counter_family("obs_golden_sheds_total", "Sheds", {"reason"});
  fam.with({"quote\"backslash\\nl\n"}).add(1);
  fam.with({"plain"}).add(2);
  reg.gauge("obs_golden_depth", "Depth").set(2.5);
  reg.histogram("obs_golden_seconds", "Latency", {0.25, 1.0}).observe(0.25);

  const std::string expected =
      "# HELP obs_golden_depth Depth\n"
      "# TYPE obs_golden_depth gauge\n"
      "obs_golden_depth 2.5\n"
      "# HELP obs_golden_events_total Events with a \\\\ and\\nnewline\n"
      "# TYPE obs_golden_events_total counter\n"
      "obs_golden_events_total 3\n"
      "# HELP obs_golden_seconds Latency\n"
      "# TYPE obs_golden_seconds histogram\n"
      "obs_golden_seconds_bucket{le=\"0.25\"} 1\n"
      "obs_golden_seconds_bucket{le=\"1\"} 1\n"
      "obs_golden_seconds_bucket{le=\"+Inf\"} 1\n"
      "obs_golden_seconds_sum 0.25\n"
      "obs_golden_seconds_count 1\n"
      "# HELP obs_golden_sheds_total Sheds\n"
      "# TYPE obs_golden_sheds_total counter\n"
      "obs_golden_sheds_total{reason=\"plain\"} 2\n"
      "obs_golden_sheds_total{reason=\"quote\\\"backslash\\\\nl\\n\"} 1\n";
  EXPECT_EQ(reg.prometheus_text(), expected);

  const auto check = obs::validate_prometheus_text(reg.prometheus_text());
  EXPECT_TRUE(check.ok) << check.error << " at line " << check.line;
  EXPECT_EQ(check.families, 4u);
}

TEST(Registry, JsonSnapshotIsStableAcrossIdenticalRegistries) {
  const auto build = [] {
    auto reg = std::make_unique<obs::Registry>();
    reg->counter("obs_twin_events_total", "events").add(7);
    reg->histogram("obs_twin_seconds", "latency", {0.5}).observe(0.1);
    reg->gauge("obs_twin_depth", "depth").set(4);
    return reg;
  };
  auto a = build();
  auto b = build();
  EXPECT_EQ(a->json_text(), b->json_text());
  EXPECT_EQ(a->prometheus_text(), b->prometheus_text());
  EXPECT_NE(a->json_text().find("\"schema\""), std::string::npos);
  EXPECT_NE(a->json_text().find("tamper-metrics/1"), std::string::npos);
}

TEST(Registry, CollectorsRefreshMirrorsBeforeEverySnapshot) {
  obs::Registry reg;
  std::uint64_t source = 5;
  obs::Counter& mirror = reg.counter("obs_mirrored_total", "mirrored");
  const auto id = reg.add_collector([&] { mirror.increment_to(source); });
  EXPECT_NE(reg.prometheus_text().find("obs_mirrored_total 5"), std::string::npos);
  source = 9;
  EXPECT_NE(reg.prometheus_text().find("obs_mirrored_total 9"), std::string::npos);
  reg.remove_collector(id);
  source = 50;
  EXPECT_NE(reg.prometheus_text().find("obs_mirrored_total 9"), std::string::npos);
}

// ------------------------------------------------------------------- trace --

TEST(Tracer, SpanRecordsThroughTheClockSeam) {
  obs::ManualClock clock;
  obs::Tracer tracer(clock, {.capacity = 8});
  clock.set_ns(5'000);
  {
    obs::Tracer::Span span(&tracer, obs::stage::kClassify, obs::stage::kCategory,
                           /*tid=*/7);
    clock.advance_ns(2'500);
  }
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.chrome_json(),
            "[\n"
            "{\"name\":\"classify\",\"cat\":\"pipeline\",\"ph\":\"X\","
            "\"ts\":5,\"dur\":2,\"pid\":1,\"tid\":7}\n"
            "]\n");
  const auto check = obs::validate_chrome_trace(tracer.chrome_json());
  EXPECT_TRUE(check.ok) << check.error << " at line " << check.line;
  EXPECT_EQ(check.samples, 1u);
}

TEST(Tracer, NullTracerSpansAreNoOps) {
  obs::Tracer::Span span(nullptr, obs::stage::kIngest, obs::stage::kCategory);
  span.finish();  // must not crash
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  obs::ManualClock clock;
  obs::Tracer tracer(clock, {.capacity = 4});
  static constexpr const char* kNames[] = {"ingest", "sample", "classify",
                                           "aggregate", "checkpoint", "emit"};
  for (std::uint64_t i = 0; i < 6; ++i) {
    clock.set_ns(i * 1'000);
    tracer.record(kNames[i], obs::stage::kCategory, i * 1'000, i * 1'000 + 500);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::string json = tracer.chrome_json();
  EXPECT_EQ(json.find("\"name\":\"ingest\""), std::string::npos);   // dropped
  EXPECT_EQ(json.find("\"name\":\"sample\""), std::string::npos);   // dropped
  // Oldest survivor first.
  EXPECT_LT(json.find("\"name\":\"classify\""), json.find("\"name\":\"emit\""));
  const auto check = obs::validate_chrome_trace(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.samples, 4u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.chrome_json(), "[\n]\n");
}

TEST(Validators, RejectBrokenPrometheusText) {
  // Sample without a TYPE declaration.
  auto v = obs::validate_prometheus_text("orphan_total 3\n");
  EXPECT_FALSE(v.ok);
  // Families out of ascending order.
  v = obs::validate_prometheus_text(
      "# HELP b_total b\n# TYPE b_total counter\nb_total 1\n"
      "# HELP a_total a\n# TYPE a_total counter\na_total 1\n");
  EXPECT_FALSE(v.ok);
  // Decreasing cumulative bucket counts.
  v = obs::validate_prometheus_text(
      "# HELP h_seconds h\n# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 5\n"
      "h_seconds_bucket{le=\"+Inf\"} 3\n"
      "h_seconds_sum 1\nh_seconds_count 5\n");
  EXPECT_FALSE(v.ok);
  // Non-snake_case family name.
  v = obs::validate_prometheus_text("# HELP Bad b\n# TYPE Bad counter\nBad 1\n");
  EXPECT_FALSE(v.ok);
}

TEST(Validators, RejectBrokenTraces) {
  EXPECT_FALSE(obs::validate_chrome_trace("").ok);
  // Missing terminator.
  EXPECT_FALSE(obs::validate_chrome_trace("[\n").ok);
  // Trailing comma before the terminator.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          "[\n{\"name\":\"a\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":0,\"dur\":0,"
          "\"pid\":1,\"tid\":0},\n]\n")
          .ok);
  // Event missing a required key.
  EXPECT_FALSE(
      obs::validate_chrome_trace("[\n{\"name\":\"a\",\"ph\":\"X\"}\n]\n").ok);
}

// --------------------------------------------------------------------- log --

TEST(Logger, TextFormatIsByteStableUnderManualClock) {
  obs::ManualClock clock;
  clock.set_ns(1'250'000'000);
  std::ostringstream out;
  obs::Logger logger(out, obs::LogLevel::kInfo, obs::Logger::Format::kText, &clock);
  logger.warn("supervisor", "worker stalled", {{"restarts", "2"}});
  logger.debug("supervisor", "invisible at info level");
  EXPECT_EQ(out.str(),
            "[     1.250000] WARN  supervisor: worker stalled restarts=2\n");
}

TEST(Logger, JsonFormatCarriesLevelComponentAndFields) {
  obs::ManualClock clock;
  clock.set_ns(42);
  std::ostringstream out;
  obs::Logger logger(out, obs::LogLevel::kDebug, obs::Logger::Format::kJson, &clock);
  logger.error("emit", "sink down", {{"attempts", "3"}});
  const std::string line = out.str();
  EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
  EXPECT_NE(line.find("\"level\""), std::string::npos);
  EXPECT_NE(line.find("error"), std::string::npos);
  EXPECT_NE(line.find("\"component\""), std::string::npos);
  EXPECT_NE(line.find("emit"), std::string::npos);
  EXPECT_NE(line.find("sink down"), std::string::npos);
  EXPECT_NE(line.find("attempts"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "one line per record";
}

TEST(Logger, ParseLogLevelRoundTrips) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  EXPECT_TRUE(obs::parse_log_level("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::parse_log_level("error", &level));
  EXPECT_EQ(level, obs::LogLevel::kError);
  EXPECT_FALSE(obs::parse_log_level("LOUD", &level));
}

// ----------------------------------------------------------------- service --

service::ServiceConfig fast_config() {
  service::ServiceConfig cfg;
  cfg.queue_capacity = 4096;
  cfg.checkpoint_every_samples = 0;
  cfg.watchdog_poll = std::chrono::milliseconds(2);
  cfg.stall_timeout = std::chrono::milliseconds(2000);
  cfg.pop_timeout = std::chrono::milliseconds(5);
  return cfg;
}

TEST(ObsService, TwinSeededRunsEmitIdenticalSnapshotBytes) {
  const auto samples = generate_samples(400);
  const auto run = [&](const std::string& tag) {
    ScratchDir dir("twin_" + tag);
    obs::ManualClock clock;
    obs::Registry reg;
    auto cfg = fast_config();
    cfg.checkpoint_path = dir.file("state.ckpt");
    cfg.checkpoint_every_samples = 100;
    cfg.metrics = &reg;
    cfg.clock = &clock;
    service::SupervisedService svc(shared_world(), cfg, nullptr);
    EXPECT_TRUE(svc.start(service::SupervisedService::Resume::kFresh));
    for (const auto& s : samples) EXPECT_TRUE(svc.submit(s));
    const auto summary = svc.stop();
    EXPECT_FALSE(summary.failed) << summary.failure;
    EXPECT_EQ(summary.ingested, samples.size());
    return std::pair{reg.prometheus_text(), reg.json_text()};
  };
  const auto [prom_a, json_a] = run("a");
  const auto [prom_b, json_b] = run("b");
  EXPECT_EQ(prom_a, prom_b) << "prometheus snapshot not byte-stable";
  EXPECT_EQ(json_a, json_b) << "json snapshot not byte-stable";
  const auto check = obs::validate_prometheus_text(prom_a);
  EXPECT_TRUE(check.ok) << check.error << " at line " << check.line;
  EXPECT_GT(check.families, 10u);
}

TEST(ObsService, ChaosDegradationCountersAgreeWithDegradedStats) {
  const auto samples = generate_samples(800);

  fault::ChaosSchedule::Config chaos_cfg;
  chaos_cfg.crash_probability = 0.02;
  fault::ChaosSchedule chaos(0x0b5c4a05, chaos_cfg);

  obs::Registry reg;
  auto cfg = fast_config();
  cfg.queue_capacity = 8;
  cfg.queue_policy = common::QueuePolicy::kShed;
  cfg.max_worker_restarts = 64;
  cfg.metrics = &reg;
  cfg.ingest_hook = [&](std::uint64_t tick) {
    chaos.ingest_tick(tick);
    // Deterministic crashes on top of the probabilistic schedule: the hook
    // tick is monotonic across restarts, so each fires exactly once and the
    // restart path is exercised no matter how short the shed-heavy run is.
    if (tick == 5 || tick == 11 || tick == 17) throw fault::InjectedCrash{};
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  ASSERT_FALSE(summary.failed) << summary.failure;
  ASSERT_GT(summary.queue.shed_total(), 0u) << "campaign produced no sheds";

  const std::string text = reg.prometheus_text();  // runs the mirrors
  const analysis::DegradedStats d = svc.pipeline().degraded();
  const auto cause = [&](const char* c) {
    return sample_value(text,
                        std::string("tamper_pipeline_degraded_total{cause=\"") +
                            c + "\"}");
  };
  EXPECT_EQ(cause("empty_samples"), static_cast<double>(d.empty_samples));
  EXPECT_EQ(cause("ingest_errors"), static_cast<double>(d.ingest_errors));
  EXPECT_EQ(cause("malformed_packets"), static_cast<double>(d.malformed_packets));
  EXPECT_EQ(cause("overload_evicted"), static_cast<double>(d.overload_evicted));
  EXPECT_EQ(cause("unparseable_frames"), static_cast<double>(d.unparseable_frames));
  EXPECT_EQ(cause("oversize_frames"), static_cast<double>(d.oversize_frames));
  EXPECT_EQ(cause("truncated_frames"), static_cast<double>(d.truncated_frames));
  EXPECT_EQ(cause("queue_shed_embryonic"),
            static_cast<double>(d.queue_shed_embryonic));
  EXPECT_EQ(cause("queue_shed_other"), static_cast<double>(d.queue_shed_other));

  // Single bookkeeping path: the registry counters ARE the RunSummary.
  EXPECT_EQ(sample_value(text, "tamper_worker_crashes_total"),
            static_cast<double>(summary.worker_crashes));
  EXPECT_EQ(sample_value(text, "tamper_worker_restarts_total"),
            static_cast<double>(summary.worker_restarts));
  EXPECT_EQ(sample_value(text, "tamper_ingest_samples_total"),
            static_cast<double>(summary.ingested));
  EXPECT_EQ(sample_value(text, "tamper_queue_shed_total{reason=\"embryonic\"}") +
                sample_value(text, "tamper_queue_shed_total{reason=\"forced\"}"),
            static_cast<double>(summary.queue.shed_total()));
  EXPECT_GT(summary.worker_crashes, 0u) << "campaign too tame: no crashes";
}

TEST(ObsService, SharedRegistrySurvivesReuseAndSummariesStayDeltas) {
  obs::Registry reg;
  const auto samples = generate_samples(300);
  auto cfg = fast_config();
  cfg.metrics = &reg;
  {
    service::SupervisedService first(shared_world(), cfg, nullptr);
    ASSERT_TRUE(first.start());
    for (std::size_t i = 0; i < 200; ++i) ASSERT_TRUE(first.submit(samples[i]));
    const auto s1 = first.stop();
    EXPECT_EQ(s1.ingested, 200u);
  }
  {
    service::SupervisedService second(shared_world(), cfg, nullptr);
    ASSERT_TRUE(second.start());
    for (std::size_t i = 200; i < 300; ++i) ASSERT_TRUE(second.submit(samples[i]));
    const auto s2 = second.stop();
    // The summary is a per-run delta even though the counter kept growing.
    EXPECT_EQ(s2.ingested, 100u);
    const std::string text = second.metrics().prometheus_text();
    EXPECT_EQ(sample_value(text, "tamper_ingest_samples_total"), 300.0);
  }
}

// -------------------------------------------------- timeseries & anomaly --

std::vector<std::uint8_t> ring_bytes(const obs::EpochRing& ring) {
  common::BinWriter w;
  ring.snapshot(w);
  return w.bytes();
}

TEST(TimeseriesRing, WindowWrapKeepsNewestAndRefusesStalePoints) {
  obs::EpochRing ring({.epoch_length_sec = 1, .max_epochs = 3, .max_series = 8});
  for (std::int64_t e = 0; e <= 5; ++e)
    ring.record_epoch("connections", "", obs::SeriesMerge::kSum, e,
                      static_cast<double>(10 * (e + 1)));
  EXPECT_EQ(ring.min_epoch(), 3);
  EXPECT_EQ(ring.max_epoch(), 5);
  EXPECT_EQ(ring.point_count(), 3u);
  EXPECT_EQ(ring.dropped_points(), 3u);  // epochs 0..2 trimmed by the window
  // A point older than the retained window is refused up front.
  ring.record_epoch("connections", "", obs::SeriesMerge::kSum, 1, 999.0);
  EXPECT_EQ(ring.point_count(), 3u);
  EXPECT_EQ(ring.dropped_points(), 4u);
  // Within an epoch: kSum is last-write-wins (cumulative), kMax keeps max.
  ring.record_epoch("connections", "", obs::SeriesMerge::kSum, 5, 77.0);
  ring.record_epoch("level", "", obs::SeriesMerge::kMax, 5, 3.0);
  ring.record_epoch("level", "", obs::SeriesMerge::kMax, 5, 1.0);
  const auto& series = ring.series();
  EXPECT_EQ(series.find(obs::SeriesKey{"connections", ""})->second.points.at(5), 77.0);
  EXPECT_EQ(series.find(obs::SeriesKey{"level", ""})->second.points.at(5), 3.0);
}

TEST(TimeseriesRing, SeriesCapEvictsBySortOrderDeterministically) {
  obs::EpochRing ring({.epoch_length_sec = 1, .max_epochs = 8, .max_series = 2});
  ring.record_epoch("a", "", obs::SeriesMerge::kSum, 1, 1.0);
  ring.record_epoch("c", "", obs::SeriesMerge::kSum, 1, 3.0);
  // A key past the cap in sort order is refused...
  ring.record_epoch("d", "", obs::SeriesMerge::kSum, 1, 4.0);
  EXPECT_EQ(ring.series().size(), 2u);
  EXPECT_EQ(ring.dropped_points(), 1u);
  // ...but a smaller key displaces the current last, so the surviving set is
  // always the first max_series keys regardless of arrival order.
  ring.record_epoch("b", "", obs::SeriesMerge::kSum, 1, 2.0);
  ASSERT_EQ(ring.series().size(), 2u);
  EXPECT_NE(ring.series().find(obs::SeriesKey{"a", ""}), ring.series().end());
  EXPECT_NE(ring.series().find(obs::SeriesKey{"b", ""}), ring.series().end());
}

TEST(TimeseriesRing, MergeIsOrderAndGroupingInvariant) {
  const auto make = [](std::int64_t base, double scale) {
    obs::EpochRing ring({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 8});
    for (std::int64_t e = base; e < base + 3; ++e) {
      ring.record_epoch("connections", "", obs::SeriesMerge::kSum, e,
                        scale * static_cast<double>(e + 1));
      ring.record_epoch("level", "", obs::SeriesMerge::kMax, e, scale);
    }
    return ring;
  };
  const obs::EpochRing a = make(0, 1.0), b = make(2, 10.0), c = make(4, 100.0);

  obs::EpochRing left({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 8});
  left.merge(a);
  left.merge(b);
  left.merge(c);
  obs::EpochRing right({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 8});
  // Different order AND different grouping (c+b folded first).
  obs::EpochRing cb({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 8});
  cb.merge(c);
  cb.merge(b);
  right.merge(cb);
  right.merge(a);
  EXPECT_EQ(ring_bytes(left), ring_bytes(right));
  // Identity: merging into a default ring reproduces the source bytes.
  obs::EpochRing identity;
  identity.merge(a);
  EXPECT_EQ(ring_bytes(identity), ring_bytes(a));
}

TEST(TimeseriesRing, IdentityMergeKeepsEpochsBelowZero) {
  // A restored ring may hold epochs below zero; the empty ring's unset
  // newest epoch must not push them out of the window.
  obs::EpochRing a({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 8});
  a.record_epoch("connections", "", obs::SeriesMerge::kSum, -500, 1.0);
  obs::EpochRing identity;
  identity.merge(a);
  EXPECT_EQ(ring_bytes(identity), ring_bytes(a));
}

TEST(TimeseriesRing, SnapshotRestoreSnapshotIsByteStable) {
  obs::EpochRing ring({.epoch_length_sec = 60, .max_epochs = 16, .max_series = 8});
  ring.record_epoch("connections", "", obs::SeriesMerge::kSum, 3, 12.0);
  ring.record_epoch("country_matches", "xa", obs::SeriesMerge::kSum, 3, 5.0);
  ring.record_epoch("country_matches", "xb", obs::SeriesMerge::kSum, 4, 6.0);
  const auto first = ring_bytes(ring);

  obs::EpochRing restored;
  common::BinReader r(first);
  restored.restore(r);
  EXPECT_EQ(ring_bytes(restored), first);
  EXPECT_EQ(restored.config().epoch_length_sec, 60);
  EXPECT_EQ(restored.max_epoch(), 4);
}

TEST(TimeseriesRing, CursorIsAPureLookupStrategy) {
  // The sorted-run cursor must produce byte-identical ring state to plain
  // record() calls — including when the run is NOT actually sorted and the
  // cursor has to fall back.
  const std::vector<std::pair<std::string, double>> labels = {
      {"aa", 1.0}, {"ab", 2.0}, {"zz", 3.0}, {"ba", 4.0}, {"aa", 5.0}};
  obs::EpochRing plain({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 4});
  obs::EpochRing cursed({.epoch_length_sec = 1, .max_epochs = 4, .max_series = 4});
  for (std::int64_t epoch = 0; epoch < 6; ++epoch) {
    obs::EpochRing::Cursor cursor(cursed);
    for (const auto& [label, value] : labels) {
      plain.record_epoch("country_matches", label, obs::SeriesMerge::kSum, epoch,
                         value * static_cast<double>(epoch + 1));
      cursor.record_epoch("country_matches", label, obs::SeriesMerge::kSum, epoch,
                          value * static_cast<double>(epoch + 1));
    }
  }
  EXPECT_EQ(ring_bytes(cursed), ring_bytes(plain));
  EXPECT_EQ(cursed.dropped_points(), plain.dropped_points());
}

obs::EpochRing steady_ring(std::int64_t epochs, double delta, double shift_at_last) {
  obs::EpochRing ring({.epoch_length_sec = 1, .max_epochs = 168, .max_series = 8});
  double total = 0.0;
  for (std::int64_t e = 0; e < epochs; ++e) {
    total += e + 1 == epochs ? shift_at_last : delta;
    ring.record_epoch("possibly_tampered", "", obs::SeriesMerge::kSum, e, total);
  }
  return ring;
}

TEST(AnomalyScan, SeededRateShiftRaisesExactlyOneEvent) {
  // Deltas of 10 for 10 epochs, then a 100 jump: one event, at the jump.
  const obs::EpochRing ring = steady_ring(11, 10.0, 100.0);
  const auto scan =
      obs::scan_anomalies(ring, obs::default_series_catalog(), obs::AnomalyConfig{});
  ASSERT_EQ(scan.events.size(), 1u) << scan.events.size() << " events";
  EXPECT_EQ(scan.events[0].family, "possibly_tampered");
  EXPECT_EQ(scan.events[0].epoch, 10);
  EXPECT_EQ(scan.events[0].delta, 100.0);
  EXPECT_GT(scan.events[0].score, obs::AnomalyConfig{}.z_threshold);
  EXPECT_EQ(scan.suppressed_degraded, 0u);
  EXPECT_EQ(scan.suppressed_gap, 0u);
  // Pure function: the same ring re-derives the identical event list.
  const auto again =
      obs::scan_anomalies(ring, obs::default_series_catalog(), obs::AnomalyConfig{});
  EXPECT_TRUE(again.events == scan.events);
}

TEST(AnomalyScan, DegradedEpochRaisesNothing) {
  const obs::EpochRing ring = steady_ring(11, 10.0, 100.0);
  const auto scan = obs::scan_anomalies(ring, obs::default_series_catalog(),
                                        obs::AnomalyConfig{}, {10});
  EXPECT_TRUE(scan.events.empty());
  EXPECT_GT(scan.suppressed_degraded, 0u);
}

TEST(AnomalyScan, EpochGapsAreSuppressedNotScored) {
  obs::EpochRing ring({.epoch_length_sec = 1, .max_epochs = 168, .max_series = 8});
  double total = 0.0;
  for (std::int64_t e = 0; e < 8; ++e) {
    total += 10.0;
    // Epoch 5 is missing: the 4 -> 6 delta spans a gap and must not score,
    // however large it looks.
    if (e == 5) continue;
    if (e == 6) total += 1000.0;
    ring.record_epoch("possibly_tampered", "", obs::SeriesMerge::kSum, e, total);
  }
  const auto scan =
      obs::scan_anomalies(ring, obs::default_series_catalog(), obs::AnomalyConfig{});
  EXPECT_TRUE(scan.events.empty());
  EXPECT_GT(scan.suppressed_gap, 0u);
}

TEST(AnomalyScan, InputNoiseDoesNotMarkTheEpochDegraded) {
  // A stray junk flow (zero packets) is noise, not coverage loss: the
  // `degraded` trends series must stay flat so the watchdog keeps scoring
  // the epoch instead of suppressing it.
  analysis::Pipeline pipeline(shared_world());
  auto samples = generate_samples(100);
  capture::ConnectionSample empty = samples.front();
  empty.packets.clear();
  pipeline.ingest(empty);
  for (const auto& s : samples) pipeline.ingest(s);
  pipeline.sample_trends();

  EXPECT_EQ(pipeline.degraded().empty_samples, 1u);
  EXPECT_EQ(pipeline.degraded().coverage_loss(), 0u);
  EXPECT_TRUE(obs::epochs_where_rising(pipeline.trends(), "degraded").empty());
  const auto scan = obs::scan_anomalies(
      pipeline.trends(), obs::default_series_catalog(), obs::AnomalyConfig{},
      obs::epochs_where_rising(pipeline.trends(), "degraded"));
  EXPECT_EQ(scan.suppressed_degraded, 0u);
}

TEST(Validators, AcceptRealTimeseriesAndRejectBroken) {
  obs::EpochRing ring({.epoch_length_sec = 3600, .max_epochs = 8, .max_series = 8});
  ring.record_epoch("connections", "", obs::SeriesMerge::kSum, 1, 10.0);
  ring.record_epoch("connections", "", obs::SeriesMerge::kSum, 2, 25.0);
  obs::TimeseriesScope scope;
  scope.name = "local";
  scope.ring = &ring;
  scope.epochs.push_back({.epoch = 1, .degraded = false});
  scope.epochs.push_back({.epoch = 2, .degraded = true});
  std::ostringstream out;
  obs::write_timeseries_json(out, {scope}, 3600, /*pretty=*/true);
  const auto good = obs::validate_timeseries_json(out.str());
  EXPECT_TRUE(good.ok) << good.error << " at line " << good.line;

  EXPECT_FALSE(obs::validate_timeseries_json("{}").ok);
  EXPECT_FALSE(obs::validate_timeseries_json(
                   "{\"schema\": \"tamper-timeseries/2\", \"epoch_length_sec\": 1, "
                   "\"scopes\": []}")
                   .ok);
  EXPECT_FALSE(obs::validate_timeseries_json(
                   "{\"schema\": \"tamper-timeseries/1\", \"epoch_length_sec\": 0, "
                   "\"scopes\": []}")
                   .ok);
  // Epochs inside a series must ascend strictly.
  EXPECT_FALSE(
      obs::validate_timeseries_json(
          "{\"schema\": \"tamper-timeseries/1\", \"epoch_length_sec\": 1, "
          "\"scopes\": [{\"scope\": \"local\", \"series\": [{\"family\": \"c\", "
          "\"label\": \"\", \"merge\": \"sum\", \"points\": [{\"epoch\": 2, "
          "\"value\": 1}, {\"epoch\": 1, \"value\": 2}]}], \"epochs\": [], "
          "\"anomalies\": []}]}")
          .ok);
}

TEST(ObsService, PrivateRegistryIsCreatedWhenNoneConfigured) {
  const auto samples = generate_samples(50);
  service::SupervisedService svc(shared_world(), fast_config(), nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  EXPECT_EQ(summary.ingested, samples.size());
  const std::string text = svc.metrics().prometheus_text();
  EXPECT_EQ(sample_value(text, "tamper_ingest_samples_total"),
            static_cast<double>(samples.size()));
  const auto check = obs::validate_prometheus_text(text);
  EXPECT_TRUE(check.ok) << check.error << " at line " << check.line;
}

}  // namespace
}  // namespace tamper

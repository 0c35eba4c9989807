// Overload-control suite: OverloadController unit contracts (token
// bucket, ladder hysteresis, per-rung admission policy, circuit
// breaker), fault::OverloadGenerator determinism, and 32 seeded
// campaigns (8 seeds x 4 scenarios) driving a synchronous ingest model
// with a ManualClock. The campaigns are the PR's evidence: memory stays
// bounded (queue <= capacity, spool <= cap), every shed sample is
// counted (offered == admitted + shed, mirrored into DegradedStats),
// report staleness outside forced sink outages is <= 2 report
// intervals, and twin-seeded runs produce byte-identical metrics and
// Radar JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "control/overload.h"
#include "fault/overload.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "service/sink.h"
#include "service/supervisor.h"
#include "world/world.h"

namespace tamper {
namespace {

namespace fs = std::filesystem;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 2'000}, .seed = 0xc0de}};
  return kWorld;
}

/// Unique scratch directory per use, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("tamper_control_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

constexpr std::uint64_t kNsPerSec = 1'000'000'000;

control::OverloadConfig base_config(const obs::ManualClock& clock) {
  control::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.clock = &clock;
  return cfg;
}

/// Drive `n` observe() calls at the given queue depth.
void observe_n(control::OverloadController& c, std::uint32_t n,
               std::size_t depth, std::size_t capacity,
               std::size_t spool = 0) {
  for (std::uint32_t i = 0; i < n; ++i) c.observe({depth, capacity, spool});
}

/// Escalate the ladder by `rungs` using pure queue pressure.
void escalate(control::OverloadController& c, const control::OverloadConfig& cfg,
              int rungs) {
  for (int r = 0; r < rungs; ++r)
    observe_n(c, cfg.escalate_after, 100, 100);
}

// ---------------------------------------------------- controller units --

TEST(OverloadController, TokenBucketRefillsFromInjectedClock) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.admit_rate_per_sec = 10.0;
  cfg.admit_burst = 2.0;
  control::OverloadController c(cfg);

  EXPECT_TRUE(c.admit(false, 100).admit);
  EXPECT_TRUE(c.admit(false, 101).admit);
  const auto refused = c.admit(false, 102);
  EXPECT_FALSE(refused.admit);
  EXPECT_EQ(refused.reason, control::DropReason::kRateLimited);

  // 100 ms at 10 tokens/s refills exactly one token.
  clock.advance_ns(100'000'000);
  EXPECT_TRUE(c.admit(false, 103).admit);
  EXPECT_FALSE(c.admit(false, 104).admit);

  const auto s = c.stats();
  EXPECT_EQ(s.offered, 5u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rate_limited, 2u);
  EXPECT_EQ(s.offered, s.admitted + s.shed_total());
}

TEST(OverloadController, BucketCapsAtBurstAcrossLongIdle) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.admit_rate_per_sec = 10.0;
  cfg.admit_burst = 3.0;
  control::OverloadController c(cfg);
  // Drain, then idle for an hour: the bucket must hold burst, not 36k.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(c.admit(false, 1).admit);
  clock.advance_ns(3600 * kNsPerSec);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += c.admit(false, 2).admit ? 1 : 0;
  EXPECT_EQ(admitted, 3);
}

TEST(OverloadController, HysteresisEscalatesOneRungPerStreak) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  control::OverloadController c(cfg);

  observe_n(c, 3, 90, 100);  // above high watermark, but streak too short
  EXPECT_EQ(c.level(), control::Level::kNormal);
  observe_n(c, 1, 90, 100);
  EXPECT_EQ(c.level(), control::Level::kSampleDown);
  // The streak resets after a transition: three more are not enough.
  observe_n(c, 3, 90, 100);
  EXPECT_EQ(c.level(), control::Level::kSampleDown);
  observe_n(c, 1, 90, 100);
  EXPECT_EQ(c.level(), control::Level::kEmbryonicShed);
  EXPECT_EQ(c.stats().escalations, 2u);
  EXPECT_EQ(c.stats().peak_level, control::Level::kEmbryonicShed);
}

TEST(OverloadController, CalmStreakDeescalatesOneRung) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  cfg.deescalate_after = 6;
  control::OverloadController c(cfg);
  escalate(c, cfg, 2);
  ASSERT_EQ(c.level(), control::Level::kEmbryonicShed);

  observe_n(c, 5, 10, 100);  // below low watermark, streak too short
  EXPECT_EQ(c.level(), control::Level::kEmbryonicShed);
  observe_n(c, 1, 10, 100);
  EXPECT_EQ(c.level(), control::Level::kSampleDown);
  EXPECT_EQ(c.stats().deescalations, 1u);
  // Peak level is sticky.
  EXPECT_EQ(c.stats().peak_level, control::Level::kEmbryonicShed);
}

TEST(OverloadController, MidBandHoldsLevelAndResetsStreaks) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  cfg.deescalate_after = 4;
  control::OverloadController c(cfg);
  escalate(c, cfg, 1);
  ASSERT_EQ(c.level(), control::Level::kSampleDown);

  // Between the watermarks (40%..75% of 100): hysteresis holds, and the
  // interleaved mid-band samples keep resetting both streaks.
  for (int i = 0; i < 50; ++i) {
    c.observe({90, 100, 0});
    c.observe({60, 100, 0});
    c.observe({10, 100, 0});
    c.observe({60, 100, 0});
  }
  EXPECT_EQ(c.level(), control::Level::kSampleDown);
  EXPECT_EQ(c.stats().escalations, 1u);
  EXPECT_EQ(c.stats().deescalations, 0u);
}

TEST(OverloadController, SpoolDepthAlsoCountsAsPressure) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 3;
  cfg.spool_high_watermark = 8;
  control::OverloadController c(cfg);
  // Queue empty, but the emitter spool is filling: still pressure.
  observe_n(c, 3, 0, 100, /*spool=*/8);
  EXPECT_EQ(c.level(), control::Level::kSampleDown);
}

TEST(OverloadController, SampleDownStrideAdmitsOneInFour) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  control::OverloadController c(cfg);
  escalate(c, cfg, 1);
  ASSERT_EQ(c.level(), control::Level::kSampleDown);

  std::uint64_t admitted = 0;
  for (int i = 0; i < 16; ++i) admitted += c.admit(false, 1).admit ? 1 : 0;
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(c.stats().sampled_down, 12u);
}

TEST(OverloadController, EmbryonicShedRungRefusesBareSynsOnly) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  control::OverloadController c(cfg);
  escalate(c, cfg, 2);
  ASSERT_EQ(c.level(), control::Level::kEmbryonicShed);

  // Every embryonic offer is refused with the dedicated reason, no matter
  // where the stride counter stands.
  for (int i = 0; i < 16; ++i) {
    const auto d = c.admit(true, 7);
    EXPECT_FALSE(d.admit);
    EXPECT_EQ(d.reason, control::DropReason::kEmbryonicShed);
  }
  EXPECT_EQ(c.stats().embryonic_shed, 16u);
  // Non-embryonic flows still get through the rung's 1-in-8 stride.
  std::uint64_t admitted = 0;
  for (int i = 0; i < 32; ++i) admitted += c.admit(false, 8).admit ? 1 : 0;
  EXPECT_EQ(admitted, 4u);
}

TEST(OverloadController, SheddingRefusesEveryNewFlow) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 2;
  control::OverloadController c(cfg);
  escalate(c, cfg, 4);
  ASSERT_EQ(c.level(), control::Level::kShedding);

  for (int i = 0; i < 8; ++i) {
    const auto d = c.admit(i % 2 == 0, 9);
    EXPECT_FALSE(d.admit);
    EXPECT_EQ(d.reason, control::DropReason::kRejected);
    EXPECT_EQ(d.level, control::Level::kShedding);
  }
  const auto s = c.stats();
  EXPECT_EQ(s.rejected, 8u);
  EXPECT_EQ(s.admitted, 0u);
}

TEST(OverloadController, FirstShedTimestampStampedOnceForPartials) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.admit_rate_per_sec = 1.0;
  cfg.admit_burst = 1.0;
  control::OverloadController c(cfg);

  EXPECT_EQ(c.state().first_shed_ts_sec, 0);
  EXPECT_TRUE(c.admit(false, 500).admit);
  EXPECT_FALSE(c.admit(false, 512).admit);  // first shed: stamp 512
  EXPECT_FALSE(c.admit(false, 900).admit);  // later sheds keep the stamp
  const auto st = c.state();
  EXPECT_EQ(st.first_shed_ts_sec, 512);
  EXPECT_EQ(st.shed_samples, 2u);
}

TEST(OverloadController, BreakerTripsHalfOpensAndCloses) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.breaker_trip_after = 3;
  cfg.breaker_cooldown_ns = 1'000'000;
  control::OverloadController c(cfg);

  c.report_outcome(false);
  c.report_outcome(false);
  EXPECT_FALSE(c.breaker_open());  // two failures: not yet
  c.report_outcome(false);
  EXPECT_TRUE(c.breaker_open());
  EXPECT_EQ(c.stats().breaker_trips, 1u);

  // Past the cooldown the breaker half-opens for a probe.
  clock.advance_ns(cfg.breaker_cooldown_ns + 1);
  EXPECT_FALSE(c.breaker_open());
  // A failed probe re-trips immediately (no need for a fresh streak).
  c.report_outcome(false);
  EXPECT_TRUE(c.breaker_open());
  EXPECT_EQ(c.stats().breaker_trips, 2u);

  // A delivered probe closes it for good.
  clock.advance_ns(cfg.breaker_cooldown_ns + 1);
  c.report_outcome(true);
  EXPECT_FALSE(c.breaker_open());
  c.report_outcome(false);  // a single new failure must not re-trip
  EXPECT_FALSE(c.breaker_open());
}

TEST(OverloadController, MetricsMirrorStats) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 2;
  cfg.admit_rate_per_sec = 1.0;
  cfg.admit_burst = 1.0;
  control::OverloadController c(cfg);
  obs::Registry registry;
  c.set_obs(&registry);

  escalate(c, cfg, 1);
  (void)c.admit(false, 1);
  (void)c.admit(false, 2);
  c.report_outcome(false);
  c.count_report_skipped();

  const std::string text = registry.prometheus_text();
  for (const char* family :
       {"tamper_overload_level", "tamper_overload_peak_level",
        "tamper_overload_offered_total", "tamper_overload_admitted_total",
        "tamper_overload_shed_total", "tamper_overload_transitions_total",
        "tamper_overload_breaker_open", "tamper_overload_breaker_trips_total",
        "tamper_overload_reports_skipped_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("tamper_overload_level 1"), std::string::npos);
  EXPECT_NE(text.find("tamper_overload_offered_total 2"), std::string::npos);
  c.set_obs(nullptr);
}

// The trends catalog reads the two overload families from the registry by
// name — the one link between the catalog and the controller that the
// typed SeriesSource cannot check.
TEST(OverloadTrends, SampleTrendsRecordsLevelAndShedSeries) {
  obs::ManualClock clock;
  auto cfg = base_config(clock);
  cfg.escalate_after = 4;
  obs::Registry registry;  // outlives both collectors
  control::OverloadController controller(cfg);
  controller.set_obs(&registry);
  analysis::Pipeline pipeline(shared_world());
  pipeline.set_obs(&registry);

  escalate(controller, cfg, 1);
  for (int i = 0; i < 16; ++i) (void)controller.admit(false, 1);  // 12 sampled down
  registry.refresh();
  pipeline.sample_trends();

  const auto& series = pipeline.trends().series();
  const auto level = series.find(obs::SeriesKey{"overload_level", ""});
  ASSERT_NE(level, series.end());
  EXPECT_EQ(level->second.merge, obs::SeriesMerge::kMax);
  ASSERT_EQ(level->second.points.size(), 1u);
  EXPECT_EQ(level->second.points.begin()->second, 1.0);
  const auto shed = series.find(obs::SeriesKey{"overload_shed", ""});
  ASSERT_NE(shed, series.end());
  EXPECT_EQ(shed->second.merge, obs::SeriesMerge::kSum);
  ASSERT_EQ(shed->second.points.size(), 1u);
  EXPECT_EQ(shed->second.points.begin()->second, 12.0);
  controller.set_obs(nullptr);
}

// ------------------------------------------------------ generator units --

TEST(OverloadGenerator, SameSeedSameConfigIsByteIdentical) {
  fault::OverloadGenerator::Config gc;
  gc.scenario = fault::OverloadScenario::kSynFlood;
  gc.duration_sec = 2.0;
  fault::OverloadGenerator a(42, gc);
  fault::OverloadGenerator b(42, gc);
  const auto ea = a.run();
  const auto eb = b.run();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_GT(ea.size(), 0u);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_DOUBLE_EQ(ea[i].at, eb[i].at);
    ASSERT_EQ(ea[i].flood, eb[i].flood);
    ASSERT_EQ(ea[i].sample.packets.size(), eb[i].sample.packets.size());
    ASSERT_EQ(ea[i].sample.client_ip, eb[i].sample.client_ip);
    ASSERT_EQ(ea[i].sample.server_port, eb[i].sample.server_port);
  }
  // A different seed moves the schedule.
  fault::OverloadGenerator other(43, gc);
  const auto eo = other.run();
  bool differs = eo.size() != ea.size();
  for (std::size_t i = 0; !differs && i < ea.size(); ++i)
    differs = ea[i].at != eo[i].at || !(ea[i].sample.client_ip == eo[i].sample.client_ip);
  EXPECT_TRUE(differs);
}

TEST(OverloadGenerator, RateEnvelopeMatchesScenarioShape) {
  fault::OverloadGenerator::Config gc;
  gc.base_rate_per_sec = 100.0;
  gc.overload_factor = 10.0;
  gc.scenario = fault::OverloadScenario::kSustainedRate;
  fault::OverloadGenerator sustained(1, gc);
  EXPECT_DOUBLE_EQ(sustained.rate_at(3.0), 1000.0);

  gc.scenario = fault::OverloadScenario::kBurstTrain;
  gc.burst_period_sec = 5.0;
  gc.burst_length_sec = 1.0;
  gc.burst_factor = 20.0;
  fault::OverloadGenerator burst(1, gc);
  EXPECT_DOUBLE_EQ(burst.rate_at(0.5), 2000.0);   // inside the burst
  EXPECT_DOUBLE_EQ(burst.rate_at(3.0), 100.0);    // between bursts
  EXPECT_DOUBLE_EQ(burst.rate_at(5.5), 2000.0);   // next period's burst
}

TEST(OverloadGenerator, SynFloodEmitsEmbryonicDecoysAtTheConfiguredFraction) {
  fault::OverloadGenerator::Config gc;
  gc.scenario = fault::OverloadScenario::kSynFlood;
  gc.duration_sec = 3.0;
  gc.flood_fraction = 0.9;
  fault::OverloadGenerator gen(7, gc);
  const auto events = gen.run();
  ASSERT_GT(events.size(), 100u);
  std::uint64_t floods = 0;
  for (const auto& e : events) {
    if (!e.flood) continue;
    ++floods;
    // Decoys are bare SYNs: a single packet, never a full handshake.
    EXPECT_LE(e.sample.packets.size(), 1u);
  }
  EXPECT_EQ(floods, gen.stats().flood_events);
  const double fraction =
      static_cast<double>(floods) / static_cast<double>(events.size());
  EXPECT_NEAR(fraction, 0.9, 0.05);
}

TEST(OverloadGenerator, SlowSinkStallWindowsAreDeterministic) {
  fault::OverloadGenerator::Config gc;
  gc.scenario = fault::OverloadScenario::kSlowSink;
  gc.stall_period_sec = 10.0;
  gc.stall_length_sec = 4.0;
  fault::OverloadGenerator gen(3, gc);
  EXPECT_TRUE(gen.sink_stalled_at(0.5));
  EXPECT_TRUE(gen.sink_stalled_at(3.9));
  EXPECT_FALSE(gen.sink_stalled_at(4.1));
  EXPECT_FALSE(gen.sink_stalled_at(9.9));
  EXPECT_TRUE(gen.sink_stalled_at(10.5));

  gc.scenario = fault::OverloadScenario::kSustainedRate;
  fault::OverloadGenerator other(3, gc);
  EXPECT_FALSE(other.sink_stalled_at(0.5));  // only kSlowSink stalls
}

// -------------------------------------------------- seeded campaigns --

// Synchronous single-threaded ingest model. The real SupervisedService
// runs the same components across threads, where queue depth at observe()
// time depends on scheduling — fine for wiring tests below, useless for
// byte-identical twin runs. Here the queue is modeled: it fills on
// admission and drains at a fixed service rate as a function of the
// generator's simulated time, so every observe()/admit()/emit() is a pure
// function of (seed, scenario) and twin runs must agree to the byte.
struct CampaignOutcome {
  control::OverloadStats overload;
  service::ReportEmitter::Stats emitter;
  std::string metrics_text;
  std::string radar_json;
  std::size_t max_queue_depth = 0;
  std::size_t max_spool_depth = 0;
  std::uint64_t ingested = 0;
  std::uint64_t boundaries = 0;
  std::uint64_t delivered_boundaries = 0;
  // Longest run of failed report boundaries while the sink was healthy —
  // the staleness bound. Failures inside a forced stall window are the
  // fault being injected, not a controller defect, and are excused.
  int max_healthy_failed_streak = 0;
  bool final_delivered = false;
};

constexpr std::size_t kQueueCapacity = 128;
constexpr double kServiceRatePerSec = 250.0;
constexpr std::uint64_t kReportEverySamples = 75;

CampaignOutcome run_campaign(fault::OverloadScenario scenario,
                             std::uint64_t seed, const fs::path& spool_dir) {
  fault::OverloadGenerator::Config gc;
  gc.scenario = scenario;
  gc.duration_sec = 9.0;
  gc.base_rate_per_sec = 150.0;
  fault::OverloadGenerator gen(seed, gc);
  const auto events = gen.run();

  obs::ManualClock clock;
  control::OverloadConfig oc;
  oc.enabled = true;
  oc.clock = &clock;
  oc.admit_rate_per_sec = 400.0;
  oc.admit_burst = 40.0;
  oc.escalate_after = 256;
  oc.deescalate_after = 192;
  control::OverloadController controller(oc);
  obs::Registry registry;
  controller.set_obs(&registry);

  analysis::Pipeline pipeline(shared_world());

  service::MemorySink sink;
  double sim_now = 0.0;
  sink.fail_next = [&] { return gen.sink_stalled_at(sim_now); };
  service::RetryPolicy policy;
  policy.max_attempts = 1;  // fail -> spool immediately; keeps emits pure
  policy.max_spool_depth = 4;
  service::ReportEmitter emitter(sink, policy, spool_dir.string(), seed,
                                 [](double) {});

  CampaignOutcome out;
  double queue_depth = 0.0;
  double last_t = 0.0;
  std::size_t spool_cache = 0;
  int healthy_failed_streak = 0;
  std::uint64_t report_seq = 0;

  const auto emit_boundary = [&](bool force) {
    ++out.boundaries;
    bool delivered = false;
    if (!force && controller.breaker_open()) {
      controller.count_report_skipped();
    } else {
      delivered = emitter.emit("report-" + std::to_string(++report_seq));
      controller.report_outcome(delivered);
    }
    if (delivered) {
      ++out.delivered_boundaries;
      healthy_failed_streak = 0;
    } else if (gen.sink_stalled_at(sim_now)) {
      healthy_failed_streak = 0;  // excused: the injected outage window
    } else {
      ++healthy_failed_streak;
      out.max_healthy_failed_streak =
          std::max(out.max_healthy_failed_streak, healthy_failed_streak);
    }
    spool_cache = emitter.spool_depth();
    out.max_spool_depth = std::max(out.max_spool_depth, spool_cache);
    return delivered;
  };

  for (const auto& event : events) {
    sim_now = event.at;
    clock.set_ns(static_cast<std::uint64_t>(event.at * 1e9));
    queue_depth = std::max(
        0.0, queue_depth - (event.at - last_t) * kServiceRatePerSec);
    last_t = event.at;

    controller.observe({static_cast<std::size_t>(queue_depth), kQueueCapacity,
                        spool_cache});
    const bool embryonic = event.flood || event.sample.packets.size() <= 1;
    const auto decision = controller.admit(
        embryonic, static_cast<std::int64_t>(event.at) + 1);
    pipeline.set_evidence_only(
        !control::policy_for(decision.level).parse_app_proto);
    if (!decision.admit) continue;

    queue_depth = std::min(queue_depth + 1.0,
                           static_cast<double>(kQueueCapacity));
    out.max_queue_depth = std::max(
        out.max_queue_depth, static_cast<std::size_t>(queue_depth));
    pipeline.ingest(event.sample);
    ++out.ingested;
    if (out.ingested % kReportEverySamples == 0) emit_boundary(false);
  }

  // The final report is forced: stop() must flush no matter what the
  // breaker thinks, so end-of-run staleness is zero whenever the sink is
  // reachable at all.
  sim_now = gc.duration_sec;
  clock.set_ns(static_cast<std::uint64_t>(sim_now * 1e9));
  out.final_delivered = emit_boundary(true);

  const auto os = controller.stats();
  pipeline.record_overload_stats(os.rate_limited, os.sampled_down,
                                 os.embryonic_shed, os.rejected);
  const auto es = emitter.stats();
  pipeline.record_sink_stats(es.spool_replay_failures, es.spool_dropped);

  out.overload = os;
  out.emitter = es;
  out.metrics_text = registry.prometheus_text();
  std::ostringstream radar;
  analysis::ReportOptions options;
  options.min_country_connections = 0;
  analysis::write_radar_report(radar, pipeline, options);
  out.radar_json = radar.str();
  controller.set_obs(nullptr);
  return out;
}

/// The invariants every campaign must satisfy, regardless of scenario.
void check_campaign_invariants(const CampaignOutcome& out) {
  const auto& os = out.overload;
  // Accounting identity: every offered sample is admitted or counted shed.
  EXPECT_EQ(os.offered, os.admitted + os.shed_total());
  EXPECT_EQ(os.admitted, out.ingested);
  EXPECT_EQ(os.shed_total(), os.rate_limited + os.sampled_down +
                                 os.embryonic_shed + os.rejected);
  // Every shed is visible in the report's degraded_input section.
  if (os.shed_total() > 0) {
    EXPECT_NE(out.radar_json.find("\"admission_rate_limited\": " +
                                  std::to_string(os.rate_limited)),
              std::string::npos);
    EXPECT_NE(out.radar_json.find("\"admission_sampled_down\": " +
                                  std::to_string(os.sampled_down)),
              std::string::npos);
    EXPECT_NE(out.radar_json.find("\"admission_embryonic_shed\": " +
                                  std::to_string(os.embryonic_shed)),
              std::string::npos);
    EXPECT_NE(out.radar_json.find("\"admission_rejected\": " +
                                  std::to_string(os.rejected)),
              std::string::npos);
    EXPECT_GT(os.peak_level, control::Level::kNormal);
  }
  // Bounded memory: the modeled queue never exceeds capacity and the spool
  // honors its cap.
  EXPECT_LE(out.max_queue_depth, kQueueCapacity);
  EXPECT_LE(out.max_spool_depth, 4u);
  // Staleness: outside forced sink outages, no more than 2 consecutive
  // report intervals go undelivered, and the forced final flush covers the
  // tail whenever the sink is reachable.
  EXPECT_LE(out.max_healthy_failed_streak, 2);
  EXPECT_TRUE(out.final_delivered);
  // Every report boundary is accounted: delivered, spooled/lost by the
  // emitter, or counted as breaker-skipped. Nothing vanishes.
  EXPECT_EQ(out.boundaries, out.emitter.reports + os.reports_skipped);
  // Metrics mirror the controller exactly.
  EXPECT_NE(out.metrics_text.find("tamper_overload_offered_total " +
                                  std::to_string(os.offered)),
            std::string::npos);
  EXPECT_NE(out.metrics_text.find("tamper_overload_admitted_total " +
                                  std::to_string(os.admitted)),
            std::string::npos);
}

constexpr std::uint64_t kCampaignSeeds[] = {11, 23, 37, 41, 53, 67, 79, 97};

/// Run the full campaign twice per seed (twin runs) and apply both the
/// shared invariants and a scenario-specific check.
template <typename ScenarioCheck>
void run_scenario_campaigns(fault::OverloadScenario scenario,
                            const char* tag, ScenarioCheck&& check) {
  for (const std::uint64_t seed : kCampaignSeeds) {
    SCOPED_TRACE(std::string(tag) + " seed=" + std::to_string(seed));
    ScratchDir dir_a(std::string(tag) + "_a_" + std::to_string(seed));
    ScratchDir dir_b(std::string(tag) + "_b_" + std::to_string(seed));
    const CampaignOutcome a = run_campaign(scenario, seed, dir_a.path);
    const CampaignOutcome b = run_campaign(scenario, seed, dir_b.path);
    check_campaign_invariants(a);
    // Twin-seeded runs are byte-identical: same metrics snapshot, same
    // Radar JSON. This is the determinism contract the fleet merger and
    // the paper's reproducibility claims rest on.
    EXPECT_EQ(a.metrics_text, b.metrics_text);
    EXPECT_EQ(a.radar_json, b.radar_json);
    EXPECT_EQ(a.overload.offered, b.overload.offered);
    EXPECT_EQ(a.ingested, b.ingested);
    check(a);
  }
}

TEST(OverloadCampaigns, SustainedRateShedsAndClimbsTheLadder) {
  run_scenario_campaigns(
      fault::OverloadScenario::kSustainedRate, "sustained",
      [](const CampaignOutcome& out) {
        // 10x offered load against a 400/s bucket: heavy rate limiting and
        // at least one escalation driven by queue pressure.
        EXPECT_GT(out.overload.rate_limited, 0u);
        EXPECT_GE(out.overload.escalations, 1u);
        EXPECT_GE(out.overload.peak_level, control::Level::kSampleDown);
        EXPECT_GT(out.delivered_boundaries, 0u);
      });
}

TEST(OverloadCampaigns, BurstTrainEscalatesThenRecovers) {
  run_scenario_campaigns(
      fault::OverloadScenario::kBurstTrain, "burst",
      [](const CampaignOutcome& out) {
        // Bursts push the ladder up; the calm gaps bring it back down —
        // hysteresis must allow recovery, not just escalation.
        EXPECT_GE(out.overload.escalations, 1u);
        EXPECT_GE(out.overload.deescalations, 1u);
        EXPECT_GT(out.delivered_boundaries, 0u);
      });
}

TEST(OverloadCampaigns, SynFloodShedsEmbryonicDecoys) {
  run_scenario_campaigns(
      fault::OverloadScenario::kSynFlood, "synflood",
      [](const CampaignOutcome& out) {
        // Once the ladder reaches kEmbryonicShed the bare-SYN decoys are
        // refused with their own reason code.
        EXPECT_GE(out.overload.peak_level, control::Level::kEmbryonicShed);
        EXPECT_GT(out.overload.embryonic_shed, 0u);
        EXPECT_GT(out.delivered_boundaries, 0u);
      });
}

TEST(OverloadCampaigns, SlowSinkTripsBreakerAndRecovers) {
  run_scenario_campaigns(
      fault::OverloadScenario::kSlowSink, "slowsink",
      [](const CampaignOutcome& out) {
        // Moderate offered load, stalling sink: this campaign exercises
        // the breaker and the spool cap instead of the admission gate.
        EXPECT_EQ(out.overload.rate_limited, 0u);
        EXPECT_GE(out.overload.breaker_trips, 1u);
        EXPECT_GT(out.emitter.spooled, 0u);
        // Delivery resumed after the stall windows.
        EXPECT_GT(out.delivered_boundaries, 0u);
        EXPECT_TRUE(out.final_delivered);
      });
}

// ---------------------------------------------- service-level wiring --

std::vector<capture::ConnectionSample> overload_samples(std::size_t n) {
  fault::OverloadGenerator::Config gc;
  gc.scenario = fault::OverloadScenario::kSustainedRate;
  gc.duration_sec = 1.0;
  gc.base_rate_per_sec = static_cast<double>(n);
  gc.overload_factor = 2.0;
  fault::OverloadGenerator gen(0xabcd, gc);
  auto events = gen.run();
  std::vector<capture::ConnectionSample> out;
  out.reserve(n);
  for (auto& e : events) {
    if (out.size() == n) break;
    out.push_back(std::move(e.sample));
  }
  return out;
}

TEST(OverloadService, FrozenBucketShedsAndReportsDegradedInput) {
  obs::ManualClock clock;  // never advanced: the bucket cannot refill
  service::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.checkpoint_every_samples = 0;
  cfg.overload.enabled = true;
  cfg.overload.admit_rate_per_sec = 1000.0;
  cfg.overload.admit_burst = 8.0;
  cfg.overload.clock = &clock;
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());

  const auto samples = overload_samples(100);
  ASSERT_EQ(samples.size(), 100u);
  std::uint64_t accepted = 0;
  for (const auto& s : samples) accepted += svc.submit(s) ? 1 : 0;
  const auto summary = svc.stop();

  EXPECT_EQ(summary.overload.offered, 100u);
  EXPECT_EQ(summary.overload.admitted, 8u);
  EXPECT_EQ(summary.overload.rate_limited, 92u);
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(summary.ingested, 8u);

  // stop() folds the controller stats into DegradedStats, so the shed
  // load is visible in the Radar report next to the aggregates it thinned.
  std::ostringstream radar;
  analysis::ReportOptions options;
  options.min_country_connections = 0;
  analysis::write_radar_report(radar, svc.pipeline(), options);
  EXPECT_NE(radar.str().find("\"admission_rate_limited\": 92"),
            std::string::npos);
}

TEST(OverloadService, BreakerSkipsPeriodicReportsButFinalFlushStillRuns) {
  service::MemorySink sink;
  sink.fail_next = [] { return true; };  // the sink is down for the run
  service::RetryPolicy policy;
  policy.max_attempts = 1;
  service::ReportEmitter emitter(sink, policy, "", 1, [](double) {});

  service::ServiceConfig cfg;
  cfg.checkpoint_every_samples = 0;
  cfg.report_every_samples = 10;
  cfg.overload.enabled = true;
  cfg.overload.breaker_trip_after = 2;
  // A cooldown far longer than the run: once tripped, the breaker stays
  // open, so every later periodic report must be counted as skipped.
  cfg.overload.breaker_cooldown_ns = 3'600'000'000'000ULL;
  service::SupervisedService svc(shared_world(), cfg, &emitter);
  ASSERT_TRUE(svc.start());
  for (const auto& s : overload_samples(100)) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();

  EXPECT_EQ(summary.ingested, 100u);
  EXPECT_GE(summary.overload.breaker_trips, 1u);
  EXPECT_GE(summary.overload.reports_skipped, 1u);
  // The forced final report bypasses the breaker: it was attempted (and
  // lost to the dead sink with no spool dir — counted, not silent).
  const auto es = emitter.stats();
  EXPECT_GE(es.reports, 2u);
  EXPECT_GE(es.lost, 1u);
  // Skipped + emitted covers every report boundary the service crossed.
  EXPECT_EQ(es.reports + summary.overload.reports_skipped,
            11u);  // 10 periodic boundaries + the final flush
}

TEST(OverloadService, EvidenceOnlyRungDisablesAppProtoParsing) {
  obs::ManualClock clock;
  service::ServiceConfig cfg;
  cfg.queue_capacity = 16;
  cfg.checkpoint_every_samples = 0;
  cfg.overload.enabled = true;
  cfg.overload.clock = &clock;
  // Trip straight to kEvidenceOnly with spool pressure: the watermark
  // inputs come from submit(), so drive them via a fake spool cache is
  // not possible here — instead use a tiny escalate_after and saturate
  // the queue faster than the worker drains it.
  cfg.overload.escalate_after = 1;
  cfg.overload.high_watermark = 0.0;  // every observe is pressure
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  const auto samples = overload_samples(30);
  for (const auto& s : samples) (void)svc.submit(s);
  // With every observe a pressure tick and escalate_after=1, the ladder
  // tops out quickly; kEvidenceOnly and above turn DPI off.
  EXPECT_GE(svc.overload_level(), control::Level::kEvidenceOnly);
  EXPECT_TRUE(svc.pipeline().evidence_only());
  const auto summary = svc.stop();
  EXPECT_GE(summary.overload.escalations, 3u);
}

}  // namespace
}  // namespace tamper

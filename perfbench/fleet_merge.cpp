// Workload fleet_merge: one thread, the central merge path.
//
// Set-up routes the samples over 64 PoPs with world::AnycastMap, feeds one
// Pipeline per PoP, and encodes each PoP's cumulative state as a partial at
// 8 evenly spaced points of the stream (512 partials; epochs from
// latest_ts_sec, as the fleet derives them). A round delivers them point by
// point to a fresh Merger, re-delivering one PoP in eight per point as an
// exact duplicate and as a stale replay of its previous partial (the
// spool-replay shape), then calls merged_report() repeatedly and
// merged_state_image() once. The one-in-eight replay share is an assumed
// shape, not a measured one, so throughput counts only the partials the
// Merger accepted, over the time of the calls that accepted them.
#include <sstream>
#include <stdexcept>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "fleet/merger.h"
#include "fleet/partial.h"
#include "service/checkpoint.h"
#include "world/anycast.h"

namespace tamperbench {
namespace {

namespace fleet = tamper::fleet;
using tamper::common::EpochId;
using tamper::common::PopId;

constexpr std::size_t kSamples = 40'000;
constexpr std::uint32_t kPops = 64;
constexpr std::size_t kPoints = 8;
constexpr std::uint64_t kEpochSec = 3600;
constexpr int kReportsPerRound = 5;
/// EvidenceCollector's default per-bucket cap (per vantage).
constexpr std::size_t kEvidenceCap = 1000;

struct Inputs {
  std::unique_ptr<world::World> world;
  std::vector<capture::ConnectionSample> samples;
  /// The PoPs' final pipelines, for the evidence check.
  std::vector<std::unique_ptr<analysis::Pipeline>> pops;
  std::vector<std::vector<std::string>> partials;  ///< [point][pop]
  double encode_s = 0.0;
};

Inputs build_inputs(const Options& opts) {
  Inputs in;
  in.world = std::make_unique<world::World>();
  in.samples = samples_in_capture_order(
      generate(*in.world, opts.seed, opts.sized(kSamples, kPoints * kPops), /*keep_raw=*/false));
  const world::AnycastMap anycast(kPops, opts.seed);
  for (std::uint32_t p = 0; p < kPops; ++p)
    in.pops.push_back(std::make_unique<analysis::Pipeline>(*in.world));
  std::vector<std::uint64_t> sequence(kPops, 0);
  std::size_t next = 0;
  for (std::size_t point = 1; point <= kPoints; ++point) {
    const std::size_t end = in.samples.size() * point / kPoints;
    for (; next < end; ++next) {
      const auto pop = anycast.route(in.samples[next].client_ip);
      if (!pop) throw std::runtime_error("anycast routed a client nowhere");
      in.pops[pop->value()]->ingest(in.samples[next]);
      ++sequence[pop->value()];
    }
    auto& row = in.partials.emplace_back();
    for (std::uint32_t p = 0; p < kPops; ++p) {
      analysis::Pipeline& pipeline = *in.pops[p];
      pipeline.sample_trends();  // a PoP samples its ring at each report
      fleet::PartialHeader header;
      header.pop = PopId(p);
      header.sequence = sequence[p];
      const std::int64_t ts = pipeline.latest_ts_sec();
      header.epoch = EpochId(ts <= 0 ? 0 : static_cast<std::uint64_t>(ts) / kEpochSec);
      const auto t0 = Clock::now();
      row.push_back(fleet::encode_partial(header, pipeline));
      in.encode_s += seconds_since(t0);
    }
  }
  if (opts.corrupt == Corruption::kFlipPartial) {
    std::string& victim = in.partials[kPoints / 2][kPops / 2];
    victim[victim.size() / 2] = static_cast<char>(victim[victim.size() / 2] ^ 0x10);
  }
  return in;
}

/// The delivery stream of one round: every partial, point by point, plus a
/// duplicate and a stale replay for one PoP in eight at each later point.
std::vector<const std::string*> delivery_order(const Inputs& in) {
  std::vector<const std::string*> order;
  for (std::size_t point = 0; point < kPoints; ++point) {
    for (std::uint32_t p = 0; p < kPops; ++p) order.push_back(&in.partials[point][p]);
    if (point == 0) continue;
    for (std::uint32_t p = point % 8; p < kPops; p += 8) {
      order.push_back(&in.partials[point][p]);
      order.push_back(&in.partials[point - 1][p]);
    }
  }
  return order;
}

struct Round {
  double accepted_s = 0.0;  ///< time inside the deliver calls that merged a partial
  std::vector<double> report_ms;
  double state_image_ms = 0.0;
  std::size_t deliveries = 0;
  fleet::Merger::Stats stats;
  std::unique_ptr<fleet::Merger> merger;
};

/// Per-call deliver times of the traced rounds, split by disposition.
struct DeliverTimes {
  std::vector<double> all_ms;
  std::vector<double> replay_us;  ///< duplicates and stale replays
};

fleet::MergerConfig merger_config() {
  fleet::MergerConfig config;
  config.pops_expected = kPops;
  config.epoch_length_sec = kEpochSec;
  return config;
}

/// Delivers `order` to a fresh Merger, timing each call. Only the calls that
/// merged a partial count towards accepted_s, so the share of replays in the
/// stream does not set the throughput.
Round run_round(const Inputs& in, const std::vector<const std::string*>& order,
                DeliverTimes* traced) {
  Round r;
  r.merger = std::make_unique<fleet::Merger>(*in.world, merger_config());
  fleet::Merger& merger = *r.merger;
  std::uint64_t accepted = 0;
  for (const std::string* partial : order) {
    const auto t = Clock::now();
    merger.deliver(*partial);
    const double s = seconds_since(t);
    const bool merged = merger.stats().accepted != accepted;
    if (merged) {
      ++accepted;
      r.accepted_s += s;
    }
    if (traced != nullptr) {
      traced->all_ms.push_back(s * 1e3);
      if (!merged) traced->replay_us.push_back(s * 1e6);
    }
  }
  r.deliveries = order.size();
  for (int i = 0; i < kReportsPerRound; ++i) {
    const auto t = Clock::now();
    const std::string report = merger.merged_report();
    r.report_ms.push_back(seconds_since(t) * 1e3);
    if (report.empty()) throw std::runtime_error("empty merged report");
  }
  const auto t = Clock::now();
  const auto image = merger.merged_state_image();
  r.state_image_ms = seconds_since(t) * 1e3;
  r.stats = merger.stats();
  return r;
}

template <typename Part>
std::vector<std::uint8_t> bytes_of(const Part& part) {
  tamper::common::BinWriter w;
  part.snapshot(w);
  return w.take();
}

/// Output check: the merged aggregates equal a monolith pipeline over the
/// same samples, with two explicit exceptions. The trends ring is sampled
/// at per-PoP cadence, so it is left out. The evidence collector caps each
/// bucket at 1000 samples per vantage and merging does not re-apply the
/// cap, so a bucket that the monolith truncated legitimately holds more in
/// the merge; those buckets are compared with the direct fold of the PoPs'
/// pipelines instead, and every untruncated bucket with the monolith.
void check_merge(const Inputs& in, const Round& r, Result& result) {
  const auto merged = r.merger->merged_pipeline();
  analysis::Pipeline monolith(*in.world);
  for (const auto& s : in.samples) monolith.ingest(s);

  result.check(r.stats.rejected == 0,
               "fleet_merge: " + std::to_string(r.stats.rejected) + " partials rejected");
  result.check(r.stats.accepted + r.stats.duplicates + r.stats.stale + r.stats.rejected ==
                   r.stats.received,
               "fleet_merge: merger dispositions do not add up");
  result.check(bytes_of(merged->signatures()) == bytes_of(monolith.signatures()),
               "fleet_merge: signatures differ from the monolith");
  result.check(bytes_of(merged->asns()) == bytes_of(monolith.asns()),
               "fleet_merge: asns differ from the monolith");
  result.check(bytes_of(merged->timeseries()) == bytes_of(monolith.timeseries()),
               "fleet_merge: timeseries differ from the monolith");
  result.check(bytes_of(merged->version_protocol()) == bytes_of(monolith.version_protocol()),
               "fleet_merge: version_protocol differs from the monolith");
  result.check(bytes_of(merged->categories()) == bytes_of(monolith.categories()),
               "fleet_merge: categories differ from the monolith");
  result.check(bytes_of(merged->overlap()) == bytes_of(monolith.overlap()),
               "fleet_merge: overlap differs from the monolith");
  const auto& ms = merged->scanner_stats();
  const auto& os = monolith.scanner_stats();
  result.check(ms.connections == os.connections && ms.no_tcp_options == os.no_tcp_options &&
                   ms.high_ttl == os.high_ttl && ms.syn_rst_matches == os.syn_rst_matches &&
                   ms.syn_rst_zmap == os.syn_rst_zmap,
               "fleet_merge: scanner stats differ from the monolith");
  result.check(merged->degraded().total() == monolith.degraded().total() &&
                   merged->latest_ts_sec() == monolith.latest_ts_sec(),
               "fleet_merge: degraded counters or latest timestamp differ");

  analysis::Pipeline direct(*in.world);
  for (const auto& pop : in.pops) direct.merge_from(*pop);
  result.check(bytes_of(merged->evidence()) == bytes_of(direct.evidence()),
               "fleet_merge: evidence differs from the direct fold of the PoPs");
  std::size_t truncated = 0;
  for (std::size_t b = 0; b < analysis::EvidenceCollector::kBuckets; ++b) {
    // The collector stops a bucket once its TTL samples reach the cap.
    if (monolith.evidence().ttl_cdf(b).count() >= kEvidenceCap) {
      ++truncated;
      continue;
    }
    result.check(merged->evidence().ipid_cdf(b).sorted_samples() ==
                         monolith.evidence().ipid_cdf(b).sorted_samples() &&
                     merged->evidence().ttl_cdf(b).sorted_samples() ==
                         monolith.evidence().ttl_cdf(b).sorted_samples(),
                 "fleet_merge: untruncated evidence bucket " + std::to_string(b) +
                     " differs from the monolith");
  }
  result.info("fleet.evidence_buckets_truncated", static_cast<double>(truncated));

  const auto coverage = r.merger->coverage();
  std::uint64_t samples = 0;
  for (const auto& pop : coverage.pops) samples += pop.samples;
  result.check(samples == in.samples.size(), "fleet_merge: PoP sample counts do not add up");
  result.check(coverage.pops_reporting == kPops, "fleet_merge: not every PoP reported");
}

}  // namespace

void run_fleet_merge(const Options& opts, Result& result) {
  Inputs in = timed_setup(opts, result, [&] { return build_inputs(opts); });
  const auto order = delivery_order(in);
  std::size_t partial_bytes = 0;
  for (const auto& row : in.partials)
    for (const auto& p : row) partial_bytes += p.size();
  result.info("input.samples", static_cast<double>(in.samples.size()));
  result.info("input.partials", static_cast<double>(kPoints * kPops));
  result.info("input.deliveries_per_round", static_cast<double>(order.size()));
  result.info("input.partial_bytes", static_cast<double>(partial_bytes));

  // The first round warms the heap and is not timed; its merger is kept for
  // the output check.
  Throughput rate, traced_rate;
  std::vector<double> report_ms, image_ms;
  DeliverTimes deliver;
  Round first = run_round(in, order, nullptr);
  check_merge(in, first, result);
  reset_peak_rss();

  Round last;
  int index = 1;
  const auto start = Clock::now();
  do {
    const bool traced = opts.trace && index % 2 == 0;
    Round r = run_round(in, order, traced ? &deliver : nullptr);
    result.attempt(r.deliveries);
    (traced ? traced_rate : rate).add(static_cast<double>(r.stats.accepted), r.accepted_s);
    report_ms.insert(report_ms.end(), r.report_ms.begin(), r.report_ms.end());
    image_ms.push_back(r.state_image_ms);
    last = std::move(r);
    ++index;
  } while (seconds_since(start) < opts.seconds * (opts.trace ? 0.5 : 1.0) ||
           index <= (opts.trace ? 4 : 3));
  const double peak_rss = peak_rss_mb();
  result.info("fleet.rounds", index - 1);
  result.info("report_p50_ms.samples", static_cast<double>(report_ms.size()));

  const auto image = first.merger->merged_state_image();
  if (!opts.trace) {
    result.metric("throughput_per_s", rate.per_s(), "1/s");
    result.metric("report_p50_ms", median(report_ms), "ms");
    result.metric("state_bytes_per_conn",
                  static_cast<double>(image.size()) / static_cast<double>(in.samples.size()), "B");
    result.metric("peak_rss_mb", peak_rss, "MB");
    return;
  }

  const double n_partials = static_cast<double>(kPoints * kPops);
  result.metric("fleet.encode_ms", in.encode_s * 1e3 / n_partials, "ms");
  result.metric("fleet.partial_bytes_mean", static_cast<double>(partial_bytes) / n_partials, "B");
  // Codec passes over every partial: the header peek and the full decode.
  double peek_s = 0.0, decode_s = 0.0;
  for (const auto& row : in.partials) {
    for (const auto& partial : row) {
      auto t = Clock::now();
      const auto peek = fleet::peek_partial(partial);
      peek_s += seconds_since(t);
      analysis::Pipeline scratch(*in.world);
      t = Clock::now();
      const auto full = fleet::decode_partial(partial, scratch);
      decode_s += seconds_since(t);
      result.check(peek.ok == full.ok, "fleet_merge: peek and decode disagree on a partial");
    }
  }
  result.metric("fleet.peek_us", peek_s * 1e6 / n_partials, "us");
  result.metric("fleet.decode_ms", decode_s * 1e3 / n_partials, "ms");
  double deliver_sum = 0.0;
  for (const double ms : deliver.all_ms) deliver_sum += ms;
  result.metric("fleet.deliver_ms", deliver_sum / static_cast<double>(deliver.all_ms.size()),
                "ms");
  result.metric("fleet.replay_deliver_us", median(deliver.replay_us), "us");
  const auto& stats = last.stats;
  result.metric("fleet.accepted", static_cast<double>(stats.accepted), "count");
  result.metric("fleet.duplicates", static_cast<double>(stats.duplicates), "count");
  result.metric("fleet.stale", static_cast<double>(stats.stale), "count");
  result.metric("fleet.rejected", static_cast<double>(stats.rejected), "count");
  result.metric("fleet.useful_ratio",
                static_cast<double>(stats.accepted) / static_cast<double>(stats.received), "ratio");

  // The parts of merged_report(), each timed over the same merger state.
  std::vector<double> fold_ms, coverage_us, trends_ms, render_ms;
  std::size_t report_bytes = 0;
  std::unique_ptr<analysis::Pipeline> merged;
  for (int i = 0; i < kReportsPerRound; ++i) {
    auto t = Clock::now();
    merged = last.merger->merged_pipeline();
    fold_ms.push_back(seconds_since(t) * 1e3);
    t = Clock::now();
    const auto coverage = last.merger->coverage();
    coverage_us.push_back(seconds_since(t) * 1e6);
    t = Clock::now();
    const auto trends = last.merger->fleet_trends(*merged, coverage);
    trends_ms.push_back(seconds_since(t) * 1e3);
    analysis::ReportOptions options;
    options.fleet = &coverage;
    options.trend_epochs = &trends.epochs;
    options.trend_anomalies = &trends.scan.events;
    t = Clock::now();
    std::ostringstream out;
    analysis::write_radar_report(out, *merged, options);
    render_ms.push_back(seconds_since(t) * 1e3);
    report_bytes = out.str().size();
  }
  result.metric("fleet.fold_ms", median(fold_ms), "ms");
  result.metric("fleet.coverage_us", median(coverage_us), "us");
  result.metric("fleet.trends_ms", median(trends_ms), "ms");
  result.metric("fleet.state_image_ms", median(image_ms), "ms");
  result.metric("fleet.report_calls", static_cast<double>(report_ms.size()), "count");
  result.metric("analysis.report_ms", median(render_ms), "ms");
  result.metric("analysis.report_bytes", static_cast<double>(report_bytes), "B");
  result.metric("bench.trace_overhead_frac", rate.per_s() / traced_rate.per_s() - 1.0, "frac");
  record_state_bytes(*merged, result);
  measure_ingest_layers(*in.world, in.samples, opts.seconds * 0.2, result);
}

}  // namespace tamperbench

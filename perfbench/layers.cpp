// Decomposition of Pipeline::ingest into its public parts, and the obs
// instrumentation overhead as an interval. Each part is timed as a whole
// pass over the same samples, so timer reads never land inside the work.
#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "analysis/aggregates.h"
#include "analysis/evidence.h"
#include "analysis/pipeline.h"
#include "analysis/record.h"
#include "appproto/dpi.h"
#include "bench.h"
#include "core/classifier.h"
#include "core/scanner.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tamperbench {
namespace {

namespace core = tamper::core;
namespace obs = tamper::obs;

/// Keeps a computed value observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Wall time of one call of `pass`, in ns per item.
double ns_per_item(std::size_t items, const std::function<void()>& pass) {
  const auto t0 = Clock::now();
  pass();
  return seconds_since(t0) * 1e9 / static_cast<double>(items);
}

/// One pass of `add` over every item into a fresh aggregator, in ns per
/// item. Only the `add` loop is timed; the aggregator's snapshot size feeds
/// g_sink afterwards, untimed.
template <typename Aggregator, typename Make, typename Add>
double add_pass(std::size_t items, const Make& make, const Add& add) {
  Aggregator agg = make();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < items; ++i) add(agg, i);
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(items);
  tamper::common::BinWriter w;
  agg.snapshot(w);
  g_sink = g_sink + w.bytes().size();
  return ns;
}

template <typename Aggregator>
double agg_pass(const std::vector<analysis::ConnectionRecord>& records) {
  return add_pass<Aggregator>(records.size(), [] { return Aggregator{}; },
                              [&](Aggregator& agg, std::size_t i) { agg.add(records[i]); });
}

/// A CategoryAggregator that looks domains up in `world`, as Pipeline's does.
analysis::CategoryAggregator categories_of(const world::World& world) {
  return analysis::CategoryAggregator(
      [&world](const std::string& domain) -> std::optional<world::Category> {
        const auto rank = world.domains().rank_of(domain);
        if (!rank) return std::nullopt;
        return world.domains().by_rank(*rank).category;
      });
}

/// Ingest rebuilt from its public parts, called in Pipeline::ingest's order
/// in one pass over `samples`: analyze, the seven aggregator adds, the
/// scanner indicators. Only the pass is timed, in ns per sample. Against
/// the parts timed alone it shows the cost of running them interleaved;
/// against Pipeline::ingest, what ingest does beyond its parts.
double reassembled_pass(const world::World& world,
                        const std::vector<capture::ConnectionSample>& samples,
                        const core::SignatureClassifier& classifier) {
  analysis::SignatureMatrix signatures;
  analysis::AsnAggregator asns;
  analysis::TimeSeries timeseries;
  analysis::VersionProtocolAggregator version_protocol;
  analysis::CategoryAggregator categories = categories_of(world);
  analysis::OverlapMatrix overlap;
  analysis::EvidenceCollector evidence;
  const auto t0 = Clock::now();
  for (const auto& s : samples) {
    if (s.packets.empty()) continue;  // Pipeline::ingest only counts these
    const analysis::ConnectionRecord record = analysis::analyze(s, world.geo(), classifier);
    signatures.add(record);
    asns.add(record);
    timeseries.add(record);
    version_protocol.add(record);
    categories.add(record);
    overlap.add(record);
    evidence.add(s, record);
    g_sink = g_sink + core::scanner_indicators(s).high_ttl;
  }
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(samples.size());
  g_sink = g_sink + signatures.total_connections();
  return ns;
}

/// Wall time of one ingest pass over `samples` into a fresh pipeline, with
/// the given instrumentation attached.
double ingest_pass(const world::World& world,
                   const std::vector<capture::ConnectionSample>& samples,
                   obs::Registry* registry, obs::Tracer* tracer) {
  analysis::Pipeline pipeline(world);
  if (registry != nullptr) pipeline.set_obs(registry, tracer);
  const auto t0 = Clock::now();
  for (const auto& s : samples) pipeline.ingest(s);
  return seconds_since(t0);
}

}  // namespace

void measure_ingest_layers(const world::World& world,
                           const std::vector<capture::ConnectionSample>& samples,
                           double budget_s, Result& result) {
  if (samples.empty()) return;
  const std::size_t n = samples.size();
  const core::SignatureClassifier classifier;
  const core::ClassifierConfig config;
  std::vector<analysis::ConnectionRecord> records;
  records.reserve(n);
  for (const auto& s : samples) records.push_back(analysis::analyze(s, world.geo(), classifier));

  // Size the repetitions from one bare pass so the whole measurement fits
  // the budget: ingest, its parts and the reassembled pass cost about four
  // ingest passes per rep, the overhead interval three.
  const double one_pass = ingest_pass(world, samples, nullptr, nullptr);
  const int reps = std::clamp(static_cast<int>(budget_s / (7.0 * std::max(one_pass, 1e-6))),
                              3, 15);

  // Every rep runs every pass once, in turn, so the CPU speed drifts of a
  // shared host land on all passes alike; each metric is its median pass.
  const std::vector<std::pair<std::string, std::function<double()>>> passes = {
      {"analysis.ingest_ns_per_conn",
       [&] { return ingest_pass(world, samples, nullptr, nullptr) * 1e9 / static_cast<double>(n); }},
      {"analysis.ingest_reassembled_ns_per_conn",
       [&] { return reassembled_pass(world, samples, classifier); }},
      {"analysis.analyze_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples)
             g_sink = g_sink + static_cast<std::uint64_t>(
                                   analysis::analyze(s, world.geo(), classifier).first_ts_sec);
         });
       }},
      {"core.classify_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples)
             g_sink = g_sink + classifier.classify(s).signature.has_value();
         });
       }},
      {"core.order_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples) g_sink = g_sink + core::order_packets(s, config).size();
         });
       }},
      {"analysis.evidence_deltas_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (std::size_t i = 0; i < n; ++i)
             g_sink = g_sink +
                      analysis::evidence_deltas(samples[i], records[i].classification, config)
                          .max_ttl_delta.value_or(0);
         });
       }},
      {"world.geo_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples) {
             g_sink = g_sink + world.geo().lookup_country(s.client_ip).has_value();
             g_sink = g_sink + world.geo().lookup_asn(s.client_ip).has_value();
           }
         });
       }},
      {"appproto.dpi_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples)
             if (const auto* payload = s.first_data_payload())
               g_sink = g_sink + static_cast<std::uint64_t>(
                                     tamper::appproto::inspect_payload(*payload).protocol);
         });
       }},
      {"core.scanner_ns_per_conn",
       [&] {
         return ns_per_item(n, [&] {
           for (const auto& s : samples) g_sink = g_sink + core::scanner_indicators(s).high_ttl;
         });
       }},
      {"analysis.agg.signatures_ns_per_conn",
       [&] { return agg_pass<analysis::SignatureMatrix>(records); }},
      {"analysis.agg.asns_ns_per_conn", [&] { return agg_pass<analysis::AsnAggregator>(records); }},
      {"analysis.agg.timeseries_ns_per_conn",
       [&] { return agg_pass<analysis::TimeSeries>(records); }},
      {"analysis.agg.version_protocol_ns_per_conn",
       [&] { return agg_pass<analysis::VersionProtocolAggregator>(records); }},
      {"analysis.agg.categories_ns_per_conn",
       [&] {
         return add_pass<analysis::CategoryAggregator>(
             n, [&] { return categories_of(world); },
             [&](analysis::CategoryAggregator& agg, std::size_t i) { agg.add(records[i]); });
       }},
      {"analysis.agg.overlap_ns_per_conn",
       [&] { return agg_pass<analysis::OverlapMatrix>(records); }},
      {"analysis.agg.evidence_ns_per_conn",
       [&] {
         return add_pass<analysis::EvidenceCollector>(
             n, [] { return analysis::EvidenceCollector{}; },
             [&](analysis::EvidenceCollector& evidence, std::size_t i) {
               evidence.add(samples[i], records[i]);
             });
       }},
  };
  std::map<std::string, std::vector<double>> times;
  for (int i = 0; i < reps; ++i)
    for (const auto& [name, pass] : passes) times[name].push_back(pass());
  std::map<std::string, double> ns;
  for (const auto& [name, values] : times) {
    ns[name] = median(values);
    result.metric(name, ns[name], "ns");
  }
  // classify() orders the packets itself and EvidenceCollector::add computes
  // the deltas itself, so order and evidence_deltas are nested inside other
  // parts and stay out of the sum. So is analyze(), which wraps classify,
  // geo and dpi: what it adds beyond them is the record assembly no part
  // covers. The reassembled pass is the parts run interleaved, not a part.
  double parts = 0.0;
  for (const auto& [name, value] : ns)
    if (name.rfind("analysis.agg.", 0) == 0 || name == "core.classify_ns_per_conn" ||
        name == "world.geo_ns_per_conn" || name == "appproto.dpi_ns_per_conn" ||
        name == "core.scanner_ns_per_conn")
      parts += value;
  result.metric("analysis.ingest_parts_ratio", parts / ns["analysis.ingest_ns_per_conn"],
                "ratio");
  result.info("layers.reps", reps);
  result.info("layers.samples", static_cast<double>(n));

  // Instrumentation overhead: bare, metrics-only and metrics+trace ingest
  // passes interleaved, one overhead ratio per round, median and IQR.
  std::vector<double> metrics_over, trace_over;
  for (int i = 0; i < reps; ++i) {
    const double bare = ingest_pass(world, samples, nullptr, nullptr);
    obs::Registry metrics_registry;
    const double with_metrics = ingest_pass(world, samples, &metrics_registry, nullptr);
    obs::Registry trace_registry;
    obs::Tracer tracer(obs::monotonic_clock());
    const double with_trace = ingest_pass(world, samples, &trace_registry, &tracer);
    metrics_over.push_back(with_metrics / bare - 1.0);
    trace_over.push_back(with_trace / bare - 1.0);
  }
  result.metric("obs.metrics_overhead_frac", median(metrics_over), "frac");
  result.metric("obs.metrics_overhead_iqr",
                quantile(metrics_over, 0.75) - quantile(metrics_over, 0.25), "frac");
  result.metric("obs.trace_overhead_frac", median(trace_over), "frac");
  result.metric("obs.trace_overhead_iqr",
                quantile(trace_over, 0.75) - quantile(trace_over, 0.25), "frac");
}

void record_state_bytes(const analysis::Pipeline& pipeline, Result& result) {
  const auto size_of = [](const auto& part) {
    tamper::common::BinWriter w;
    part.snapshot(w);
    return static_cast<double>(w.bytes().size());
  };
  result.metric("analysis.state_bytes.signatures", size_of(pipeline.signatures()), "B");
  result.metric("analysis.state_bytes.asns", size_of(pipeline.asns()), "B");
  result.metric("analysis.state_bytes.timeseries", size_of(pipeline.timeseries()), "B");
  result.metric("analysis.state_bytes.version_protocol", size_of(pipeline.version_protocol()),
                "B");
  result.metric("analysis.state_bytes.categories", size_of(pipeline.categories()), "B");
  result.metric("analysis.state_bytes.overlap", size_of(pipeline.overlap()), "B");
  result.metric("analysis.state_bytes.evidence", size_of(pipeline.evidence()), "B");
  result.metric("analysis.state_bytes.trends", size_of(pipeline.trends()), "B");
}

}  // namespace tamperbench

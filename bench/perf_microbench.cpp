// Engineering microbenchmarks (google-benchmark): the classifier and its
// substrates must keep up with CDN-scale sampling (the paper's deployment
// samples from 45M requests/second). One binary, standard --benchmark_*
// flags apply; every run also writes a machine-readable BENCH_ingest.json
// (override with --bench-json=PATH) so the perf trajectory is a diffable
// artifact, not a scrollback memory. bench/BENCH_ingest.json holds the
// checked-in seed run to compare against.
//
// The JSON also carries a "derived" block — classify-latency p50/p99 over
// the corpus and the mean logged bytes per connection — so the tail (not
// just the mean google-benchmark reports) and the memory footprint of the
// record format are part of the diffable trajectory.
//
// --bench-compare=PATH [--bench-threshold=PCT] re-reads a previous run
// (e.g. the checked-in seed) after this one and exits nonzero if any
// benchmark's throughput regressed by more than PCT percent (default 15) —
// the CI bench-compare gate.
#include <benchmark/benchmark.h>

#include <algorithm>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/evidence.h"
#include "analysis/pipeline.h"
#include "appproto/http.h"
#include "appproto/tls.h"
#include "capture/sampler.h"
#include "common/bounded_queue.h"
#include "common/json.h"
#include "core/classifier.h"
#include "net/pcap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "world/traffic.h"

using namespace tamper;

namespace {

/// A shared corpus of realistic samples (mix of clean and tampered).
const std::vector<capture::ConnectionSample>& corpus() {
  static const std::vector<capture::ConnectionSample> kCorpus = [] {
    world::World world;
    world::TrafficConfig traffic;
    traffic.seed = 7;
    world::TrafficGenerator generator(world, traffic);
    std::vector<capture::ConnectionSample> samples;
    samples.reserve(4096);
    generator.generate(4096, [&](world::LabeledConnection&& conn) {
      samples.push_back(std::move(conn.sample));
    });
    return samples;
  }();
  return kCorpus;
}

void BM_ClassifySample(benchmark::State& state) {
  const auto& samples = corpus();
  core::SignatureClassifier classifier;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(samples[i]));
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifySample);

void BM_OrderPackets(benchmark::State& state) {
  const auto& samples = corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::order_packets(samples[i]));
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OrderPackets);

void BM_EvidenceDeltas(benchmark::State& state) {
  const auto& samples = corpus();
  core::SignatureClassifier classifier;
  std::vector<core::Classification> classes;
  classes.reserve(samples.size());
  for (const auto& sample : samples) classes.push_back(classifier.classify(sample));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::evidence_deltas(samples[i], classes[i]));
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvidenceDeltas);

void BM_BuildClientHello(benchmark::State& state) {
  common::Rng rng(11);
  appproto::ClientHelloSpec spec;
  spec.sni = "brightmedia12345.com";
  for (auto _ : state) benchmark::DoNotOptimize(appproto::build_client_hello(spec, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BuildClientHello);

void BM_ParseClientHelloSni(benchmark::State& state) {
  common::Rng rng(11);
  appproto::ClientHelloSpec spec;
  spec.sni = "brightmedia12345.com";
  const auto hello = appproto::build_client_hello(spec, rng);
  for (auto _ : state) benchmark::DoNotOptimize(appproto::extract_sni(hello));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseClientHelloSni);

void BM_ParseHttpHost(benchmark::State& state) {
  appproto::HttpRequestSpec spec;
  spec.host = "brightmedia12345.com";
  const auto request = appproto::build_http_request(spec);
  for (auto _ : state) benchmark::DoNotOptimize(appproto::extract_host(request));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseHttpHost);

void BM_PacketSerializeParse(benchmark::State& state) {
  net::Packet pkt = net::make_tcp_packet(net::IpAddress::v4(11, 2, 3, 4), 31337,
                                         net::IpAddress::v4(198, 18, 0, 1), 443,
                                         net::tcpflag::kPsh | net::tcpflag::kAck, 1000,
                                         2000, std::vector<std::uint8_t>(200, 0x41));
  pkt.tcp.options.push_back(net::TcpOption::timestamps_opt(1, 2));
  for (auto _ : state) {
    const auto wire = net::serialize(pkt);
    benchmark::DoNotOptimize(net::parse(wire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketSerializeParse);

void BM_SamplerIngest(benchmark::State& state) {
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 10'000;
  capture::ConnectionSampler sampler(config);
  common::Rng rng(3);
  net::Packet syn = net::make_tcp_packet(net::IpAddress::v4(11, 2, 3, 4), 31337,
                                         net::IpAddress::v4(198, 18, 0, 1), 443,
                                         net::tcpflag::kSyn, 1, 0);
  double now = 0.0;
  for (auto _ : state) {
    syn.src = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    syn.tcp.src_port = static_cast<std::uint16_t>(rng.below(65536));
    now += 1e-5;
    sampler.on_packet(syn, now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerIngest);

void BM_GenerateSession(benchmark::State& state) {
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 13;
  world::TrafficGenerator generator(world, traffic);
  for (auto _ : state) benchmark::DoNotOptimize(generator.generate_one());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GenerateSession);

void BM_PcapRoundtrip(benchmark::State& state) {
  const auto& samples = corpus();
  // Build a small pcap in memory from reconstructed packets.
  std::ostringstream out;
  net::PcapWriter writer(out);
  net::Packet pkt = net::make_tcp_packet(net::IpAddress::v4(11, 2, 3, 4), 31337,
                                         net::IpAddress::v4(198, 18, 0, 1), 443,
                                         net::tcpflag::kSyn, 1, 0);
  for (int i = 0; i < 64; ++i) writer.write(pkt);
  const std::string blob = out.str();
  (void)samples;
  for (auto _ : state) {
    std::istringstream in(blob);
    net::PcapReader reader(in);
    std::size_t count = 0;
    while (reader.next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PcapRoundtrip);

/// Shared world for whole-pipeline benches (the pipeline only borrows it).
const world::World& bench_world() {
  static const world::World kWorld;
  return kWorld;
}

// Instrumentation overhead contract (DESIGN.md §9): metrics-only
// instrumentation — what a default `tamperscope watch` run carries — must
// stay within ~2% of the bare pipeline on the classify hot path (one
// relaxed fetch_add per sample, latency histogram sampled 1-in-64). The
// Traced variant adds the opt-in --trace-out span recording (two clock
// reads plus a ring-buffer append per stage) and is expected to cost
// noticeably more; it is benched so that cost stays a measured, documented
// number rather than a surprise. Compare with
// --benchmark_filter=PipelineIngest.
void BM_PipelineIngestBare(benchmark::State& state) {
  const auto& samples = corpus();
  analysis::Pipeline pipeline(bench_world());
  std::size_t i = 0;
  for (auto _ : state) {
    pipeline.ingest(samples[i]);
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineIngestBare);

void BM_PipelineIngestMetrics(benchmark::State& state) {
  const auto& samples = corpus();
  // The registry is declared before the pipeline: it must outlive it
  // (~Pipeline detaches its registry collector).
  obs::Registry registry;
  analysis::Pipeline pipeline(bench_world());
  pipeline.set_obs(&registry);
  std::size_t i = 0;
  for (auto _ : state) {
    pipeline.ingest(samples[i]);
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineIngestMetrics);

// Rollup sampling overhead: the metrics pipeline plus the longitudinal
// trends rollup (pipeline.sample_trends) at a checkpoint-boundary cadence.
// The telemetry-plane contract (DESIGN.md §12): amortized over the samples
// between boundaries, rollup sampling must stay within ~2% of the
// metrics-instrumented pipeline — compare against BM_PipelineIngestMetrics
// under --bench-compare.
void BM_PipelineIngestRollup(benchmark::State& state) {
  const auto& samples = corpus();
  obs::Registry registry;
  analysis::Pipeline pipeline(bench_world());
  pipeline.set_obs(&registry);
  // Boundary cadence: one rollup per 512 ingested samples, the same order
  // of magnitude as a `tamperscope watch --checkpoint-every 500` run.
  constexpr std::size_t kRollupEvery = 512;
  std::size_t i = 0;
  std::size_t since_rollup = 0;
  for (auto _ : state) {
    pipeline.ingest(samples[i]);
    i = (i + 1) % samples.size();
    if (++since_rollup == kRollupEvery) {
      pipeline.sample_trends();
      since_rollup = 0;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineIngestRollup);

void BM_PipelineIngestTraced(benchmark::State& state) {
  const auto& samples = corpus();
  obs::Registry registry;
  obs::Tracer tracer(obs::monotonic_clock());
  analysis::Pipeline pipeline(bench_world());
  pipeline.set_obs(&registry, &tracer);
  std::size_t i = 0;
  for (auto _ : state) {
    pipeline.ingest(samples[i]);
    i = (i + 1) % samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineIngestTraced);

// The service queue sits on the hot path between capture and analysis, so
// its per-item cost under producer contention is a first-class number.
// Arg = producer thread count; one consumer drains throughout.
void BM_BoundedQueueThroughput(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    common::BoundedQueue<std::uint64_t> queue(1024, common::QueuePolicy::kBlock);
    constexpr std::uint64_t kPerProducer = 20'000;
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&queue, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i)
          queue.push(static_cast<std::uint64_t>(p) << 32 | i);
      });
    }
    std::uint64_t sum = 0;
    std::uint64_t remaining = kPerProducer * static_cast<std::uint64_t>(producers);
    while (remaining > 0) {
      if (auto item = queue.pop_wait(std::chrono::milliseconds(100))) {
        sum += *item;
        --remaining;
      }
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kPerProducer) * producers);
  }
}
BENCHMARK(BM_BoundedQueueThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Shed-policy overload: a queue far too small for the offered load, with
// half the items marked low-value. Measures push-side cost when every push
// beyond capacity must select and evict a victim.
void BM_BoundedQueueShedOverload(benchmark::State& state) {
  common::BoundedQueue<std::uint64_t> queue(
      64, common::QueuePolicy::kShed, [](const std::uint64_t& v) { return (v & 1) == 0; });
  std::uint64_t i = 0;
  for (auto _ : state) {
    queue.push(i++);
    if ((i & 0xff) == 0)  // occasional consumer keeps the deque churning
      while (queue.try_pop()) {
      }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BoundedQueueShedOverload);

/// Post-run derived statistics: the classify latency TAIL (google-benchmark
/// reports means; tampering detection at CDN scale lives and dies by p99)
/// and the logged byte footprint of the record format. All inputs are the
/// seeded corpus, and time comes from the obs clock seam (lint R1).
struct DerivedStats {
  double classify_p50_ns = 0;
  double classify_p99_ns = 0;
  double bytes_per_connection = 0;
};

DerivedStats measure_derived() {
  const auto& samples = corpus();
  DerivedStats d;
  if (samples.empty()) return d;

  core::SignatureClassifier classifier;
  const obs::Clock& clock = obs::monotonic_clock();
  std::vector<double> latencies;
  constexpr int kRounds = 8;  // enough calls that p99 indexes a real tail
  latencies.reserve(samples.size() * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& sample : samples) {
      const std::uint64_t t0 = clock.now_ns();
      benchmark::DoNotOptimize(classifier.classify(sample));
      latencies.push_back(static_cast<double>(clock.now_ns() - t0));
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    const std::size_t i = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
    return latencies[i];
  };
  d.classify_p50_ns = at(0.50);
  d.classify_p99_ns = at(0.99);

  // The logged record footprint (capture/sample.h): per connection the
  // 5-tuple + observation end (40 bytes), per packet the fixed observed
  // fields (25 bytes), plus the two retained payloads (first data packet,
  // first SYN).
  constexpr std::uint64_t kConnectionOverhead = 40;
  constexpr std::uint64_t kPacketOverhead = 25;
  std::uint64_t bytes = 0;
  for (const auto& sample : samples)
    bytes += kConnectionOverhead + kPacketOverhead * sample.packets.size() +
             sample.data_payload.size() + sample.syn_payload.size();
  d.bytes_per_connection =
      static_cast<double>(bytes) / static_cast<double>(samples.size());
  return d;
}

/// One row of a previous run's JSON, as much of it as the compare needs.
struct BaselineRow {
  double cpu_ns_per_iter = 0;
  double items_per_second = 0;
};

/// Minimal scanner for the tamper-bench JSON this binary writes (both the
/// v1 and v2 shapes). Not a general JSON parser: names are the first
/// string after `"name":` and numbers are strtod'd in the same object.
std::map<std::string, BaselineRow> parse_baseline(const std::string& text) {
  std::map<std::string, BaselineRow> rows;
  const auto number_after = [&](std::size_t from, std::size_t until,
                                const std::string& key) {
    const std::size_t k = text.find(key, from);
    if (k == std::string::npos || k >= until) return 0.0;
    return std::strtod(text.c_str() + k + key.size(), nullptr);
  };
  std::size_t pos = 0;
  while ((pos = text.find("\"name\": \"", pos)) != std::string::npos) {
    const std::size_t name_begin = pos + 9;
    const std::size_t name_end = text.find('"', name_begin);
    if (name_end == std::string::npos) break;
    const std::size_t object_end = text.find('}', name_end);
    const std::size_t until =
        object_end == std::string::npos ? text.size() : object_end;
    BaselineRow row;
    row.cpu_ns_per_iter = number_after(name_end, until, "\"cpu_ns_per_iter\": ");
    row.items_per_second = number_after(name_end, until, "\"items_per_second\": ");
    rows[text.substr(name_begin, name_end - name_begin)] = row;
    pos = until;
  }
  return rows;
}

/// Collects every finished run and writes them as one JSON document, while
/// forwarding to the normal console reporter (it must be the display
/// reporter — the library refuses a secondary file reporter without
/// --benchmark_out). Times are normalized to nanoseconds per iteration
/// regardless of the benchmark's display unit, so consecutive check-ins
/// diff numerically.
class BenchJsonReporter final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    cpus_ = context.cpu_info.num_cpus;
    console_.SetOutputStream(&GetOutputStream());
    console_.SetErrorStream(&GetErrorStream());
    return console_.ReportContext(context);
  }

  void Finalize() override { console_.Finalize(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      const double unit_to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      row.real_ns = run.GetAdjustedRealTime() * unit_to_ns;
      row.cpu_ns = run.GetAdjustedCPUTime() * unit_to_ns;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) row.items_per_second = items->second.value;
      rows_.push_back(std::move(row));
    }
  }

  bool write(const std::string& path, const DerivedStats& derived) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    common::JsonWriter json(out);
    json.begin_object();
    json.key("schema").value("tamper-bench-v2");
    json.key("cpus").value(static_cast<std::int64_t>(cpus_));
    json.key("derived").begin_object();
    json.key("classify_p50_ns").value(derived.classify_p50_ns);
    json.key("classify_p99_ns").value(derived.classify_p99_ns);
    json.key("bytes_per_connection").value(derived.bytes_per_connection);
    json.end_object();
    json.key("benchmarks").begin_array();
    for (const Row& row : rows_) {
      json.begin_object();
      json.key("name").value(row.name);
      json.key("iterations").value(static_cast<std::uint64_t>(row.iterations));
      json.key("real_ns_per_iter").value(row.real_ns);
      json.key("cpu_ns_per_iter").value(row.cpu_ns);
      if (row.items_per_second > 0)
        json.key("items_per_second").value(row.items_per_second);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << '\n';
    return static_cast<bool>(out.flush());
  }

  /// Compare this run against a previous run's rows. A benchmark regresses
  /// when its throughput fell more than `threshold_pct` below the baseline
  /// (items/second when both runs have it, else inverted cpu ns/iter).
  /// Benchmarks present in only one run are skipped — adding or retiring a
  /// benchmark must not fail the gate. Returns the regression count.
  int compare_against(const std::map<std::string, BaselineRow>& baseline,
                      double threshold_pct) const {
    int regressions = 0;
    for (const Row& row : rows_) {
      const auto it = baseline.find(row.name);
      if (it == baseline.end()) continue;
      double base = it->second.items_per_second;
      double current = row.items_per_second;
      if (base <= 0 || current <= 0) {  // fall back to time per iteration
        if (it->second.cpu_ns_per_iter <= 0 || row.cpu_ns <= 0) continue;
        base = 1.0 / it->second.cpu_ns_per_iter;
        current = 1.0 / row.cpu_ns;
      }
      const double change_pct = (current / base - 1.0) * 100.0;
      if (change_pct < -threshold_pct) {
        ++regressions;
        std::cerr << "REGRESSION " << row.name << ": throughput "
                  << change_pct << "% vs baseline (threshold -"
                  << threshold_pct << "%)\n";
      }
    }
    return regressions;
  }

 private:
  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double real_ns = 0;
    double cpu_ns = 0;
    double items_per_second = 0;
  };
  benchmark::ConsoleReporter console_;
  int cpus_ = 0;
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  // Our flags first, so google-benchmark never sees them.
  std::string json_path = "BENCH_ingest.json";
  std::string compare_path;
  double threshold_pct = 15.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kJsonFlag = "--bench-json=";
    constexpr std::string_view kCompareFlag = "--bench-compare=";
    constexpr std::string_view kThresholdFlag = "--bench-threshold=";
    if (arg.rfind(kJsonFlag, 0) == 0)
      json_path = std::string(arg.substr(kJsonFlag.size()));
    else if (arg.rfind(kCompareFlag, 0) == 0)
      compare_path = std::string(arg.substr(kCompareFlag.size()));
    else if (arg.rfind(kThresholdFlag, 0) == 0)
      threshold_pct = std::strtod(arg.substr(kThresholdFlag.size()).data(), nullptr);
    else
      argv[kept++] = argv[i];
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJsonReporter json_reporter;
  benchmark::RunSpecifiedBenchmarks(&json_reporter);
  benchmark::Shutdown();
  const DerivedStats derived = measure_derived();
  if (!json_path.empty()) {
    if (!json_reporter.write(json_path, derived)) {
      std::cerr << "cannot write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }
  if (!compare_path.empty()) {
    std::ifstream in(compare_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read baseline " << compare_path << '\n';
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto baseline = parse_baseline(buf.str());
    if (baseline.empty()) {
      std::cerr << "baseline " << compare_path << " has no benchmark rows\n";
      return 1;
    }
    const int regressions = json_reporter.compare_against(baseline, threshold_pct);
    if (regressions > 0) {
      std::cerr << regressions << " benchmark(s) regressed more than "
                << threshold_pct << "% vs " << compare_path << '\n';
      return 1;
    }
    std::cout << "no regression beyond " << threshold_pct << "% vs "
              << compare_path << '\n';
  }
  return 0;
}

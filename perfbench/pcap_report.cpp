// Workload pcap_report: one thread, the `tamperscope classify` / Radar path.
//
// Set-up writes the generated connections' raw inbound packets, sorted by
// time, into one in-memory LINKTYPE_RAW pcap. A round reads it back with a
// lenient PcapReader, samples every flow (ConnectionSampler, 1 in 1,
// drain_idle every 30 s of capture time), ingests each closed flow, samples
// the trends ring at every capture-hour boundary, and renders the Radar
// report. Rounds repeat for the run's duration.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <tuple>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "capture/sampler.h"
#include "core/classifier.h"
#include "net/pcap.h"
#include "service/checkpoint.h"

namespace tamperbench {

namespace {

namespace core = tamper::core;
namespace net = tamper::net;

constexpr std::size_t kConnections = 40'000;
constexpr double kDrainEverySec = 30.0;  ///< capture time between drain_idle calls
constexpr std::int64_t kTrendsEverySec = 3600;
constexpr int kWarmupRounds = 3;

/// Read-only istream buffer over a string owned by the caller.
class ViewBuf final : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());  // never written through
    setg(begin, begin, begin + bytes.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir, std::ios_base::openmode) override {
    char* base = dir == std::ios_base::beg ? eback() : dir == std::ios_base::cur ? gptr() : egptr();
    char* target = base + off;
    if (target < eback() || target > egptr()) return pos_type(off_type(-1));
    setg(eback(), target, egptr());
    return pos_type(target - eback());
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode mode) override {
    return seekoff(off_type(pos), std::ios_base::beg, mode);
  }
};

struct Inputs {
  std::unique_ptr<world::World> world;
  std::string pcap;
  std::uint64_t frames = 0;
  /// The generator's own samples, for the output check.
  std::vector<capture::ConnectionSample> truth;
};

Inputs build_inputs(const Options& opts) {
  Inputs in;
  in.world = std::make_unique<world::World>();
  auto conns = generate(*in.world, opts.seed, opts.sized(kConnections, 50), /*keep_raw=*/true);

  struct FrameRef {
    double ts;
    std::uint32_t conn;
    std::uint32_t pkt;
  };
  std::vector<FrameRef> frames;
  for (std::uint32_t c = 0; c < conns.size(); ++c)
    for (std::uint32_t p = 0; p < conns[c].raw_inbound.size(); ++p)
      frames.push_back({conns[c].raw_inbound[p].timestamp, c, p});
  std::stable_sort(frames.begin(), frames.end(),
                   [](const FrameRef& a, const FrameRef& b) { return a.ts < b.ts; });
  // The benchmark's test drops the first SYN frame to prove the flow check
  // notices.
  std::size_t skip = frames.size();
  if (opts.corrupt == Corruption::kDropFrame)
    for (std::size_t i = 0; i < frames.size() && skip == frames.size(); ++i)
      if (capture::observe(conns[frames[i].conn].raw_inbound[frames[i].pkt]).is_syn()) skip = i;

  std::ostringstream out;
  net::PcapWriter writer(out);
  for (std::size_t i = 0; i < frames.size(); ++i)
    if (i != skip) writer.write(conns[frames[i].conn].raw_inbound[frames[i].pkt]);
  in.pcap = std::move(out).str();
  in.frames = writer.packets_written();
  in.truth.reserve(conns.size());
  for (auto& c : conns) in.truth.push_back(std::move(c.sample));
  return in;
}

/// Accumulates the wall time of bracketed calls, when enabled.
struct Stopwatch {
  bool on = false;
  double total_s = 0.0;
  std::uint64_t calls = 0;
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    if (!on) return fn();
    const auto t0 = Clock::now();
    struct Stop {
      Stopwatch& w;
      Clock::time_point t0;
      ~Stop() {
        w.total_s += seconds_since(t0);
        ++w.calls;
      }
    } stop{*this, t0};
    return fn();
  }
};

struct Round {
  double seconds = 0.0;
  double report_s = 0.0;
  std::uint64_t flows = 0;
  std::unique_ptr<analysis::Pipeline> pipeline;
  std::string report;
  net::PcapReader::Stats reader;
  capture::ConnectionSampler::Stats sampler;
  std::size_t open_flows_peak = 0;
  std::vector<capture::ConnectionSample> surfaced;  ///< only when kept
  Stopwatch read, sample, ingest, trends;
};

Round run_round(const Inputs& in, bool traced, bool keep_surfaced) {
  Round r;
  r.read.on = r.sample.on = r.ingest.on = r.trends.on = traced;
  r.pipeline = std::make_unique<analysis::Pipeline>(*in.world);
  analysis::Pipeline& pipeline = *r.pipeline;
  const auto ingest_all = [&](std::vector<capture::ConnectionSample>&& closed) {
    for (auto& s : closed) {
      r.ingest.time([&] { pipeline.ingest(s); });
      ++r.flows;
      if (keep_surfaced) r.surfaced.push_back(std::move(s));
    }
  };

  const auto t0 = Clock::now();
  ViewBuf buf(in.pcap);
  std::istream stream(&buf);
  net::PcapReader reader(stream, net::PcapReadMode::kLenient);
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  capture::ConnectionSampler sampler(config);
  double next_drain = 0.0;
  double last_ts = 0.0;
  std::int64_t hour = -1;
  bool first = true;
  while (true) {
    auto pkt = r.read.time([&] { return reader.next(); });
    if (!pkt) break;
    const double ts = pkt->timestamp;
    if (first) {
      next_drain = ts + kDrainEverySec;
      hour = static_cast<std::int64_t>(ts) / kTrendsEverySec;
      first = false;
    }
    while (ts >= next_drain) {
      ingest_all(r.sample.time([&] { return sampler.drain_idle(next_drain); }));
      next_drain += kDrainEverySec;
    }
    if (const std::int64_t h = static_cast<std::int64_t>(ts) / kTrendsEverySec; h > hour) {
      r.trends.time([&] { pipeline.sample_trends(); });
      hour = h;
    }
    r.sample.time([&] { sampler.on_packet(*pkt, ts); });
    last_ts = std::max(last_ts, ts);
    if (traced) r.open_flows_peak = std::max(r.open_flows_peak, sampler.open_flows());
  }
  ingest_all(r.sample.time([&] { return sampler.flush_all(last_ts + 60.0); }));
  pipeline.record_reader_stats(reader.stats());
  pipeline.record_sampler_stats(sampler.stats());
  r.trends.time([&] { pipeline.sample_trends(); });
  const auto t_report = Clock::now();
  std::ostringstream out;
  analysis::write_radar_report(out, pipeline);
  r.report = std::move(out).str();
  r.report_s = seconds_since(t_report);
  r.seconds = seconds_since(t0);
  r.reader = reader.stats();
  r.sampler = sampler.stats();
  return r;
}

using FlowKey = std::tuple<std::string, std::uint16_t, std::string, std::uint16_t, std::int64_t>;

FlowKey key_of(const capture::ConnectionSample& s) {
  return {s.client_ip.to_string(), s.client_port, s.server_ip.to_string(), s.server_port,
          s.packets.empty() ? -1 : s.packets.front().ts_sec};
}

bool same_verdict(const core::Classification& a, const core::Classification& b) {
  return a.possibly_tampered == b.possibly_tampered && a.signature == b.signature &&
         a.stage == b.stage && a.graceful == b.graceful;
}

/// Output check: the flows the pcap path surfaced against the generator's
/// own samples. Every generator flow whose SYN reached the tap must surface
/// with the same packet count and verdict, and every surfaced flow must
/// match a generator flow. Flows that do not surface are counted, and the
/// report's per-signature totals must equal the generator's totals
/// corrected by exactly those counted flows. Returns the unsurfaced count.
std::uint64_t check_flows(const Inputs& in, const Round& r, Result& result) {
  const core::SignatureClassifier classifier;
  std::map<FlowKey, const capture::ConnectionSample*> surfaced;
  for (const auto& s : r.surfaced) surfaced.emplace(key_of(s), &s);

  std::array<std::int64_t, core::kSignatureCount> expected{};
  std::uint64_t unsurfaced = 0, without_syn = 0, mismatched = 0;
  std::size_t matched = 0;
  for (const auto& truth : in.truth) {
    const core::Classification want = classifier.classify(truth);
    if (want.signature) ++expected[static_cast<std::size_t>(*want.signature)];
    // The sampler decides at the SYN (paper §3.2): a flow whose SYN never
    // reached the tap has no frame that could open it in the pcap path.
    if (truth.packets.empty() || !truth.packets.front().is_syn()) {
      ++without_syn;
      if (want.signature) --expected[static_cast<std::size_t>(*want.signature)];
      continue;
    }
    const auto it = surfaced.find(key_of(truth));
    if (it == surfaced.end()) {
      ++unsurfaced;
      if (want.signature) --expected[static_cast<std::size_t>(*want.signature)];
      continue;
    }
    ++matched;
    const capture::ConnectionSample& got = *it->second;
    if (got.packets.size() != truth.packets.size() ||
        !same_verdict(classifier.classify(got), want))
      ++mismatched;
  }
  // Flows the pcap path produced that match no generator flow, such as a
  // flow split in two or re-opened after drain_idle. There must be none.
  const std::size_t extra = r.surfaced.size() - matched;
  result.check(extra == 0, "pcap_report: " + std::to_string(extra) +
                               " surfaced flows match no generator flow");
  result.check(mismatched == 0,
               "pcap_report: " + std::to_string(mismatched) +
                   " surfaced flows differ from the generator's sample");
  result.check(unsurfaced == 0,
               "pcap_report: " + std::to_string(unsurfaced) +
                   " generator flows with packets never surfaced from the pcap");
  for (std::size_t sig = 0; sig < core::kSignatureCount; ++sig) {
    const auto got = static_cast<std::int64_t>(
        r.pipeline->signatures().signature_total(static_cast<core::Signature>(sig)));
    result.check(got == expected[sig],
                 "pcap_report: report total for " +
                     std::string(core::name(static_cast<core::Signature>(sig))) + " is " +
                     std::to_string(got) + ", expected " + std::to_string(expected[sig]));
  }
  result.check(r.reader.frames_read == in.frames, "pcap_report: reader lost frames");
  result.check(r.sampler.flows_evicted_overload == 0, "pcap_report: sampler evicted flows");
  result.check(r.report.find("\"signatures\"") != std::string::npos,
               "pcap_report: report has no signatures section");
  result.attempt(r.flows);
  result.info("pcap.flows_without_syn", static_cast<double>(without_syn));
  result.info("pcap.flows_extra", static_cast<double>(extra));
  return unsurfaced;
}

}  // namespace

void run_pcap_report(const Options& opts, Result& result) {
  Inputs in = timed_setup(opts, result, [&] { return build_inputs(opts); });
  result.info("input.connections", static_cast<double>(in.truth.size()));
  result.info("input.capture_bytes", static_cast<double>(in.pcap.size()));
  result.info("input.frames", static_cast<double>(in.frames));

  // Warm-up: the first rounds grow the heap and run markedly slower, so
  // they are not timed. The first one keeps every flow for the output check.
  Round checked = run_round(in, /*traced=*/false, /*keep_surfaced=*/true);
  const std::uint64_t unsurfaced = check_flows(in, checked, result);
  if (!opts.trace) checked.surfaced = {};
  for (int i = 1; i < kWarmupRounds; ++i) (void)run_round(in, false, false);
  reset_peak_rss();

  // Untraced rounds give the end-to-end numbers; a traced run spends a
  // share of its time on them so the tracing overhead is measured in-process.
  const double untraced_s = opts.trace ? opts.seconds * 0.3 : opts.seconds;
  Throughput rate;
  std::vector<double> report_ms;
  const auto start = Clock::now();
  Round last;
  do {
    last = Round{};  // free the previous round first, so every round sees the same heap
    last = run_round(in, /*traced=*/false, /*keep_surfaced=*/false);
    rate.add(static_cast<double>(last.flows), last.seconds);
    report_ms.push_back(last.report_s * 1e3);
  } while (seconds_since(start) < untraced_s || rate.rounds < 3);
  const double peak_rss = peak_rss_mb();
  result.info("pcap.rounds", static_cast<double>(rate.rounds));
  result.info("report_p50_ms.samples", static_cast<double>(report_ms.size()));

  if (!opts.trace) {
    result.metric("throughput_per_s", rate.per_s(), "1/s");
    result.metric("report_p50_ms", median(report_ms), "ms");
    const auto image = tamper::service::encode_checkpoint(*last.pipeline, {});
    result.metric("state_bytes_per_conn",
                  static_cast<double>(image.size()) / static_cast<double>(last.flows), "B");
    result.metric("peak_rss_mb", peak_rss, "MB");
    return;
  }

  Throughput traced_rate;
  std::vector<double> read_ns, sample_ns, trends_us, report_ms_traced;
  std::size_t open_peak = 0;
  const auto traced_start = Clock::now();
  Round t;
  do {
    t = Round{};
    t = run_round(in, /*traced=*/true, /*keep_surfaced=*/false);
    traced_rate.add(static_cast<double>(t.flows), t.seconds);
    read_ns.push_back(t.read.total_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(t.read.calls, 1)));
    sample_ns.push_back(t.sample.total_s * 1e9 /
                        static_cast<double>(std::max<std::uint64_t>(t.sampler.packets_seen, 1)));
    trends_us.push_back(t.trends.total_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(t.trends.calls, 1)));
    report_ms_traced.push_back(t.report_s * 1e3);
    open_peak = std::max(open_peak, t.open_flows_peak);
  } while (seconds_since(traced_start) < opts.seconds * 0.3 || traced_rate.rounds < 3);

  result.metric("net.read_ns_per_frame", median(read_ns), "ns");
  result.metric("net.frames_read", static_cast<double>(t.reader.frames_read), "count");
  result.metric("net.frames_skipped",
                static_cast<double>(t.reader.skipped_unparseable + t.reader.skipped_oversize +
                                    t.reader.skipped_truncated),
                "count");
  result.metric("net.capture_bytes", static_cast<double>(in.pcap.size()), "B");
  result.metric("capture.sampler_ns_per_pkt", median(sample_ns), "ns");
  result.metric("capture.open_flows_peak", static_cast<double>(open_peak), "count");
  result.metric("capture.flows_unsurfaced", static_cast<double>(unsurfaced), "count");
  result.metric("capture.flows_evicted", static_cast<double>(t.sampler.flows_evicted_overload),
                "count");
  result.metric("analysis.trends_us_per_call", median(trends_us), "us");
  result.metric("analysis.report_ms", median(report_ms_traced), "ms");
  result.metric("analysis.report_bytes", static_cast<double>(t.report.size()), "B");
  result.metric("bench.trace_overhead_frac", rate.per_s() / traced_rate.per_s() - 1.0, "frac");
  record_state_bytes(*t.pipeline, result);
  measure_ingest_layers(*in.world, checked.surfaced, opts.seconds * 0.3, result);
  // Ingest share of the traced round, for the ingest_ns cross-check.
  result.info("pcap.traced_ingest_ns_per_conn",
              t.ingest.total_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(t.flows, 1)));
}

}  // namespace tamperbench

// Workload service_stream: a closed loop with one producer thread, as
// `tamperscope watch` runs. Set-up pre-generates the samples; a round
// submits them all into a SupervisedService (kBlock queue of 4096,
// checkpoint every 5000 samples into the state dir, a report every 1000
// samples to a sink that timestamps each delivery, overload control off)
// and ends with stop(). Producer, worker and watchdog make three threads.
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "bench.h"
#include "obs/metrics.h"
#include "service/checkpoint.h"
#include "service/sink.h"
#include "service/supervisor.h"

namespace tamperbench {
namespace {

namespace obs = tamper::obs;
namespace service = tamper::service;

constexpr std::size_t kSamples = 60'000;
constexpr std::uint64_t kCheckpointEvery = 5000;
constexpr std::uint64_t kReportEvery = 1000;

struct Inputs {
  std::unique_ptr<world::World> world;
  std::vector<capture::ConnectionSample> samples;
};

Inputs build_inputs(const Options& opts) {
  Inputs in;
  in.world = std::make_unique<world::World>();
  // Whole report intervals, so every report covers a known prefix.
  const std::size_t n = opts.sized(kSamples, 2 * kReportEvery) / kReportEvery * kReportEvery;
  in.samples = samples_in_capture_order(generate(*in.world, opts.seed, n, /*keep_raw=*/false));
  return in;
}

/// Records when each report arrives. deliver() runs on the worker thread,
/// and the final report on the thread calling stop(); the benchmark reads
/// the log only after stop() has joined the worker.
class TimestampSink final : public service::Sink {
 public:
  bool deliver(const std::string& /*payload*/) override {
    arrivals_.push_back(Clock::now());
    return true;
  }
  [[nodiscard]] std::string describe() const override { return "perfbench"; }
  [[nodiscard]] const std::vector<Clock::time_point>& arrivals() const { return arrivals_; }

 private:
  std::vector<Clock::time_point> arrivals_;
};

struct Round {
  double seconds = 0.0;
  double producer_s = 0.0;
  double submit_s = 0.0;  ///< time inside submit(), traced rounds only
  std::vector<double> report_latency_ms;
  service::RunSummary summary;
  std::size_t delivered = 0;
  double checkpoint_ms_mean = 0.0;
  std::vector<std::uint8_t> state;  ///< final state image, when kept
};

Round run_round(const Inputs& in, const Options& opts, int index, bool traced, bool keep_state) {
  const std::filesystem::path dir =
      std::filesystem::path(opts.state_dir) / ("service-" + std::to_string(index));
  std::filesystem::create_directories(dir);

  Round r;
  obs::Registry registry;
  TimestampSink sink;
  service::ReportEmitter emitter(sink, service::RetryPolicy{}, /*spool_dir=*/"", opts.seed);
  service::ServiceConfig config;
  config.queue_capacity = 4096;
  config.queue_policy = tamper::common::QueuePolicy::kBlock;
  config.checkpoint_every_samples = kCheckpointEvery;
  config.checkpoint_path = (dir / "state.ckpt").string();
  config.report_every_samples = kReportEvery;
  config.metrics = &registry;
  {
    service::SupervisedService svc(*in.world, config, &emitter);
    if (!svc.start(service::SupervisedService::Resume::kFresh))
      throw std::runtime_error("service refused to start: " + svc.error());

    // The k-th report covers samples [0, k*1000): the queue is FIFO, so it
    // is due once the submit of sample k*1000-1 has been called.
    std::vector<Clock::time_point> due;
    due.reserve(in.samples.size() / kReportEvery);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < in.samples.size(); ++i) {
      const auto t_submit = Clock::now();
      if ((i + 1) % kReportEvery == 0) due.push_back(t_submit);
      svc.submit(in.samples[i]);
      if (traced) r.submit_s += seconds_since(t_submit);
    }
    r.producer_s = seconds_since(t0);
    r.summary = svc.stop();
    r.seconds = seconds_since(t0);

    const auto& arrivals = sink.arrivals();
    r.delivered = arrivals.size();
    for (std::size_t k = 0; k < due.size() && k < arrivals.size(); ++k)
      r.report_latency_ms.push_back(seconds_between(due[k], arrivals[k]) * 1e3);
    if (keep_state) r.state = service::encode_checkpoint(svc.pipeline(), {});
  }
  const auto save = registry
                        .histogram("tamper_checkpoint_save_seconds", "Checkpoint save duration",
                                   obs::duration_buckets())
                        .snapshot();
  r.checkpoint_ms_mean =
      save.count == 0 ? 0.0 : save.sum * 1e3 / static_cast<double>(save.count);
  std::filesystem::remove_all(dir);
  return r;
}

/// A state image with the trends ring emptied: the ring is sampled at the
/// service's checkpoint/report cadence, a property of the deployment, not
/// of the data.
std::vector<std::uint8_t> without_trends(const world::World& world,
                                         const std::vector<std::uint8_t>& image) {
  analysis::Pipeline scratch(world);
  const service::LoadResult load = service::decode_checkpoint(image, scratch);
  if (!load.ok) return {};
  scratch.set_trends_config(scratch.trends().config());
  return service::encode_checkpoint(scratch, {});
}

void check_round(const Inputs& in, const Round& r, Result& result) {
  const std::size_t reports = in.samples.size() / kReportEvery;
  const std::size_t checkpoints = in.samples.size() / kCheckpointEvery;
  result.check(r.summary.ingested == in.samples.size(), "service_stream: samples not all ingested");
  // Every periodic report plus the final one from stop().
  result.check(r.delivered == reports + 1,
               "service_stream: " + std::to_string(r.delivered) + " reports delivered, expected " +
                   std::to_string(reports + 1));
  result.check(r.summary.checkpoint_failures == 0, "service_stream: checkpoint failures");
  result.check(r.summary.checkpoints_written == checkpoints + 1,
               "service_stream: " + std::to_string(r.summary.checkpoints_written) +
                   " checkpoints written, expected " + std::to_string(checkpoints + 1));
  result.check(!r.summary.failed && r.summary.worker_crashes == 0,
               "service_stream: worker failed or crashed");
  result.attempt(in.samples.size());
}

/// Single-thread replay of the worker loop on the same samples and
/// cadences, timing each kind of work it interleaves.
void replay_worker(const Inputs& in, const Options& opts, Result& result) {
  const std::filesystem::path dir = std::filesystem::path(opts.state_dir) / "service-replay";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.ckpt").string();
  analysis::Pipeline pipeline(*in.world);
  double ingest_s = 0, trends_s = 0, checkpoint_s = 0, report_s = 0;
  std::uint64_t trends_calls = 0, reports = 0;
  std::size_t report_bytes = 0;
  for (std::size_t i = 0; i < in.samples.size(); ++i) {
    auto t = Clock::now();
    pipeline.ingest(in.samples[i]);
    ingest_s += seconds_since(t);
    const std::uint64_t n = i + 1;
    if (n % kCheckpointEvery == 0) {
      t = Clock::now();
      pipeline.sample_trends();
      trends_s += seconds_since(t);
      ++trends_calls;
      t = Clock::now();
      const std::string err = service::save_checkpoint(path, pipeline, {n, n / kCheckpointEvery});
      checkpoint_s += seconds_since(t);
      result.check(err.empty(), "service_stream: replay checkpoint failed: " + err);
    }
    if (n % kReportEvery == 0) {
      t = Clock::now();
      pipeline.sample_trends();
      trends_s += seconds_since(t);
      ++trends_calls;
      t = Clock::now();
      std::ostringstream out;
      analysis::write_radar_report(out, pipeline);
      report_s += seconds_since(t);
      report_bytes = out.str().size();
      ++reports;
    }
  }
  std::filesystem::remove_all(dir);
  const double total = ingest_s + trends_s + checkpoint_s + report_s;
  result.metric("service.replay_ingest_share", ingest_s / total, "frac");
  result.metric("service.replay_trends_share", trends_s / total, "frac");
  result.metric("service.replay_checkpoint_share", checkpoint_s / total, "frac");
  result.metric("service.replay_report_share", report_s / total, "frac");
  result.metric("analysis.trends_us_per_call",
                trends_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(trends_calls, 1)), "us");
  result.metric("analysis.report_ms",
                report_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(reports, 1)), "ms");
  result.metric("analysis.report_bytes", static_cast<double>(report_bytes), "B");
  record_state_bytes(pipeline, result);
}

}  // namespace

void run_service_stream(const Options& opts, Result& result) {
  Inputs in = timed_setup(opts, result, [&] { return build_inputs(opts); });
  result.info("input.samples", static_cast<double>(in.samples.size()));

  // The first round warms the heap and is not timed; its final state is
  // kept for the output check.
  Round first = run_round(in, opts, 0, /*traced=*/false, /*keep_state=*/true);
  check_round(in, first, result);
  reset_peak_rss();

  // Rounds alternate untraced and (in a traced run) traced; only untraced
  // rounds feed the end-to-end numbers.
  Throughput rate, traced_rate;
  std::vector<double> latency_ms, blocked, checkpoint_ms;
  Round last;
  std::uint64_t push_waits = 0;
  int index = 1;
  const auto start = Clock::now();
  do {
    const bool traced = opts.trace && index % 2 == 0;
    // Each round's threads get their own malloc arenas; trimming what the
    // last round freed keeps the peak to what one round holds.
    trim_heap();
    Round r = run_round(in, opts, index, traced, /*keep_state=*/false);
    check_round(in, r, result);
    (traced ? traced_rate : rate).add(static_cast<double>(in.samples.size()), r.seconds);
    latency_ms.insert(latency_ms.end(), r.report_latency_ms.begin(), r.report_latency_ms.end());
    checkpoint_ms.push_back(r.checkpoint_ms_mean);
    if (traced) {
      blocked.push_back(r.submit_s / r.producer_s);
      push_waits = r.summary.queue.push_waits;
    }
    last = std::move(r);
    ++index;
  } while (seconds_since(start) < opts.seconds * (opts.trace ? 0.6 : 1.0) ||
           index <= (opts.trace ? 4 : 3));
  const double peak_rss = peak_rss_mb();
  result.info("service.rounds", index - 1);
  result.info("report_p50_ms.samples", static_cast<double>(latency_ms.size()));

  // Output check: the warm-up round's final state equals a single-thread
  // pipeline fed the same samples, modulo the trends ring.
  analysis::Pipeline monolith(*in.world);
  for (const auto& s : in.samples) monolith.ingest(s);
  const auto expected = without_trends(*in.world, service::encode_checkpoint(monolith, {}));
  result.check(!expected.empty() && without_trends(*in.world, first.state) == expected,
               "service_stream: final state differs from a single-thread pipeline");

  if (!opts.trace) {
    result.metric("throughput_per_s", rate.per_s(), "1/s");
    result.metric("report_p50_ms", median(latency_ms), "ms");
    result.metric("state_bytes_per_conn",
                  static_cast<double>(first.state.size()) / static_cast<double>(in.samples.size()),
                  "B");
    result.metric("peak_rss_mb", peak_rss, "MB");
    return;
  }
  result.metric("service.submit_blocked_frac", median(blocked), "frac");
  result.metric("service.queue_push_waits", static_cast<double>(push_waits), "count");
  result.metric("service.checkpoints_written", static_cast<double>(last.summary.checkpoints_written),
                "count");
  result.metric("service.checkpoint_failures", static_cast<double>(last.summary.checkpoint_failures),
                "count");
  result.metric("service.reports_delivered", static_cast<double>(last.delivered), "count");
  result.metric("service.checkpoint_ms_mean", median(checkpoint_ms), "ms");
  result.metric("service.report_p95_ms", quantile(latency_ms, 0.95), "ms");
  result.metric("service.report_latency_samples", static_cast<double>(latency_ms.size()), "count");
  result.metric("bench.trace_overhead_frac", rate.per_s() / traced_rate.per_s() - 1.0, "frac");
  replay_worker(in, opts, result);
  measure_ingest_layers(*in.world, in.samples, opts.seconds * 0.2, result);
}

}  // namespace tamperbench

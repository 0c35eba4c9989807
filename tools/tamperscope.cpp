// tamperscope — command-line front end to libtamper.
//
//   tamperscope signatures
//       Print the Table 1 signature taxonomy.
//
//   tamperscope classify <capture.pcap> [--json] [--strict|--lenient]
//       Assemble flows from a pcap of server-side inbound packets and
//       classify each against the tampering signatures.
//
//   tamperscope simulate [--connections N] [--seed S] [--json report.json]
//                        [--pcap tampered.pcap]
//       Run the synthetic global scenario, print the per-country summary,
//       optionally export a Radar-style JSON report and a pcap of sampled
//       tampered connections.
//
//   tamperscope testlists [--region CC] [--connections N]
//       Audit test-list coverage of passively observed tampered domains.
//
//   tamperscope watch [--connections N] [--seed S] [--checkpoint FILE]
//                     [--fresh] [--report out.json] [--spool DIR]
//                     [--queue N] [--shed] [--checkpoint-every N]
//                     [--report-every N] [--metrics-out PATH]
//                     [--metrics-interval MS] [--trace-out PATH]
//                     [--overload] [--admit-rate N] [--admit-burst N]
//                     [--timeseries-out PATH] [--epoch-sec N]
//       Run the analysis pipeline as a supervised streaming service:
//       bounded ingest queue, periodic checkpoints (resume with the same
//       --checkpoint path), report sink with retry + spool. SIGINT/SIGTERM
//       drain the queue, write a final checkpoint, and emit a final report;
//       a SECOND SIGINT/SIGTERM during the drain force-exits immediately
//       with code 128+sig. --overload enables the admission controller +
//       degradation ladder (--admit-rate/--admit-burst bound the sustained
//       ingest rate) and prints the ladder/shed summary on exit.
//       --metrics-out snapshots Prometheus text (and PATH.json) every
//       --metrics-interval ms, with a final flush on shutdown; --trace-out
//       writes a Perfetto-loadable Chrome trace of pipeline stage spans.
//       --timeseries-out writes the final `tamper-timeseries/1` dump of the
//       pipeline's epoch ring (scope "local", --epoch-sec wide epochs) with
//       the watchdog's last anomaly scan.
//
//   tamperscope fleet [--pops N] [--connections N] [--seed S] [--state DIR]
//                     [--report out.json] [--report-every N]
//                     [--checkpoint-every N] [--kill-pop P] [--lose-pop P]
//                     [--metrics-out PATH] [--timeseries-out PATH]
//       Run a multi-PoP fleet: anycast-routed per-PoP supervised services
//       streaming epoch-tagged partial aggregates to a central merger.
//       --kill-pop crashes PoP P mid-run and resumes it from its
//       checkpoint (coverage recovers); --lose-pop crashes it for good
//       (the merged report flags the affected epochs as degraded).
//       --timeseries-out writes the merger's `tamper-timeseries/1` dump
//       (fleet scope + per-PoP scopes).
//
//   tamperscope top [--pops N] [--connections N] [--seed S] [--frames N]
//                   [--interval MS] [--clear] [--state DIR] [--overload]
//       Live terminal dashboard over a seeded fleet campaign: every frame
//       shows merged totals, signature and country leaders, per-PoP health
//       (status / epoch / overload ladder level / shed), coverage, and the
//       fleet anomaly scan. Frame CONTENT is a pure function of (seed,
//       connections, pops, frame index) — wall time only paces rendering —
//       so frames are byte-comparable across runs. Plain scrolling output
//       by default; --clear redraws in place with ANSI clears.
//
//   tamperscope trends (--checkpoint PATH | PATH) [--json OUT] [--seed S]
//                      [--scope local|fleet|pop:<N>]
//       Offline query of the longitudinal trends history a checkpoint
//       carries (the epoch ring rides the versioned checkpoint): per-series
//       point counts and latest values, per-epoch coverage, and the
//       deterministic anomaly scan. --json writes the history as a
//       `tamper-timeseries/1` document whose scope is --scope (default
//       local; a PoP's checkpoint is its "pop:<N>" scope). A malformed
//       --kill-pop/--lose-pop/--scope id exits 4, distinct from usage (2)
//       and runtime (1) failures.
//
//   Common options: --log-level debug|info|warn|error, --log-format
//   text|json — structured logging on stderr (stdout stays the product).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "analysis/testlists.h"
#include "capture/sampler.h"
#include "common/ids.h"
#include "common/json.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_annotations.h"
#include "core/classifier.h"
#include "net/pcap.h"
#include "obs/anomaly.h"
#include "obs/families.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "control/overload.h"
#include "fleet/fleet.h"
#include "service/checkpoint.h"
#include "service/shutdown.h"
#include "service/supervisor.h"
#include "world/traffic.h"

using namespace tamper;

namespace {

// Two-strike signal handling (service/shutdown.h): the first SIGINT/SIGTERM
// requests a clean drain — command loops poll ShutdownGuard::pending() and
// shut down cleanly (classify still prints its degraded summary, watch
// drains + checkpoints). A second signal during the drain force-exits
// immediately with 128 + sig. Exit codes follow the shell convention.
void install_signal_handlers() { service::ShutdownGuard::install(); }

/// A malformed option value; main() reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return options.contains(name);
  }
  /// The decimal value of --name in [min, max], or `fallback` when the
  /// option is absent. Anything else (empty, signs, junk, overflow) throws
  /// UsageError naming the option.
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& name, std::uint64_t fallback, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = options.find(name);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size() || value < min ||
        value > max)
      throw UsageError("--" + name + " wants an integer in [" + std::to_string(min) +
                       ", " + std::to_string(max) + "], got '" + text + "'");
    return value;
  }
};

/// Every subcommand with the options it reads (log-level and log-format
/// where it builds a logger): `values` each take the next argument, `flags`
/// never do. parse_args rejects any other option, so a misspelled
/// `--conections` is a usage error rather than a run with the default.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> values;
  std::vector<std::string_view> flags = {};
};

Args parse_args(const Command& command, int argc, char** argv) {
  const auto listed = [](const std::vector<std::string_view>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    if (listed(command.flags, name)) {
      args.options[name] = "";
    } else if (!listed(command.values, name)) {
      throw UsageError("unknown option --" + name + " for " + std::string(command.name));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[name] = argv[++i];
    } else {
      throw UsageError("--" + name + " wants a value");
    }
  }
  return args;
}

/// Structured logger on stderr, shaped by --log-level and --log-format.
/// stdout stays reserved for the command's actual product (tables, JSON).
obs::Logger make_logger(const Args& args) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (args.has("log-level") && !obs::parse_log_level(args.get("log-level"), &level))
    std::cerr << "warning: unknown --log-level '" << args.get("log-level")
              << "', using info\n";
  const obs::Logger::Format format = args.get("log-format") == "json"
                                         ? obs::Logger::Format::kJson
                                         : obs::Logger::Format::kText;
  return obs::Logger(std::cerr, level, format);
}

/// Temp-file + rename so a reader never sees a half-written snapshot and an
/// interrupted run still leaves the previous complete file behind.
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Prometheus text at `path`, the JSON snapshot beside it at `path`.json.
bool write_metrics_files(obs::Registry& metrics, const std::string& path) {
  return write_file_atomic(path, metrics.prometheus_text()) &&
         write_file_atomic(path + ".json", metrics.json_text());
}

/// Periodic snapshot writer for `watch`: calls `flush` every `interval`
/// until stopped. The final flush after service shutdown is the caller's —
/// it must happen after stop() so the drained counters are on disk.
class SnapshotFlusher {
 public:
  SnapshotFlusher(std::function<void()> flush, std::chrono::milliseconds interval)
      : flush_(std::move(flush)), interval_(interval),
        thread_([this] { run(); }) {}
  ~SnapshotFlusher() { stop(); }

  void stop() {
    {
      common::MutexLock lock(mu_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    common::UniqueLock lock(mu_);
    while (!done_) {
      cv_.wait_for(lock, interval_);
      if (done_) break;
      lock.unlock();
      flush_();
      lock.lock();
    }
  }

  std::function<void()> flush_;
  std::chrono::milliseconds interval_;
  common::Mutex mu_;
  std::condition_variable_any cv_;
  bool done_ TAMPER_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

int cmd_signatures(const Args& /*args*/) {
  common::TextTable table({"Signature", "ASCII name", "Stage", "Description"});
  const std::map<core::Signature, std::string> descriptions = {
      {core::Signature::kSynNone, "no packets after a single SYN"},
      {core::Signature::kSynRst, "one or more RSTs after a single SYN"},
      {core::Signature::kSynRstAck, "one or more RST+ACKs after the SYN"},
      {core::Signature::kSynRstRstAck, "RST and RST+ACK after a single SYN"},
      {core::Signature::kAckNone, "nothing after the handshake completes"},
      {core::Signature::kAckRst, "exactly one RST after SYN and ACK"},
      {core::Signature::kAckRstRst, "more than one RST after SYN and ACK"},
      {core::Signature::kAckRstAck, "exactly one RST+ACK after SYN and ACK"},
      {core::Signature::kAckRstAckRstAck, "more than one RST+ACK after SYN and ACK"},
      {core::Signature::kPshNone, "nothing after the first data packet"},
      {core::Signature::kPshRst, "exactly one RST"},
      {core::Signature::kPshRstAck, "exactly one RST+ACK"},
      {core::Signature::kPshRstRstAck, "at least one RST and one RST+ACK"},
      {core::Signature::kPshRstAckRstAck, "at least two RST+ACKs"},
      {core::Signature::kPshRstEqRst, ">1 RST, same ACK numbers"},
      {core::Signature::kPshRstNeqRst, ">1 RST, differing ACK numbers"},
      {core::Signature::kPshRstRst0, ">1 RST, one ACK number is zero"},
      {core::Signature::kDataRst, "RSTs not immediately after first data"},
      {core::Signature::kDataRstAck, "RST+ACKs not immediately after first data"},
  };
  for (core::Signature sig : core::all_signatures()) {
    table.add_row({std::string(core::name(sig)), std::string(core::ascii_name(sig)),
                   std::string(core::name(core::stage_of(sig))),
                   descriptions.at(sig)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_classify(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: tamperscope classify <capture.pcap> [--json] [--strict|--lenient]\n";
    return 2;
  }
  if (args.has("strict") && args.has("lenient")) {
    std::cerr << "classify: --strict and --lenient are mutually exclusive\n";
    return 2;
  }
  std::ifstream in(args.positional[0], std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot open " << args.positional[0] << '\n';
    return 1;
  }
  // Lenient by default: a capture from a hostile tap should degrade, not
  // die. --strict turns any corruption into a hard failure.
  const bool strict = args.has("strict");
  obs::Logger logger = make_logger(args);
  const std::string metrics_path = args.get("metrics-out");
  const std::string trace_path = args.get("trace-out");
  obs::Registry metrics;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty())
    tracer = std::make_unique<obs::Tracer>(obs::monotonic_clock());

  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  capture::ConnectionSampler sampler(config);
  net::PcapReader reader(in, strict ? net::PcapReadMode::kStrict
                                    : net::PcapReadMode::kLenient);
  if (!reader.ok()) {
    logger.error("classify", "cannot read capture",
                 {{"path", args.positional[0]}, {"error", reader.error()}});
    return 1;
  }
  install_signal_handlers();
  double last_ts = 0.0;
  bool interrupted = false;
  {
    obs::Tracer::Span sample_span(tracer.get(), obs::stage::kSample,
                                  obs::stage::kCategory);
    while (auto pkt = reader.next()) {
      if (service::ShutdownGuard::requested()) {
        // Stop reading but keep going: classify what we have, report the
        // degradation honestly, then exit with the conventional signal code.
        interrupted = true;
        break;
      }
      last_ts = std::max(last_ts, pkt->timestamp);  // hostile clocks can regress
      sampler.on_packet(*pkt, pkt->timestamp);
    }
  }
  const auto samples = sampler.flush_all(last_ts + 60.0);
  if (interrupted)
    logger.warn("classify", "interrupted; classifying the flows read so far",
                {{"signal", std::to_string(service::ShutdownGuard::pending())},
                 {"flows", std::to_string(samples.size())}});

  const net::PcapReader::Stats& rs = reader.stats();
  const capture::ConnectionSampler::Stats& ss = sampler.stats();

  // Mirror the capture-side counters into the registry so --metrics-out
  // reflects reader + sampler health with the same names watch exposes.
  metrics.counter(obs::family("tamper_reader_frames_total"))
      .increment_to(rs.frames_read);
  auto& skipped = metrics.counter_family(obs::family("tamper_reader_skipped_total"));
  skipped.with({"unparseable"}).increment_to(rs.skipped_unparseable);
  skipped.with({"oversize"}).increment_to(rs.skipped_oversize);
  skipped.with({"truncated"}).increment_to(rs.skipped_truncated);
  metrics.counter(obs::family("tamper_reader_resyncs_total"))
      .increment_to(rs.resyncs);
  metrics.counter(obs::family("tamper_reader_resync_failures_total"))
      .increment_to(rs.resync_failures);
  metrics.counter(obs::family("tamper_sampler_packets_total"))
      .increment_to(ss.packets_seen);
  metrics.counter(obs::family("tamper_sampler_malformed_total"))
      .increment_to(ss.packets_malformed);
  metrics.counter(obs::family("tamper_sampler_evicted_total"))
      .increment_to(ss.flows_evicted_overload);
  metrics.counter(obs::family("tamper_sampler_connections_total"))
      .increment_to(ss.connections_seen);
  metrics.counter(obs::family("tamper_sampler_sampled_total"))
      .increment_to(ss.connections_sampled);

  const std::uint64_t degraded = reader.frames_skipped() + ss.packets_malformed +
                                 ss.flows_evicted_overload + rs.resync_failures;
  if (degraded > 0) {
    // One summary line, always on stderr, so scripted users see skew.
    logger.warn("classify", "degraded input",
                {{"oversize", std::to_string(rs.skipped_oversize)},
                 {"truncated", std::to_string(rs.skipped_truncated)},
                 {"unparseable", std::to_string(rs.skipped_unparseable)},
                 {"resyncs", std::to_string(rs.resyncs)},
                 {"resync_failures", std::to_string(rs.resync_failures)},
                 {"malformed_packets", std::to_string(ss.packets_malformed)},
                 {"overload_evicted", std::to_string(ss.flows_evicted_overload)}});
    if (strict) {
      logger.error("classify", "corrupt capture (strict mode)");
      return 1;
    }
  }
  if (rs.frames_read == 0) {
    logger.error("classify", "no parseable frames in capture",
                 {{"path", args.positional[0]}});
    return 1;
  }

  // Observability outputs are written on every exit path past this point.
  const auto flush_obs = [&](std::uint64_t flows) {
    metrics.counter(obs::family("tamper_classify_flows_total"))
        .increment_to(flows);
    if (!metrics_path.empty() && !write_metrics_files(metrics, metrics_path))
      logger.warn("classify", "metrics write failed", {{"path", metrics_path}});
    if (tracer && !write_file_atomic(trace_path, tracer->chrome_json()))
      logger.warn("classify", "trace write failed", {{"path", trace_path}});
  };

  core::SignatureClassifier classifier;
  if (args.has("json")) {
    obs::Tracer::Span classify_span(tracer.get(), obs::stage::kClassify,
                                    obs::stage::kCategory);
    common::JsonWriter json(std::cout);
    json.begin_array();
    for (const auto& sample : samples) {
      const auto verdict = classifier.classify(sample);
      json.begin_object();
      json.kv("client", sample.client_ip.to_string() + ":" +
                            std::to_string(sample.client_port));
      json.kv("server", sample.server_ip.to_string() + ":" +
                            std::to_string(sample.server_port));
      json.kv("packets", static_cast<std::uint64_t>(sample.packets.size()));
      json.kv("possibly_tampered", verdict.possibly_tampered);
      if (verdict.signature)
        json.kv("signature", core::ascii_name(*verdict.signature));
      else
        json.key("signature").null();
      json.kv("stage", core::name(verdict.stage));
      json.end_object();
    }
    json.end_array();
    std::cout << '\n';
    classify_span.finish();
    flush_obs(samples.size());
    return interrupted ? 128 + service::ShutdownGuard::pending() : 0;
  }

  common::LabelCounter verdicts;
  {
    obs::Tracer::Span classify_span(tracer.get(), obs::stage::kClassify,
                                    obs::stage::kCategory);
    for (const auto& sample : samples) {
      const auto verdict = classifier.classify(sample);
      verdicts.add(verdict.signature
                       ? std::string(core::name(*verdict.signature))
                       : (verdict.possibly_tampered ? "(possibly tampered, unmatched)"
                                                    : "Not Tampering"));
    }
  }
  std::cout << "frames: " << reader.frames_read() << ", flows: " << samples.size()
            << "\n\n";
  common::TextTable table({"Verdict", "Flows"});
  for (const auto& [label, count] : verdicts.top(32))
    table.add_row({label, common::TextTable::num(count)});
  table.print(std::cout);
  flush_obs(samples.size());
  return interrupted ? 128 + service::ShutdownGuard::pending() : 0;
}

int cmd_simulate(const Args& args) {
  const std::uint64_t connections = args.get_u64("connections", 100'000);
  const std::uint64_t seed = args.get_u64("seed", 42);

  world::WorldConfig world_cfg;
  world_cfg.seed = seed;
  world::World world(world_cfg);
  world::TrafficConfig traffic;
  traffic.seed = seed ^ 0x51;
  analysis::Pipeline pipeline(world);

  std::ofstream pcap_out;
  std::unique_ptr<net::PcapWriter> pcap;
  if (args.has("pcap")) {
    pcap_out.open(args.get("pcap"), std::ios::binary);
    if (!pcap_out) {
      std::cerr << "cannot open " << args.get("pcap") << " for writing\n";
      return 1;
    }
    pcap = std::make_unique<net::PcapWriter>(pcap_out);
    traffic.keep_raw_inbound = true;
  }
  world::TrafficGenerator generator(world, traffic);

  generator.generate(connections, [&](world::LabeledConnection&& conn) {
    pipeline.ingest(conn.sample);
    if (pcap && conn.truth.tampered) {
      for (const auto& pkt : conn.raw_inbound) pcap->write(pkt);
    }
  });

  const auto& matrix = pipeline.signatures();
  std::cout << "connections:       " << matrix.total_connections() << '\n'
            << "possibly tampered: "
            << common::TextTable::pct(
                   common::percent(matrix.possibly_tampered(), matrix.total_connections()))
            << '\n'
            << "signature matches: "
            << common::TextTable::pct(
                   common::percent(matrix.matched(), matrix.total_connections()))
            << "\n\n";
  common::TextTable table({"Country", "Connections", "Match %"});
  for (const auto& cc : matrix.countries()) {
    if (cc == "??" || matrix.country_connections(cc) < 500) continue;
    table.add_row({cc, common::TextTable::num(matrix.country_connections(cc)),
                   common::TextTable::pct(common::percent(
                       matrix.country_matches(cc), matrix.country_connections(cc)))});
  }
  table.print(std::cout);

  if (args.has("json")) {
    std::ofstream json_out(args.get("json"));
    if (!json_out) {
      std::cerr << "cannot open " << args.get("json") << " for writing\n";
      return 1;
    }
    analysis::write_radar_report(json_out, pipeline);
    std::cout << "\nJSON report written to " << args.get("json") << '\n';
  }
  if (pcap) {
    std::cout << "tampered-connection pcap written to " << args.get("pcap") << " ("
              << pcap->packets_written() << " packets)\n";
  }
  return 0;
}

int cmd_testlists(const Args& args) {
  const std::string region = args.get("region", "CN");
  const std::uint64_t connections = args.get_u64("connections", 150'000);

  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0x7e57;
  world::TrafficGenerator generator(world, traffic);
  analysis::Pipeline pipeline(world);
  pipeline.run(generator, connections);

  const std::uint64_t threshold = std::max<std::uint64_t>(2, connections / 150'000);
  const auto observed = pipeline.categories().tampered_domains(region, threshold);
  std::cout << "region " << region << ": " << observed.size()
            << " passively observed tampered domains\n\n";
  if (observed.empty()) return 0;

  analysis::TestListBuilder builder(world, 0x5eed);
  common::TextTable table({"List", "#Entries", "Exact", "Substring"});
  for (const auto& list : builder.standard_battery()) {
    const analysis::Coverage c = analysis::audit_coverage(list, observed);
    table.add_row({list.name, common::TextTable::num(std::uint64_t{list.entries.size()}),
                   common::TextTable::pct(c.exact_pct()),
                   common::TextTable::pct(c.substring_pct())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_watch(const Args& args) {
  const std::uint64_t connections = args.get_u64("connections", 200'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::string report_path = args.get("report", "tamperscope-report.json");
  const std::string metrics_path = args.get("metrics-out");
  const std::string trace_path = args.get("trace-out");
  const std::string timeseries_path = args.get("timeseries-out");
  obs::Logger logger = make_logger(args);

  obs::Registry metrics;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) {
    obs::Tracer::Config trace_cfg;
    trace_cfg.capacity = args.get_u64("trace-capacity", 4096);
    tracer = std::make_unique<obs::Tracer>(obs::monotonic_clock(), trace_cfg);
  }

  service::ServiceConfig cfg;
  cfg.checkpoint_path = args.get("checkpoint");
  cfg.checkpoint_every_samples = args.get_u64("checkpoint-every", 5000);
  cfg.report_every_samples = args.get_u64("report-every", 0);
  cfg.queue_capacity = args.get_u64("queue", 4096);
  cfg.queue_policy = args.has("shed") ? common::QueuePolicy::kShed
                                      : common::QueuePolicy::kBlock;
  cfg.metrics = &metrics;
  cfg.tracer = tracer.get();
  cfg.logger = &logger;
  cfg.trends.epoch_length_sec =
      static_cast<std::int64_t>(args.get_u64("epoch-sec", 3600));
  if (args.has("overload")) {
    cfg.overload.enabled = true;
    cfg.overload.admit_rate_per_sec =
        static_cast<double>(args.get_u64("admit-rate", 0));
    cfg.overload.admit_burst = static_cast<double>(args.get_u64("admit-burst", 0));
  }

  world::WorldConfig world_cfg;
  world_cfg.seed = seed;
  world::World world(world_cfg);
  world::TrafficConfig traffic;
  traffic.seed = seed ^ 0x51;
  world::TrafficGenerator generator(world, traffic);

  service::FileSink sink(report_path);
  service::ReportEmitter emitter(sink, service::RetryPolicy{}, args.get("spool"),
                                 seed ^ 0x3e9d);
  service::SupervisedService svc(world, cfg, &emitter);

  const auto resume = args.has("fresh") ? service::SupervisedService::Resume::kFresh
                                        : service::SupervisedService::Resume::kResumeOrFresh;
  if (!svc.start(resume)) {
    // A corrupt checkpoint is refused, never silently discarded: state loss
    // must be an explicit operator decision (--fresh).
    logger.error("watch", "service refused to start", {{"error", svc.error()}});
    logger.info("watch", "pass --fresh to discard the checkpoint and start over");
    return 1;
  }

  // Periodic observability snapshots; the final flush after stop() (below)
  // runs even on SIGTERM-drain so a partial run still leaves a complete
  // Prometheus file and a Perfetto-loadable trace behind.
  const auto flush_snapshots = [&] {
    if (!metrics_path.empty() && !write_metrics_files(metrics, metrics_path))
      logger.warn("watch", "metrics snapshot write failed", {{"path", metrics_path}});
    if (tracer && !write_file_atomic(trace_path, tracer->chrome_json()))
      logger.warn("watch", "trace write failed", {{"path", trace_path}});
  };
  std::unique_ptr<SnapshotFlusher> flusher;
  if (!metrics_path.empty() || tracer)
    flusher = std::make_unique<SnapshotFlusher>(
        flush_snapshots,
        std::chrono::milliseconds(args.get_u64("metrics-interval", 1000)));

  install_signal_handlers();
  std::uint64_t submitted = 0;
  // Direct generate_one loop (not generator.generate) so a signal stops
  // the offered load immediately instead of discarding the remainder of a
  // large --connections run one connection at a time.
  for (std::uint64_t i = 0; i < connections; ++i) {
    if (service::ShutdownGuard::requested() || svc.failed()) break;
    if (svc.submit(generator.generate_one().sample)) ++submitted;
  }

  const bool interrupted = service::ShutdownGuard::requested();
  if (interrupted)
    logger.warn("watch", "signal received; draining queue, writing final checkpoint + report",
                {{"signal", std::to_string(service::ShutdownGuard::pending())}});
  const service::RunSummary s = svc.stop();
  if (flusher) flusher->stop();
  flush_snapshots();
  if (!metrics_path.empty())
    logger.info("watch", "final metrics snapshot written",
                {{"prometheus", metrics_path}, {"json", metrics_path + ".json"}});
  if (tracer)
    logger.info("watch", "trace written",
                {{"path", trace_path},
                 {"events", std::to_string(tracer->size())},
                 {"dropped", std::to_string(tracer->dropped())}});

  // The worker is joined (stop() above), so the pipeline's epoch ring and
  // the watchdog's last scan are stable to read from this thread.
  if (!timeseries_path.empty()) {
    obs::TimeseriesScope scope;
    scope.name = "local";
    scope.ring = &svc.pipeline().trends();
    scope.anomalies = svc.anomalies().events;
    std::ostringstream ts;
    obs::write_timeseries_json(ts, {scope},
                               svc.pipeline().trends().config().epoch_length_sec);
    if (!write_file_atomic(timeseries_path, ts.str()))
      logger.warn("watch", "timeseries write failed", {{"path", timeseries_path}});
    else
      logger.info("watch", "timeseries written",
                  {{"path", timeseries_path},
                   {"series", std::to_string(svc.pipeline().trends().series().size())},
                   {"anomalies", std::to_string(svc.anomalies().events.size())}});
  }

  std::cout << "ingested:      " << s.ingested
            << (s.restored ? " (" + std::to_string(s.restored_samples) + " restored from checkpoint)"
                           : std::string())
            << '\n'
            << "submitted:     " << submitted << '\n'
            << "checkpoints:   " << s.checkpoints_written << " written, "
            << s.checkpoint_failures << " failed\n"
            << "reports:       " << s.reports_emitted << " emitted -> " << sink.describe()
            << '\n'
            << "queue:         " << s.queue.pushed << " pushed, " << s.queue.shed_total()
            << " shed (" << s.queue.shed_low_value << " embryonic), " << s.queue.push_waits
            << " producer waits\n"
            << "supervision:   " << s.worker_crashes << " crashes, " << s.worker_restarts
            << " restarts, " << s.stalls_detected << " stalls\n";
  if (args.has("overload")) {
    const control::OverloadStats& o = s.overload;
    std::cout << "overload:      level " << control::name(o.level) << " (peak "
              << control::name(o.peak_level) << "), " << o.offered << " offered, "
              << o.admitted << " admitted, " << o.shed_total() << " shed ("
              << o.rate_limited << " rate-limited, " << o.sampled_down
              << " sampled down, " << o.embryonic_shed << " embryonic, "
              << o.rejected << " rejected)\n"
              << "backpressure:  " << o.escalations << " escalations, "
              << o.deescalations << " de-escalations, " << o.breaker_trips
              << " breaker trips, " << o.reports_skipped << " reports skipped\n";
  }
  if (s.failed) {
    logger.error("watch", "service failed", {{"error", s.failure}});
    return 1;
  }
  return interrupted ? 128 + service::ShutdownGuard::pending() : 0;
}

/// Exit code for an identifier that fails the id grammar or names nothing
/// (an out-of-range PoP, an unknown scope) — distinct from 2 (usage error)
/// and 1 (runtime/I-O failure), so scripts can tell a typo'd id apart from
/// a broken run.
constexpr int kExitUnknownId = 4;

/// Validate a --kill-pop/--lose-pop value against the fleet size. Accepts
/// a bare number or the rendered "pop:<N>" form. The old strtoull path read
/// junk as PoP 0 and indexed out-of-range ids straight past the PoP vector.
std::optional<common::PopId> parse_pop_option(const Args& args,
                                              const std::string& name,
                                              std::uint32_t pops,
                                              obs::Logger& logger) {
  const std::string text = args.get(name);
  const auto pop = common::parse_id<common::PopId>(text);
  if (!pop) {
    logger.error("fleet", "unparseable PoP id (want a number or pop:<N>)",
                 {{"option", "--" + name}, {"value", text}});
    return std::nullopt;
  }
  if (pop->value() >= pops) {
    logger.error("fleet", "unknown PoP",
                 {{"option", "--" + name},
                  {"value", common::format(*pop)},
                  {"pops", std::to_string(pops)}});
    return std::nullopt;
  }
  return pop;
}

int cmd_fleet(const Args& args) {
  const std::uint64_t connections = args.get_u64("connections", 20'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const auto pops = static_cast<std::uint32_t>(
      args.get_u64("pops", 3, 1, std::numeric_limits<std::uint32_t>::max()));
  const std::string state_dir = args.get("state", "tamperscope-fleet");
  const std::string report_path = args.get("report", "tamperscope-fleet.json");
  const std::string metrics_path = args.get("metrics-out");
  obs::Logger logger = make_logger(args);

  // Chaos ids are validated up front: a typo must fail before the run, not
  // crash (or silently hit PoP 0) halfway through it.
  std::optional<common::PopId> kill_pop, lose_pop;
  if (args.has("kill-pop")) {
    kill_pop = parse_pop_option(args, "kill-pop", pops, logger);
    if (!kill_pop) return kExitUnknownId;
  }
  if (args.has("lose-pop")) {
    lose_pop = parse_pop_option(args, "lose-pop", pops, logger);
    if (!lose_pop) return kExitUnknownId;
  }

  world::WorldConfig world_cfg;
  world_cfg.seed = seed;
  world::World world(world_cfg);
  world::TrafficConfig traffic;
  traffic.seed = seed ^ 0x51;
  world::TrafficGenerator generator(world, traffic);

  // Feed in timestamp order so each PoP's epoch (derived from its latest
  // observed timestamp) advances monotonically — the generator jitters.
  std::vector<capture::ConnectionSample> samples;
  samples.reserve(connections);
  for (std::uint64_t i = 0; i < connections; ++i)
    samples.push_back(generator.generate_one().sample);
  std::stable_sort(samples.begin(), samples.end(),
                   [](const capture::ConnectionSample& a,
                      const capture::ConnectionSample& b) {
                     return a.observation_end_sec < b.observation_end_sec;
                   });

  fleet::FleetConfig fc;
  fc.pops = pops;
  fc.seed = seed;
  fc.state_dir = state_dir;
  fc.report_every_samples = args.get_u64("report-every", 2000);
  fc.checkpoint_every_samples = args.get_u64("checkpoint-every", 1000);
  // Declared before the Fleet: the merger unregisters its collector on
  // destruction, so the registry must outlive it.
  obs::Registry merger_metrics;
  fleet::Fleet fleet(world, fc);
  fleet.merger().set_obs(&merger_metrics);

  std::uint64_t submitted = 0, unobserved = 0;
  for (std::uint64_t i = 0; i < samples.size(); ++i) {
    if (i == samples.size() / 2) {
      if (kill_pop) {
        fleet.kill_pop(*kill_pop);
        const bool resumed = fleet.restart_pop(*kill_pop);
        logger.info("fleet", resumed ? "PoP killed and resumed from checkpoint"
                                     : "PoP killed; restart FAILED",
                    {{"pop", common::format(*kill_pop)}});
      }
      if (lose_pop) {
        fleet.kill_pop(*lose_pop);
        fleet.withdraw_pop(*lose_pop);
        logger.warn("fleet", "PoP lost for good; anycast withdrawn",
                    {{"pop", common::format(*lose_pop)}});
      }
    }
    if (fleet.submit(samples[i]))
      ++submitted;
    else
      ++unobserved;
  }
  const auto summaries = fleet.stop();

  if (!write_file_atomic(report_path, fleet.merger().merged_report())) {
    logger.error("fleet", "cannot write merged report", {{"path", report_path}});
    return 1;
  }
  if (!metrics_path.empty() && !write_metrics_files(merger_metrics, metrics_path))
    logger.warn("fleet", "metrics snapshot write failed", {{"path", metrics_path}});
  const std::string timeseries_path = args.get("timeseries-out");
  if (!timeseries_path.empty()) {
    if (!write_file_atomic(timeseries_path, fleet.merger().timeseries_dump()))
      logger.warn("fleet", "timeseries write failed", {{"path", timeseries_path}});
    else
      std::cout << "fleet timeseries: " << timeseries_path << '\n';
  }

  const analysis::FleetCoverage coverage = fleet.merger().coverage();
  const fleet::Merger::Stats ms = fleet.merger().stats();
  std::cout << "fleet:        " << pops << " PoPs, " << submitted << " samples routed";
  if (unobserved > 0) std::cout << ", " << unobserved << " unobserved";
  std::cout << '\n';
  common::TextTable table({"PoP", "Status", "Last epoch", "Samples", "Crashes"});
  for (const auto& pop : coverage.pops) {
    const service::RunSummary& s = summaries[pop.pop.value()];
    table.add_row({common::format(pop.pop), pop.status,
                   common::TextTable::num(pop.last_epoch.value()),
                   common::TextTable::num(pop.samples),
                   common::TextTable::num(s.worker_crashes)});
  }
  table.print(std::cout);
  std::cout << "merger:       " << ms.accepted << " partials merged (" << ms.received
            << " received, " << ms.duplicates << " duplicate, " << ms.stale
            << " stale, " << ms.late << " late, " << ms.rejected << " rejected)\n"
            << "coverage:     " << coverage.pops_reporting << "/"
            << coverage.pops_expected << " PoPs reporting, watermark epoch "
            << coverage.watermark << (coverage.degraded ? " [DEGRADED]" : "") << '\n'
            << "merged report: " << report_path << '\n';
  return 0;
}

/// One `top` frame: pure function of the merger's current partial set (and
/// the frame/offered counters), so equal seeds render equal frames.
void render_top_frame(const fleet::Merger& merger, std::uint64_t frame,
                      std::uint64_t frames, std::uint64_t offered,
                      std::uint64_t total) {
  const auto merged = merger.merged_pipeline();
  const analysis::FleetCoverage cov = merger.coverage();
  const fleet::Merger::FleetTrends trends = merger.fleet_trends(*merged, cov);
  const auto& matrix = merged->signatures();

  std::cout << "tamperscope top — frame " << frame << "/" << frames << ", "
            << offered << "/" << total << " samples offered\n"
            << "merged:    " << matrix.total_connections()
            << " connections, possibly tampered "
            << common::TextTable::pct(common::percent(matrix.possibly_tampered(),
                                                      matrix.total_connections()))
            << ", signature matched "
            << common::TextTable::pct(
                   common::percent(matrix.matched(), matrix.total_connections()))
            << '\n'
            << "coverage:  " << cov.pops_reporting << "/" << cov.pops_expected
            << " PoPs reporting, watermark epoch " << cov.watermark
            << (cov.degraded ? " [DEGRADED]" : "") << ", anomalies: "
            << trends.scan.events.size();
  if (!trends.scan.events.empty()) {
    const obs::AnomalyEvent& last = trends.scan.events.back();
    std::cout << " (last: " << last.family
              << (last.label.empty() ? "" : "{" + last.label + "}") << " @ epoch "
              << last.epoch << ")";
  }
  std::cout << "\n\n";

  // Signature leaders (by matched connections).
  std::vector<std::pair<std::string, std::uint64_t>> sigs;
  for (core::Signature sig : core::all_signatures()) {
    const std::uint64_t n = matrix.signature_total(sig);
    if (n > 0) sigs.emplace_back(std::string(core::name(sig)), n);
  }
  std::stable_sort(sigs.begin(), sigs.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (sigs.size() > 5) sigs.resize(5);
  common::TextTable sig_table({"Top signature", "Matches"});
  for (const auto& [name, n] : sigs)
    sig_table.add_row({name, common::TextTable::num(n)});
  sig_table.print(std::cout);

  // Country leaders (by matched connections; ties broken by country code).
  std::vector<std::pair<std::string, std::uint64_t>> countries;
  for (const std::string& cc : matrix.countries()) {
    const std::uint64_t n = matrix.country_matches(cc);
    if (n > 0) countries.emplace_back(cc, n);
  }
  std::stable_sort(countries.begin(), countries.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (countries.size() > 5) countries.resize(5);
  common::TextTable cc_table({"Top country", "Matches", "Connections"});
  for (const auto& [cc, n] : countries)
    cc_table.add_row({cc, common::TextTable::num(n),
                      common::TextTable::num(matrix.country_connections(cc))});
  cc_table.print(std::cout);

  common::TextTable pop_table({"PoP", "Status", "Last epoch", "Samples",
                               "Overload", "Shed"});
  for (const analysis::FleetPopStatus& pop : cov.pops)
    pop_table.add_row({common::format(pop.pop), pop.status,
                       common::TextTable::num(pop.last_epoch.value()),
                       common::TextTable::num(pop.samples), pop.overload,
                       common::TextTable::num(pop.shed_samples)});
  pop_table.print(std::cout);
  std::cout << std::flush;
}

int cmd_top(const Args& args) {
  const std::uint64_t connections = args.get_u64("connections", 20'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const auto pops = static_cast<std::uint32_t>(
      args.get_u64("pops", 3, 1, std::numeric_limits<std::uint32_t>::max()));
  const std::uint64_t frames = std::max<std::uint64_t>(1, args.get_u64("frames", 8));
  const std::uint64_t interval_ms = args.get_u64("interval", 0);
  const bool clear = args.has("clear");
  const std::string state_dir = args.get("state", "tamperscope-top");

  world::WorldConfig world_cfg;
  world_cfg.seed = seed;
  world::World world(world_cfg);
  world::TrafficConfig traffic;
  traffic.seed = seed ^ 0x51;
  world::TrafficGenerator generator(world, traffic);

  // Same timestamp-ordered feed as `fleet`, so PoP epochs advance
  // monotonically and frames at equal offsets see equal merged state.
  std::vector<capture::ConnectionSample> samples;
  samples.reserve(connections);
  for (std::uint64_t i = 0; i < connections; ++i)
    samples.push_back(generator.generate_one().sample);
  std::stable_sort(samples.begin(), samples.end(),
                   [](const capture::ConnectionSample& a,
                      const capture::ConnectionSample& b) {
                     return a.observation_end_sec < b.observation_end_sec;
                   });

  fleet::FleetConfig fc;
  fc.pops = pops;
  fc.seed = seed;
  fc.state_dir = state_dir;
  fc.report_every_samples = args.get_u64("report-every", 1000);
  fc.checkpoint_every_samples = args.get_u64("checkpoint-every", 500);
  if (args.has("overload")) {
    fc.overload.enabled = true;
    fc.overload.admit_rate_per_sec =
        static_cast<double>(args.get_u64("admit-rate", 0));
    fc.overload.admit_burst = static_cast<double>(args.get_u64("admit-burst", 0));
  }
  obs::Registry merger_metrics;
  fleet::Fleet fleet(world, fc);
  fleet.merger().set_obs(&merger_metrics);
  install_signal_handlers();

  const std::uint64_t chunk = (samples.size() + frames - 1) / frames;
  std::uint64_t offered = 0;
  bool interrupted = false;
  for (std::uint64_t f = 0; f < frames && offered < samples.size(); ++f) {
    const std::uint64_t end =
        std::min<std::uint64_t>(samples.size(), offered + chunk);
    for (; offered < end; ++offered) (void)fleet.submit(samples[offered]);
    // Quiesce every PoP: partials are emitted synchronously at report
    // boundaries by each worker, so after this the merged state is the pure
    // function of the feed position the frame claims to show.
    for (std::uint32_t p = 0; p < pops; ++p) fleet.quiesce_pop(common::PopId(p));
    if (clear) std::cout << "\x1b[2J\x1b[H";
    render_top_frame(fleet.merger(), f + 1, frames, offered, samples.size());
    if (service::ShutdownGuard::requested()) {
      interrupted = true;
      break;
    }
    if (interval_ms > 0 && offered < samples.size())
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  (void)fleet.stop();
  return interrupted ? 128 + service::ShutdownGuard::pending() : 0;
}

int cmd_trends(const Args& args) {
  std::string path = args.get("checkpoint");
  if (path.empty() && !args.positional.empty()) path = args.positional[0];
  if (path.empty()) {
    std::cerr << "usage: tamperscope trends (--checkpoint PATH | PATH) [--json OUT]\n"
                 "                          [--scope local|fleet|pop:<N>] [--seed S]\n";
    return 2;
  }
  const std::uint64_t seed = args.get_u64("seed", 42);
  obs::Logger logger = make_logger(args);

  // --scope labels the emitted timeseries scope (a checkpoint from a fleet
  // PoP is "pop:<N>", a monolith's is "local"). Validate the grammar up
  // front so a typo fails before the checkpoint is even opened.
  common::ScopeName scope_name;  // default: local
  if (args.has("scope")) {
    const auto parsed = common::parse_scope(args.get("scope"));
    if (!parsed) {
      logger.error("trends", "unknown scope (want local, fleet, or pop:<N>)",
                   {{"value", args.get("scope")}});
      return kExitUnknownId;
    }
    scope_name = *parsed;
  }

  world::WorldConfig world_cfg;
  world_cfg.seed = seed;
  world::World world(world_cfg);
  analysis::Pipeline pipeline(world);
  const service::LoadResult loaded = service::load_checkpoint(path, pipeline);
  if (!loaded.ok) {
    logger.error("trends", "cannot load checkpoint",
                 {{"path", path}, {"error", loaded.error}});
    return 1;
  }

  const obs::EpochRing& ring = pipeline.trends();
  if (ring.empty()) {
    std::cout << "checkpoint " << path << ": " << loaded.meta.samples_ingested
              << " samples ingested, no trend history (the service never "
                 "crossed a checkpoint/report boundary)\n";
    return 0;
  }

  // Re-derive the anomaly scan the resident watchdog would publish — the
  // scan is a pure function of the ring, so offline and online agree.
  const std::set<std::int64_t> degraded =
      obs::epochs_where_rising(ring, "degraded");
  const obs::AnomalyScan scan = obs::scan_anomalies(
      ring, obs::default_series_catalog(), obs::AnomalyConfig{}, degraded);

  std::cout << "checkpoint: " << path << " (" << loaded.meta.samples_ingested
            << " samples ingested, sequence " << loaded.meta.sequence << ")\n"
            << "history:    epochs " << ring.min_epoch() << ".." << ring.max_epoch()
            << " (" << ring.config().epoch_length_sec << " s each), "
            << ring.series().size() << " series, " << ring.point_count()
            << " points (" << ring.dropped_points() << " dropped)\n"
            << "anomalies:  " << scan.events.size() << " event(s), "
            << scan.points_scanned << " deltas scanned, "
            << scan.suppressed_degraded << " suppressed degraded, "
            << scan.suppressed_gap << " suppressed gap\n\n";

  common::TextTable table({"Series", "Points", "Last epoch", "Last value"});
  std::size_t rows = 0;
  for (const auto& [key, data] : ring.series()) {
    if (++rows > 32) break;  // ring cardinality is bounded, but keep it scannable
    const auto last = data.points.rbegin();
    std::ostringstream value;
    value << last->second;
    table.add_row({key.label.empty() ? key.family
                                     : key.family + "{" + key.label + "}",
                   common::TextTable::num(std::uint64_t{data.points.size()}),
                   common::TextTable::num(static_cast<std::uint64_t>(last->first)),
                   value.str()});
  }
  table.print(std::cout);
  if (ring.series().size() > 32)
    std::cout << "(" << ring.series().size() - 32 << " more series; use --json for all)\n";

  if (!scan.events.empty()) {
    std::cout << '\n';
    common::TextTable anomalies({"Anomaly", "Epoch", "Delta", "Expected", "Score"});
    for (const obs::AnomalyEvent& e : scan.events) {
      std::ostringstream delta, expected, score;
      delta << e.delta;
      expected << e.expected;
      score << e.score;
      anomalies.add_row({e.label.empty() ? e.family : e.family + "{" + e.label + "}",
                         common::TextTable::num(static_cast<std::uint64_t>(e.epoch)),
                         delta.str(), expected.str(), score.str()});
    }
    anomalies.print(std::cout);
  }

  if (args.has("json")) {
    obs::TimeseriesScope scope;
    scope.name = scope_name.str();
    scope.ring = &ring;
    scope.anomalies = scan.events;
    std::ostringstream ts;
    obs::write_timeseries_json(ts, {scope}, ring.config().epoch_length_sec);
    const std::string out_path = args.get("json");
    if (!write_file_atomic(out_path, ts.str())) {
      logger.error("trends", "cannot write timeseries", {{"path", out_path}});
      return 1;
    }
    std::cout << "\ntimeseries written to " << out_path << '\n';
  }
  return 0;
}

const std::vector<Command> kCommands = {
    {"signatures", cmd_signatures, {}},
    {"classify", cmd_classify,
     {"metrics-out", "trace-out", "log-level", "log-format"},
     {"json", "strict", "lenient"}},
    {"simulate", cmd_simulate, {"connections", "seed", "json", "pcap"}},
    {"testlists", cmd_testlists, {"region", "connections"}},
    {"watch", cmd_watch,
     {"connections", "seed", "checkpoint", "report", "spool", "queue", "checkpoint-every",
      "report-every", "metrics-out", "metrics-interval", "trace-out", "trace-capacity",
      "admit-rate", "admit-burst", "timeseries-out", "epoch-sec", "log-level", "log-format"},
     {"fresh", "shed", "overload"}},
    {"fleet", cmd_fleet,
     {"pops", "connections", "seed", "state", "report", "report-every",
      "checkpoint-every", "kill-pop", "lose-pop", "metrics-out", "timeseries-out",
      "log-level", "log-format"}},
    {"top", cmd_top,
     {"pops", "connections", "seed", "frames", "interval", "state", "report-every",
      "checkpoint-every", "admit-rate", "admit-burst"},
     {"clear", "overload"}},
    {"trends", cmd_trends, {"checkpoint", "json", "seed", "scope", "log-level", "log-format"}},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    for (const Command& c : kCommands)
      if (c.name == command) return c.run(parse_args(c, argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: tamperscope <signatures|classify|simulate|testlists|watch|fleet|top|trends> [options]\n"
               "  signatures                         print the Table 1 taxonomy\n"
               "  classify <pcap> [--json] [--strict|--lenient]\n"
               "           [--metrics-out PATH] [--trace-out PATH]\n"
               "                                     classify flows from a capture\n"
               "                                     (lenient default: skip corrupt records,\n"
               "                                     print a degraded-input summary; strict:\n"
               "                                     exit 1 on any corruption)\n"
               "  simulate [--connections N] [--seed S] [--json out.json] [--pcap out.pcap]\n"
               "  testlists [--region CC] [--connections N]\n"
               "  watch [--connections N] [--seed S] [--checkpoint FILE] [--fresh]\n"
               "        [--report out.json] [--spool DIR] [--queue N] [--shed]\n"
               "        [--checkpoint-every N] [--report-every N]\n"
               "        [--metrics-out PATH] [--metrics-interval MS] [--trace-out PATH]\n"
               "        [--overload] [--admit-rate N] [--admit-burst N]\n"
               "        [--timeseries-out PATH] [--epoch-sec N]\n"
               "                                     run the pipeline as a supervised\n"
               "                                     streaming service; SIGINT/SIGTERM drain,\n"
               "                                     checkpoint, and emit a final report (a\n"
               "                                     second signal force-exits with 128+sig);\n"
               "                                     --overload enables admission control +\n"
               "                                     the degradation ladder;\n"
               "                                     --metrics-out writes Prometheus text +\n"
               "                                     PATH.json snapshots, --trace-out a\n"
               "                                     Perfetto-loadable stage trace\n"
               "  fleet [--pops N] [--connections N] [--seed S] [--state DIR]\n"
               "        [--report out.json] [--report-every N] [--checkpoint-every N]\n"
               "        [--kill-pop P] [--lose-pop P] [--metrics-out PATH]\n"
               "        [--timeseries-out PATH]\n"
               "                                     run N anycast-routed PoP services\n"
               "                                     streaming epoch-tagged partials to a\n"
               "                                     central merger; --kill-pop crashes and\n"
               "                                     resumes PoP P mid-run, --lose-pop\n"
               "                                     crashes it for good (merged report\n"
               "                                     flags degraded epochs);\n"
               "                                     --timeseries-out dumps the merger's\n"
               "                                     tamper-timeseries/1 document\n"
               "  top [--pops N] [--connections N] [--seed S] [--frames N]\n"
               "      [--interval MS] [--clear] [--state DIR] [--overload]\n"
               "                                     live dashboard over a seeded fleet\n"
               "                                     campaign: merged totals, signature and\n"
               "                                     country leaders, PoP health + overload\n"
               "                                     ladder, coverage, anomaly scan; frame\n"
               "                                     content is deterministic per seed\n"
               "  trends (--checkpoint PATH | PATH) [--json OUT] [--seed S]\n"
               "         [--scope local|fleet|pop:<N>]\n"
               "                                     offline query of the trend history a\n"
               "                                     checkpoint carries: series, coverage,\n"
               "                                     anomaly scan; --json writes the\n"
               "                                     tamper-timeseries/1 document, --scope\n"
               "                                     labels it (a PoP checkpoint is pop:<N>)\n"
               "  classify, watch, fleet, trends also take:\n"
               "         --log-level debug|info|warn|error, --log-format text|json\n"
               "  an option a subcommand does not read is a usage error (exit 2)\n";
  return command.empty() ? 2 : 1;
}

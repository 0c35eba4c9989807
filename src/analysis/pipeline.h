// One-stop analysis pipeline: classify each sampled connection, attribute
// it, and feed every aggregator. Benches and examples run a scenario
// through a Pipeline and then read the aggregates behind each table/figure.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include "analysis/aggregates.h"
#include "analysis/evidence.h"
#include "analysis/record.h"
#include "capture/sampler.h"
#include "common/binio.h"
#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/classifier.h"
#include "core/scanner.h"
#include "net/pcap.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper::analysis {

/// Degraded-input accounting: everything the ingest path dropped, clamped
/// or force-closed instead of crashing on. Exported by analysis::report so
/// operational skew from hostile/corrupt input is visible next to the
/// aggregates it may have biased.
struct DegradedStats {
  std::uint64_t empty_samples = 0;        ///< flows with zero logged packets
  std::uint64_t ingest_errors = 0;        ///< exceptions swallowed by ingest()
  std::uint64_t malformed_packets = 0;    ///< sampler: hostile/garbage packets
  std::uint64_t overload_evicted = 0;     ///< sampler: flows closed at max_flows
  std::uint64_t unparseable_frames = 0;   ///< reader: non-IP / parse failures
  std::uint64_t oversize_frames = 0;      ///< reader: hostile incl_len skipped
  std::uint64_t truncated_frames = 0;     ///< reader: short records
  std::uint64_t queue_shed_embryonic = 0; ///< service: backpressure shed (embryonic)
  std::uint64_t queue_shed_other = 0;     ///< service: backpressure shed (forced)
  std::uint64_t spool_replay_failures = 0; ///< sink: spooled reports lost at replay
  std::uint64_t spool_dropped = 0;         ///< sink: spool cap evictions (oldest-first)
  // Overload-control admission refusals (control::OverloadController), by
  // DropReason — every sample the admission gate turned away, so shed load
  // is visible next to the aggregates it thinned.
  std::uint64_t admission_rate_limited = 0;   ///< token bucket empty
  std::uint64_t admission_sampled_down = 0;   ///< ladder stride skipped it
  std::uint64_t admission_embryonic_shed = 0; ///< embryonic shed at admission
  std::uint64_t admission_rejected = 0;       ///< kShedding refused the flow

  [[nodiscard]] std::uint64_t total() const noexcept;

  /// Coverage loss: samples/flows removed from aggregation entirely — what
  /// the anomaly watchdog's `degraded` trends series tracks (DESIGN.md §12).
  /// Excludes input *noise* that biases no rate (empty flows, malformed
  /// packets inside an observed flow) and report-delivery losses (spool_*,
  /// surfaced at the merger as missing partials): a stray junk flow per
  /// epoch must not blind the watchdog for that epoch.
  [[nodiscard]] std::uint64_t coverage_loss() const noexcept;
};

/// One DegradedStats counter. The table below is the only list of them:
/// total(), coverage_loss(), the tamper_pipeline_degraded_total mirror,
/// snapshot/restore/merge and the Radar `degraded_input` block all walk it,
/// in this order (which is also the checkpoint field order).
struct DegradedField {
  std::string_view label;  ///< `cause` label of tamper_pipeline_degraded_total
  std::uint64_t DegradedStats::* member;
  bool coverage_loss;           ///< counts toward coverage_loss()
  std::string_view json_key{};  ///< Radar JSON key when it differs from label
};

inline constexpr std::array<DegradedField, 15> kDegradedFields = {{
    {"empty_samples", &DegradedStats::empty_samples, false},
    {"ingest_errors", &DegradedStats::ingest_errors, true},
    {"malformed_packets", &DegradedStats::malformed_packets, false},
    {"overload_evicted", &DegradedStats::overload_evicted, true, "overload_evicted_flows"},
    {"unparseable_frames", &DegradedStats::unparseable_frames, true},
    {"oversize_frames", &DegradedStats::oversize_frames, true},
    {"truncated_frames", &DegradedStats::truncated_frames, true},
    {"queue_shed_embryonic", &DegradedStats::queue_shed_embryonic, true},
    {"queue_shed_other", &DegradedStats::queue_shed_other, true},
    {"spool_replay_failures", &DegradedStats::spool_replay_failures, false},
    {"spool_dropped", &DegradedStats::spool_dropped, false},
    {"admission_rate_limited", &DegradedStats::admission_rate_limited, true},
    {"admission_sampled_down", &DegradedStats::admission_sampled_down, true},
    {"admission_embryonic_shed", &DegradedStats::admission_embryonic_shed, true},
    {"admission_rejected", &DegradedStats::admission_rejected, true},
}};

inline std::uint64_t DegradedStats::total() const noexcept {
  std::uint64_t sum = 0;
  for (const DegradedField& f : kDegradedFields) sum += this->*f.member;
  return sum;
}

inline std::uint64_t DegradedStats::coverage_loss() const noexcept {
  std::uint64_t sum = 0;
  for (const DegradedField& f : kDegradedFields)
    if (f.coverage_loss) sum += this->*f.member;
  return sum;
}

class Pipeline {
 public:
  explicit Pipeline(const world::World& world);
  ~Pipeline();

  /// Attach observability. The registry gains the tamper_pipeline_* metric
  /// families (see DESIGN.md §9) plus a collector that mirrors the
  /// DegradedStats counters at every snapshot; the tracer (optional)
  /// receives ingest/classify/aggregate spans per sample. The classify
  /// duration histogram is sampled 1-in-64 so the hot path stays a couple
  /// of relaxed fetch_adds. All three must outlive the pipeline.
  void set_obs(obs::Registry* metrics, obs::Tracer* tracer = nullptr,
               const obs::Clock* clock = nullptr);

  /// Classify + attribute one sample and update all aggregators. Never
  /// throws: degraded input is counted (see degraded()) and dropped.
  void ingest(const capture::ConnectionSample& sample) noexcept;

  /// Convenience: run `connections` of generated traffic through the
  /// pipeline (ground truth is dropped on the floor — validation tests use
  /// the generator directly).
  void run(world::TrafficGenerator& generator, std::size_t connections);

  [[nodiscard]] const SignatureMatrix& signatures() const noexcept { return matrix_; }
  [[nodiscard]] const AsnAggregator& asns() const noexcept { return asns_; }
  [[nodiscard]] const TimeSeries& timeseries() const noexcept { return timeseries_; }
  [[nodiscard]] const VersionProtocolAggregator& version_protocol() const noexcept {
    return version_protocol_;
  }
  [[nodiscard]] const CategoryAggregator& categories() const noexcept { return categories_; }
  [[nodiscard]] const OverlapMatrix& overlap() const noexcept { return overlap_; }
  [[nodiscard]] const EvidenceCollector& evidence() const noexcept { return evidence_; }

  struct ScannerStats {
    std::uint64_t connections = 0;
    std::uint64_t no_tcp_options = 0;
    std::uint64_t high_ttl = 0;
    std::uint64_t syn_rst_matches = 0;       ///< connections matching ⟨SYN → RST⟩
    std::uint64_t syn_rst_zmap = 0;          ///< ... attributable to ZMap
    /// The counters in checkpoint order (common/codec.h).
    static auto fields(auto& s) {
      return std::tie(s.connections, s.no_tcp_options, s.high_ttl, s.syn_rst_matches,
                      s.syn_rst_zmap);
    }
  };
  [[nodiscard]] const ScannerStats& scanner_stats() const noexcept { return scanner_; }

  [[nodiscard]] const core::SignatureClassifier& classifier() const noexcept {
    return classifier_;
  }

  /// Degraded-input accounting. Capture-side counters arrive via the
  /// record_* helpers. The source Stats are cumulative, so each helper is
  /// idempotent: it remembers the last snapshot and adds only the delta —
  /// safe to call periodically from a long-running service. A counter that
  /// moves backwards means a fresh source; its full value is re-added.
  ///
  /// Unlike the aggregators (worker-thread-owned until the run ends), the
  /// degraded counters are behind a mutex so a monitoring thread can read
  /// them while the worker is mid-ingest; degraded() returns a consistent
  /// copy.
  [[nodiscard]] DegradedStats degraded() const noexcept TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    return degraded_;
  }
  void record_reader_stats(const net::PcapReader::Stats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    absorb(&DegradedStats::unparseable_frames, s.skipped_unparseable);
    absorb(&DegradedStats::oversize_frames, s.skipped_oversize);
    absorb(&DegradedStats::truncated_frames, s.skipped_truncated);
  }
  void record_sampler_stats(const capture::ConnectionSampler::Stats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    absorb(&DegradedStats::malformed_packets, s.packets_malformed);
    absorb(&DegradedStats::overload_evicted, s.flows_evicted_overload);
  }
  void record_queue_stats(const common::BoundedQueueStats& s) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    absorb(&DegradedStats::queue_shed_embryonic, s.shed_low_value);
    absorb(&DegradedStats::queue_shed_other, s.shed_other);
  }
  /// Report-sink degradation: cumulative counts of spooled reports that
  /// failed replay (quarantined) and of spool-cap evictions — both data
  /// loss an operator must see. Takes plain counters, not the emitter's
  /// Stats struct, so the analysis layer stays below the service layer.
  void record_sink_stats(std::uint64_t spool_replay_failures,
                         std::uint64_t spool_dropped) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    absorb(&DegradedStats::spool_replay_failures, spool_replay_failures);
    absorb(&DegradedStats::spool_dropped, spool_dropped);
  }
  /// Admission-control shed accounting (cumulative, from the overload
  /// controller's stats). Plain counters for the same layering reason as
  /// record_sink_stats: analysis must not depend on control.
  void record_overload_stats(std::uint64_t rate_limited, std::uint64_t sampled_down,
                             std::uint64_t embryonic_shed,
                             std::uint64_t rejected) noexcept
      TAMPER_EXCLUDES(stats_mu_) {
    common::MutexLock lock(stats_mu_);
    absorb(&DegradedStats::admission_rate_limited, rate_limited);
    absorb(&DegradedStats::admission_sampled_down, sampled_down);
    absorb(&DegradedStats::admission_embryonic_shed, embryonic_shed);
    absorb(&DegradedStats::admission_rejected, rejected);
  }

  /// Evidence-only mode (degradation ladder level kEvidenceOnly and above):
  /// ingest skips app-proto (TLS/HTTP) payload parsing and keeps only the
  /// tamper-signature evidence. Safe to flip from any thread; the worker
  /// reads it per sample.
  void set_evidence_only(bool on) noexcept {
    evidence_only_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool evidence_only() const noexcept {
    return evidence_only_.load(std::memory_order_relaxed);
  }

  /// Largest observation_end_sec ingested so far (1-second granularity,
  /// like every timestamp in the capture path — paper §3.2). The fleet
  /// layer derives a partial's epoch from it. Serialized in snapshot(), so
  /// a resumed PoP re-tags its partials with the same epochs.
  [[nodiscard]] std::int64_t latest_ts_sec() const noexcept { return latest_ts_sec_; }

  /// Configure the longitudinal trends ring (epoch width, history depth,
  /// series cap). Resets the ring; call before ingesting. A later restore()
  /// adopts the checkpoint's epoch length regardless.
  void set_trends_config(obs::EpochRingConfig config) {
    trends_ = obs::EpochRing(config);
  }

  /// Sample the trends catalog (obs::default_series_catalog) into the epoch
  /// ring at the current capture time, and mirror the classification
  /// aggregates into the tamper_class_* registry families. Called by the
  /// service at checkpoint/report boundaries, on the worker thread (the
  /// ring and aggregates are worker-owned). Deterministic: values come from
  /// checkpoint-restored state keyed by capture-derived epochs, so a
  /// resumed run re-records identical points.
  void sample_trends();

  /// The longitudinal epoch ring (see obs/timeseries.h). Worker-owned: read
  /// it from the worker thread or after the run ends, like the aggregators.
  [[nodiscard]] const obs::EpochRing& trends() const noexcept { return trends_; }

  /// Fold another pipeline's aggregate state into this one. All aggregate
  /// members are commutative monoids (see aggregates.h), degraded/scanner
  /// counters add, and latest_ts_sec takes the max — so a fleet merger can
  /// combine per-PoP partials in any order or grouping and serialize to
  /// identical bytes. The delta baseline is per-process state and is not
  /// merged.
  void merge_from(const Pipeline& other) TAMPER_EXCLUDES(stats_mu_);

  /// Serialize every aggregator plus the degraded/scanner accounting into a
  /// checkpoint payload (see service::Checkpoint for the file envelope).
  void snapshot(common::BinWriter& w) const;
  /// Replace all aggregator state from a payload written by snapshot().
  /// The delta baseline resets: a restored process has fresh sources.
  /// Throws common::BinUnderrun on truncated payloads.
  void restore(common::BinReader& r);

 private:
  /// Add the growth of one cumulative source counter since the last call
  /// (its full value when it moved backwards: a fresh source).
  void absorb(std::uint64_t DegradedStats::* field, std::uint64_t cumulative) noexcept
      TAMPER_REQUIRES(stats_mu_) {
    const std::uint64_t prev = baseline_.*field;
    degraded_.*field += cumulative >= prev ? cumulative - prev : cumulative;
    baseline_.*field = cumulative;
  }
  const world::World& world_;
  core::SignatureClassifier classifier_;
  SignatureMatrix matrix_;
  AsnAggregator asns_;
  TimeSeries timeseries_;
  VersionProtocolAggregator version_protocol_;
  CategoryAggregator categories_;
  OverlapMatrix overlap_;
  EvidenceCollector evidence_;
  ScannerStats scanner_;
  std::int64_t latest_ts_sec_ = 0;  ///< worker-thread owned, like the aggregators
  // Observability handles (null until set_obs). The counter/histogram
  // pointers are stable registry handles; sampling state is worker-thread
  // only, like the aggregators.
  obs::Registry* obs_metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  const obs::Clock* obs_clock_ = nullptr;
  obs::Counter* obs_samples_ = nullptr;
  obs::Histogram* obs_classify_seconds_ = nullptr;
  obs::Registry::CollectorId obs_collector_ = 0;
  // tamper_class_* mirrors + tamper_timeseries_* bookkeeping, updated only
  // inside sample_trends() on the worker thread (never by collectors: the
  // aggregates and ring are worker-owned).
  obs::Counter* class_connections_c_ = nullptr;
  obs::Counter* class_possibly_c_ = nullptr;
  obs::Counter* class_matched_c_ = nullptr;
  obs::CounterFamily* class_signature_fam_ = nullptr;
  obs::CounterFamily* class_country_conn_fam_ = nullptr;
  obs::CounterFamily* class_country_match_fam_ = nullptr;
  // Cached per-label child handles: CounterFamily::with is a locked lookup,
  // too heavy to repeat for every label on every rollup (rollup cost:
  // DESIGN.md §12). Children are stable registry handles; the caches
  // only grow, and reset with the families on set_obs.
  std::array<obs::Counter*, core::kSignatureCount> class_signature_mirror_{};
  std::map<std::string, obs::Counter*> class_country_conn_mirror_;
  std::map<std::string, obs::Counter*> class_country_match_mirror_;
  obs::Counter* ts_points_c_ = nullptr;
  obs::Counter* ts_dropped_c_ = nullptr;
  obs::Gauge* ts_series_g_ = nullptr;
  obs::Gauge* ts_latest_epoch_g_ = nullptr;
  obs::EpochRing trends_;
  /// The aggregate members, in checkpoint order: snapshot, restore and
  /// merge_from walk this list.
  static constexpr std::tuple kParts{&Pipeline::matrix_,     &Pipeline::asns_,
                                     &Pipeline::timeseries_, &Pipeline::version_protocol_,
                                     &Pipeline::categories_, &Pipeline::overlap_,
                                     &Pipeline::evidence_,   &Pipeline::trends_};
  mutable common::Mutex stats_mu_;  ///< guards degraded accounting only
  DegradedStats degraded_ TAMPER_GUARDED_BY(stats_mu_);
  /// Last cumulative value absorbed per source-fed counter (see absorb).
  DegradedStats baseline_ TAMPER_GUARDED_BY(stats_mu_);
  std::atomic<bool> evidence_only_{false};
  /// Size of the last snapshot: the next one reserves room for it plus
  /// growth, so the writer does not regrow from empty every checkpoint.
  mutable std::atomic<std::size_t> snapshot_bytes_{0};
};

}  // namespace tamper::analysis

// Supervised streaming service: runs analysis::Pipeline as a long-lived
// worker behind a bounded sample queue, under a watchdog.
//
// Topology (one process):
//
//   producers --submit()--> BoundedQueue --pop_batch--> inbox --> worker stage
//                                                   | ingest -> Pipeline
//                                                   | periodic checkpoint
//                                                   | periodic report emit
//                                       watchdog: heartbeat / stall / crash
//
// The worker drains the queue a batch at a time into its inbox and ingests
// from there, one sample per loop iteration. The inbox belongs to the
// service, not to the worker thread, so it outlives a stage restart.
//
// Contract with hostile runtime conditions:
//   * Load spikes   — the queue blocks producers or sheds embryonic-first;
//     every shed lands in DegradedStats (queue_shed_*).
//   * Stage crashes — a throwing ingest hook (chaos) or any internal error
//     is caught at the worker top level; the watchdog joins the dead thread
//     and restarts the stage while the restart budget lasts. Samples are
//     never lost to a crash: the hook runs before a sample leaves the
//     inbox, and the restarted stage resumes from the inbox.
//   * Stalls        — a frozen worker (heartbeat not advancing while work
//     is queued or held in the inbox) is detected by the watchdog,
//     counted, and restarted through the same budget.
//   * kill -9       — at most one checkpoint interval of aggregates is
//     lost; restart with the same checkpoint path resumes mid-stream.
//   * Sink outages  — reports retry with backoff + jitter, then spool to
//     disk and replay later (see service::ReportEmitter).
//
// Shutdown: stop() closes the queue, drains it and the inbox, writes a
// final checkpoint and emits a final report. kill() abandons in place (the
// kill -9 model, for chaos tests) — threads are joined, the inbox is
// dropped with the queue, and no state is persisted.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "capture/sample.h"
#include "common/bounded_queue.h"
#include "common/ids.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "control/overload.h"
#include "obs/anomaly.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "service/checkpoint.h"
#include "service/sink.h"
#include "world/world.h"

namespace tamper::service {

struct ServiceConfig {
  std::size_t queue_capacity = 4096;
  common::QueuePolicy queue_policy = common::QueuePolicy::kBlock;

  /// Checkpoint every N ingested samples (0 disables periodic checkpoints;
  /// the final checkpoint on stop() still happens when a path is set).
  std::uint64_t checkpoint_every_samples = 5000;
  std::string checkpoint_path;  ///< empty disables checkpointing entirely

  /// Emit a report every N ingested samples (0 = only the final report).
  std::uint64_t report_every_samples = 0;

  int max_worker_restarts = 8;
  std::chrono::milliseconds watchdog_poll{10};
  std::chrono::milliseconds stall_timeout{2000};
  std::chrono::milliseconds pop_timeout{20};

  /// Chaos hook, called with the loop tick before each (pop and) ingest; may
  /// throw (stage crash) or sleep (stall). Tests wire fault::ChaosSchedule
  /// in here; production leaves it empty.
  std::function<void(std::uint64_t)> ingest_hook;
  /// Chaos hook consulted before each checkpoint save; return true to fail
  /// the write (the ENOSPC model). Failures are counted, never fatal.
  std::function<bool()> checkpoint_fault_hook;

  /// Report payload seam. Default (empty) emits the Radar JSON report. A
  /// fleet PoP instead encodes an epoch-tagged partial aggregate (see
  /// fleet::encode_partial) so the central merger receives mergeable state,
  /// not rendered JSON. Called on the worker thread with the pipeline, the
  /// cumulative samples-ingested count, and the overload-control state at
  /// emission time (all-zero when overload control is disabled).
  std::function<std::string(const analysis::Pipeline&, std::uint64_t,
                            const control::OverloadState&)>
      report_encoder;

  /// Overload control (disabled by default — `overload.enabled` gates the
  /// whole admission path). When enabled, submit() runs every sample
  /// through control::OverloadController: token-bucket + ladder-stride
  /// admission, watermark-driven degradation, and the report circuit
  /// breaker. `overload.clock` defaults to this config's `clock` seam.
  control::OverloadConfig overload;

  /// Longitudinal trends: the pipeline's epoch ring is configured with this
  /// at construction and sampled at every checkpoint/report boundary (see
  /// Pipeline::sample_trends); the anomaly watchdog rescans it at report
  /// boundaries. History rides the checkpoint, so it survives crash-resume.
  obs::EpochRingConfig trends;
  obs::AnomalyConfig anomaly{};

  /// Fleet PoP id, or nullopt outside a fleet. When set, every structured
  /// log line from this service carries a tamper_pop field (rendered
  /// "pop:<id>"), so interleaved per-PoP logs stay attributable.
  std::optional<common::PopId> pop;

  /// Observability (all optional, all must outlive the service). When
  /// `metrics` is null the service creates a private registry — the
  /// supervision counters are ALWAYS registry-backed; RunSummary is just a
  /// view over them (there is no second bookkeeping path). The clock seam
  /// times checkpoints and the heartbeat-age gauge; tests inject a
  /// ManualClock, production defaults to obs::monotonic_clock().
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  obs::Logger* logger = nullptr;
  const obs::Clock* clock = nullptr;
};

struct RunSummary {
  std::uint64_t ingested = 0;            ///< includes samples restored from checkpoint
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t reports_emitted = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t stalls_detected = 0;
  common::BoundedQueueStats queue;
  control::OverloadStats overload;      ///< all-zero when overload control is off
  bool restored = false;                 ///< start() resumed from a checkpoint
  std::uint64_t restored_samples = 0;
  bool failed = false;                   ///< restart budget exhausted
  std::string failure;
};

class SupervisedService {
 public:
  enum class Resume : std::uint8_t {
    kResumeOrFresh,  ///< resume a valid checkpoint; fresh if none; REFUSE corrupt
    kFresh,          ///< ignore any existing checkpoint
    kRequire,        ///< refuse to start without a valid checkpoint
  };

  /// `emitter` may be null (no report emission). The world must outlive
  /// the service (the pipeline holds a reference).
  SupervisedService(const world::World& world, ServiceConfig config,
                    ReportEmitter* emitter);
  ~SupervisedService();

  SupervisedService(const SupervisedService&) = delete;
  SupervisedService& operator=(const SupervisedService&) = delete;

  /// Restore (per `resume`) and launch worker + watchdog. False on refusal
  /// (see error()); the service then never started and holds fresh state.
  [[nodiscard]] bool start(Resume resume = Resume::kResumeOrFresh);

  /// Enqueue one sample. Blocks or sheds per the queue policy; false once
  /// the service is stopping or failed.
  bool submit(capture::ConnectionSample sample);

  /// Graceful shutdown: drain queue -> final checkpoint -> final report.
  RunSummary stop();

  /// Abandon in place without draining or persisting — the in-process
  /// stand-in for kill -9 in chaos tests.
  RunSummary kill();

  /// True while worker + watchdog are live.
  [[nodiscard]] bool running() const noexcept { return running_.load(); }
  /// Restart-budget exhaustion (the queue is closed once this trips).
  [[nodiscard]] bool failed() const noexcept { return failed_.load(); }
  /// Last refusal/failure message. Safe to call while the watchdog is
  /// still live, hence the copy under the lifecycle lock.
  [[nodiscard]] std::string error() const TAMPER_EXCLUDES(lifecycle_mu_) {
    common::MutexLock lock(lifecycle_mu_);
    return error_;
  }

  /// Only meaningful once the service is no longer running.
  [[nodiscard]] const analysis::Pipeline& pipeline() const { return *pipeline_; }

  /// The anomaly watchdog's latest scan (rescanned at report boundaries).
  /// Like pipeline(): only meaningful once the service is no longer running.
  [[nodiscard]] const obs::AnomalyScan& anomalies() const noexcept {
    return anomaly_watchdog_.last();
  }

  /// Samples ingested by this run so far (restored count included; atomic
  /// counter read, any thread). Chaos harnesses poll this to wait for the
  /// worker to reach a stream position before injecting a fault there.
  [[nodiscard]] std::uint64_t ingested() const noexcept {
    return ingested_c_->value() - base_.ingested;
  }

  /// The registry backing the supervision counters: the configured one, or
  /// the private registry the service created when none was given. Live for
  /// the whole service lifetime; snapshots may be taken from any thread.
  [[nodiscard]] obs::Registry& metrics() noexcept { return *metrics_; }

  /// Overload-control accounting (all-zero defaults when disabled). Safe
  /// from any thread, any time.
  [[nodiscard]] control::OverloadStats overload_stats() const {
    return overload_ != nullptr ? overload_->stats() : control::OverloadStats{};
  }
  [[nodiscard]] control::OverloadState overload_state() const {
    return overload_ != nullptr ? overload_->state() : control::OverloadState{};
  }
  [[nodiscard]] control::Level overload_level() const {
    return overload_ != nullptr ? overload_->level() : control::Level::kNormal;
  }

 private:
  enum class WorkerState : std::uint8_t { kIdle, kRunning, kCrashed, kDrained, kAborted };

  void worker_main();
  void watchdog_main();
  void spawn_worker() TAMPER_REQUIRES(lifecycle_mu_);
  void register_metrics();
  void log(obs::LogLevel level, std::string_view message,
           std::initializer_list<obs::LogField> fields = {}) const {
    if (config_.logger == nullptr) return;
    if (!config_.pop) {
      config_.logger->log(level, "supervisor", message, fields);
      return;
    }
    // Fleet context: stamp every line with the PoP id so interleaved
    // per-PoP logs stay attributable.
    std::vector<obs::LogField> tagged(fields);
    tagged.push_back({"tamper_pop", common::format(*config_.pop)});
    config_.logger->log(level, "supervisor", message, tagged);
  }
  void write_checkpoint();
  void emit_report(bool force = false);
  void record_degraded_sources();
  /// Samples admitted but not yet ingested: queued plus held in the inbox.
  /// The one depth the stall check, the overload ladder and the
  /// tamper_queue_depth gauge read.
  [[nodiscard]] std::size_t backlog() const {
    return queue_.size() + inbox_depth_.load(std::memory_order_relaxed);
  }
  RunSummary finish(bool persist);
  [[nodiscard]] RunSummary summarize() TAMPER_EXCLUDES(lifecycle_mu_);

  const world::World& world_;
  ServiceConfig config_;
  ReportEmitter* emitter_;
  std::unique_ptr<analysis::Pipeline> pipeline_;
  common::BoundedQueue<capture::ConnectionSample> queue_;
  /// The batch the worker drained from queue_ and has not ingested yet.
  /// Touched only by the thread driving the pipeline (the worker, or
  /// finish() after the final join), like checkpoint_seq_; other threads
  /// read its size through inbox_depth_.
  std::deque<capture::ConnectionSample> inbox_;
  std::atomic<std::size_t> inbox_depth_{0};
  /// Null unless config_.overload.enabled. Destroyed explicitly detached
  /// from the registry (see ~SupervisedService) because owned_metrics_ may
  /// die first.
  std::unique_ptr<control::OverloadController> overload_;
  /// Rescans the pipeline's trends ring at report boundaries. Driven only
  /// by the thread currently owning the pipeline (worker, or finish() after
  /// the final join), like checkpoint_seq_.
  obs::AnomalyWatchdog anomaly_watchdog_;
  /// Emitter spool depth is a directory scan; submit() reads this cache
  /// (refreshed at every emission) instead of hitting the filesystem per
  /// sample.
  std::atomic<std::size_t> spool_depth_cache_{0};

  // The worker handle is owned by whichever thread most recently observed
  // its exit: the watchdog (join + respawn on crash) or finish() (final
  // join after the watchdog has itself terminated). Both accesses are
  // sequenced by the watchdog's lifetime, not by lifecycle_mu_.
  std::thread worker_;
  std::thread watchdog_;
  common::Mutex finish_mu_;              ///< serializes concurrent stop()/kill()
  mutable common::Mutex lifecycle_mu_;   ///< guards supervision state below
  std::condition_variable_any lifecycle_cv_;
  WorkerState worker_state_ TAMPER_GUARDED_BY(lifecycle_mu_) = WorkerState::kIdle;
  bool terminal_ TAMPER_GUARDED_BY(lifecycle_mu_) = false;  ///< watchdog done

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> abort_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> restart_requested_{false};
  std::atomic<std::uint64_t> hook_tick_{0};
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<std::uint64_t> last_beat_ns_{0};  ///< clock stamp of last heartbeat

  // Supervision counters live in the metrics registry — the single
  // bookkeeping path. The handles are resolved once in the constructor and
  // are plain relaxed atomics underneath, so every former fetch_add is the
  // same cost. A registry may outlive (or be shared across) services, so
  // start() records each counter's base and RunSummary reports the delta.
  obs::Registry* metrics_ = nullptr;  ///< config_.metrics or owned_metrics_
  std::unique_ptr<obs::Registry> owned_metrics_;
  const obs::Clock* clock_ = nullptr;
  obs::Counter* ingested_c_ = nullptr;
  obs::Counter* checkpoints_written_c_ = nullptr;
  obs::Counter* checkpoint_failures_c_ = nullptr;
  obs::Counter* reports_emitted_c_ = nullptr;
  obs::Counter* worker_crashes_c_ = nullptr;
  obs::Counter* worker_restarts_c_ = nullptr;
  obs::Counter* stalls_detected_c_ = nullptr;
  obs::Histogram* checkpoint_save_seconds_ = nullptr;
  obs::Histogram* checkpoint_restore_seconds_ = nullptr;
  obs::Registry::CollectorId collector_ = 0;
  struct CounterBases {
    std::uint64_t ingested = 0;
    std::uint64_t checkpoints_written = 0;
    std::uint64_t checkpoint_failures = 0;
    std::uint64_t reports_emitted = 0;
    std::uint64_t worker_crashes = 0;
    std::uint64_t worker_restarts = 0;
    std::uint64_t stalls_detected = 0;
  };
  CounterBases base_;  ///< written by start() pre-spawn only (like restored_)
  // checkpoint_seq_ is only touched by the thread currently driving the
  // pipeline: start() before spawning, then the worker, then finish()
  // after the final join. Each handoff is a thread create/join, so the
  // accesses are ordered without a lock.
  std::uint64_t checkpoint_seq_ = 0;
  bool restored_ = false;                ///< written by start() pre-spawn only
  std::uint64_t restored_samples_ = 0;   ///< written by start() pre-spawn only
  std::string error_ TAMPER_GUARDED_BY(lifecycle_mu_);
};

}  // namespace tamper::service

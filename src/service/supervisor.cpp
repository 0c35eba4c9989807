#include "service/supervisor.h"

#include <sstream>

#include "analysis/report.h"
#include "obs/families.h"

namespace tamper::service {

namespace {

/// Thrown into the worker loop when the watchdog wants a stalled stage
/// recycled; distinguished from a genuine crash so the crash counter stays
/// honest.
struct StageRestartRequested {};

[[nodiscard]] bool sample_is_embryonic(const capture::ConnectionSample& s) noexcept {
  return s.packets.size() <= 1;  // single bare SYN: the shape floods leave
}

}  // namespace

SupervisedService::SupervisedService(const world::World& world, ServiceConfig config,
                                     ReportEmitter* emitter)
    : world_(world),
      config_(std::move(config)),
      emitter_(emitter),
      pipeline_(std::make_unique<analysis::Pipeline>(world)),
      queue_(config_.queue_capacity, config_.queue_policy, sample_is_embryonic),
      anomaly_watchdog_(config_.anomaly) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  }
  clock_ = config_.clock != nullptr ? config_.clock : &obs::monotonic_clock();
  pipeline_->set_obs(metrics_, config_.tracer, clock_);
  pipeline_->set_trends_config(config_.trends);
  anomaly_watchdog_.set_obs(metrics_, config_.logger);
  if (config_.overload.enabled) {
    control::OverloadConfig oc = config_.overload;
    if (oc.clock == nullptr) oc.clock = clock_;  // inherit the service seam
    overload_ = std::make_unique<control::OverloadController>(oc);
    overload_->set_obs(metrics_);
  }
  register_metrics();
}

SupervisedService::~SupervisedService() {
  if (running_.load()) kill();
  metrics_->remove_collector(collector_);
  // Detach the pipeline's and controller's collectors now: members destruct
  // in reverse declaration order, so owned_metrics_ dies before pipeline_
  // (and before overload_) and neither destructor may touch the registry
  // then.
  pipeline_->set_obs(nullptr);
  if (overload_ != nullptr) overload_->set_obs(nullptr);
}

void SupervisedService::register_metrics() {
  obs::Registry& m = *metrics_;
  ingested_c_ = &m.counter(obs::family("tamper_ingest_samples_total"));
  checkpoints_written_c_ = &m.counter(obs::family("tamper_checkpoint_writes_total"));
  checkpoint_failures_c_ = &m.counter(obs::family("tamper_checkpoint_failures_total"));
  reports_emitted_c_ = &m.counter(obs::family("tamper_reports_emitted_total"));
  worker_crashes_c_ = &m.counter(obs::family("tamper_worker_crashes_total"));
  worker_restarts_c_ = &m.counter(obs::family("tamper_worker_restarts_total"));
  stalls_detected_c_ = &m.counter(obs::family("tamper_worker_stalls_total"));
  checkpoint_save_seconds_ = &m.histogram(obs::family("tamper_checkpoint_save_seconds"));
  checkpoint_restore_seconds_ = &m.histogram(
      obs::family("tamper_checkpoint_restore_seconds"));

  // Gauges and mirrors whose truth lives in the queue / emitter / heartbeat:
  // refreshed by this collector at every snapshot.
  obs::Gauge* heartbeat_age =
      &m.gauge(obs::family("tamper_supervisor_heartbeat_age_seconds"));
  obs::Gauge* queue_depth = &m.gauge(obs::family("tamper_queue_depth"));
  obs::Gauge* queue_capacity = &m.gauge(obs::family("tamper_queue_capacity"));
  obs::Counter* q_pushed = &m.counter(obs::family("tamper_queue_pushed_total"));
  obs::Counter* q_popped = &m.counter(obs::family("tamper_queue_popped_total"));
  obs::Counter* q_waits = &m.counter(obs::family("tamper_queue_push_waits_total"));
  auto& shed_family = m.counter_family(obs::family("tamper_queue_shed_total"));
  obs::Counter* shed_embryonic = &shed_family.with({"embryonic"});
  obs::Counter* shed_forced = &shed_family.with({"forced"});

  obs::Counter* e_reports = nullptr;
  obs::Counter* e_delivered = nullptr;
  obs::Counter* e_attempts = nullptr;
  obs::Counter* e_retries = nullptr;
  obs::Counter* e_spooled = nullptr;
  obs::Counter* e_replayed = nullptr;
  obs::Counter* e_lost = nullptr;
  obs::Gauge* e_spool_depth = nullptr;
  if (emitter_ != nullptr) {
    e_reports = &m.counter(obs::family("tamper_emitter_reports_total"));
    e_delivered = &m.counter(obs::family("tamper_emitter_delivered_total"));
    e_attempts = &m.counter(obs::family("tamper_emitter_attempts_total"));
    e_retries = &m.counter(obs::family("tamper_emitter_retries_total"));
    e_spooled = &m.counter(obs::family("tamper_emitter_spooled_total"));
    e_replayed = &m.counter(obs::family("tamper_emitter_spool_replayed_total"));
    e_lost = &m.counter(obs::family("tamper_emitter_lost_total"));
    e_spool_depth = &m.gauge(obs::family("tamper_emitter_spool_depth"));
  }
  obs::Counter* e_replay_failures =
      emitter_ != nullptr
          ? &m.counter(obs::family("tamper_sink_spool_replay_failures_total"))
          : nullptr;
  obs::Counter* e_spool_dropped =
      emitter_ != nullptr
          ? &m.counter(obs::family("tamper_emitter_spool_dropped_total"))
          : nullptr;

  collector_ = m.add_collector([=, this] {
    const common::BoundedQueueStats qs = queue_.stats();
    q_pushed->increment_to(qs.pushed);
    q_popped->increment_to(qs.popped);
    q_waits->increment_to(qs.push_waits);
    shed_embryonic->increment_to(qs.shed_low_value);
    shed_forced->increment_to(qs.shed_other);
    queue_depth->set(static_cast<double>(backlog()));
    queue_capacity->set(static_cast<double>(config_.queue_capacity));
    const std::uint64_t beat_ns = last_beat_ns_.load();
    const std::uint64_t now_ns = clock_->now_ns();
    heartbeat_age->set(beat_ns == 0 || now_ns < beat_ns
                           ? 0.0
                           : static_cast<double>(now_ns - beat_ns) * 1e-9);
    if (emitter_ != nullptr) {
      const ReportEmitter::Stats es = emitter_->stats();
      e_reports->increment_to(es.reports);
      e_delivered->increment_to(es.delivered);
      e_attempts->increment_to(es.attempts);
      e_retries->increment_to(es.retries);
      e_spooled->increment_to(es.spooled);
      e_replayed->increment_to(es.spool_replayed);
      e_lost->increment_to(es.lost);
      e_replay_failures->increment_to(es.spool_replay_failures);
      e_spool_dropped->increment_to(es.spool_dropped);
      e_spool_depth->set(static_cast<double>(emitter_->spool_depth()));
    }
  });
}

bool SupervisedService::start(Resume resume) {
  if (running_.load()) {
    common::MutexLock lock(lifecycle_mu_);
    error_ = "service already running";
    return false;
  }
  // Counter bases: a registry can outlive or be shared across services, so
  // every RunSummary figure (and the checkpoint/report cadence) is a delta
  // against the values at start. Captured before the restore below so the
  // restored samples count into this run, as they always have.
  base_.ingested = ingested_c_->value();
  base_.checkpoints_written = checkpoints_written_c_->value();
  base_.checkpoint_failures = checkpoint_failures_c_->value();
  base_.reports_emitted = reports_emitted_c_->value();
  base_.worker_crashes = worker_crashes_c_->value();
  base_.worker_restarts = worker_restarts_c_->value();
  base_.stalls_detected = stalls_detected_c_->value();
  if (!config_.checkpoint_path.empty() && resume != Resume::kFresh) {
    const std::uint64_t t0 = clock_->now_ns();
    const LoadResult result = load_checkpoint(config_.checkpoint_path, *pipeline_);
    if (result.ok) {
      checkpoint_restore_seconds_->observe(
          static_cast<double>(clock_->now_ns() - t0) * 1e-9);
      restored_ = true;
      restored_samples_ = result.meta.samples_ingested;
      ingested_c_->add(result.meta.samples_ingested);
      checkpoint_seq_ = result.meta.sequence + 1;
      log(obs::LogLevel::kInfo, "resumed from checkpoint",
          {{"samples", std::to_string(result.meta.samples_ingested)},
           {"sequence", std::to_string(result.meta.sequence)}});
    } else {
      // A failed restore may have partially written the pipeline: discard it.
      pipeline_ = std::make_unique<analysis::Pipeline>(world_);
      pipeline_->set_obs(metrics_, config_.tracer, clock_);
      const bool missing = result.error.rfind("no checkpoint", 0) == 0;
      if (resume == Resume::kRequire || !missing) {
        log(obs::LogLevel::kError, "checkpoint restore refused",
            {{"error", result.error}});
        common::MutexLock lock(lifecycle_mu_);
        error_ = result.error;
        return false;
      }
    }
  }
  draining_.store(false);
  abort_.store(false);
  {
    common::MutexLock lock(lifecycle_mu_);
    terminal_ = false;
    worker_state_ = WorkerState::kRunning;
    spawn_worker();
  }
  running_.store(true);
  watchdog_ = std::thread(&SupervisedService::watchdog_main, this);
  return true;
}

bool SupervisedService::submit(capture::ConnectionSample sample) {
  if (!running_.load() || failed_.load()) return false;
  if (overload_ != nullptr) {
    // Admission control runs before the queue: observe feeds the ladder
    // (sample-cadenced, so hysteresis is deterministic under a seeded load
    // schedule), then admit() decides. Refusals are counted by the
    // controller and folded into DegradedStats at the next checkpoint or
    // report.
    control::OverloadController::Inputs inputs;
    inputs.queue_depth = backlog();
    inputs.queue_capacity = config_.queue_capacity;
    inputs.spool_depth = spool_depth_cache_.load(std::memory_order_relaxed);
    overload_->observe(inputs);
    const std::int64_t ts = sample.packets.empty() ? sample.observation_end_sec
                                                   : sample.packets.front().ts_sec;
    const control::AdmissionDecision decision =
        overload_->admit(sample_is_embryonic(sample), ts);
    pipeline_->set_evidence_only(
        !control::policy_for(decision.level).parse_app_proto);
    if (!decision.admit) return false;
  }
  return queue_.push(std::move(sample));
}

void SupervisedService::spawn_worker() {
  worker_ = std::thread(&SupervisedService::worker_main, this);
}

void SupervisedService::worker_main() {
  WorkerState exit_state = WorkerState::kDrained;
  try {
    while (!abort_.load()) {
      const std::uint64_t tick = hook_tick_.fetch_add(1);
      // The hook fires before the sample leaves the inbox, so an injected
      // crash never loses one: the restarted stage resumes from the inbox.
      if (config_.ingest_hook) config_.ingest_hook(tick);
      if (restart_requested_.exchange(false)) throw StageRestartRequested{};
      if (inbox_.empty()) {
        queue_.pop_batch(inbox_, config_.pop_timeout);
        inbox_depth_.store(inbox_.size(), std::memory_order_relaxed);
      }
      heartbeat_.fetch_add(1);
      last_beat_ns_.store(clock_->now_ns());
      if (abort_.load()) {
        exit_state = WorkerState::kAborted;
        break;
      }
      if (inbox_.empty()) {
        if (queue_.closed()) break;  // closed + empty: fully drained
        continue;
      }
      pipeline_->ingest(inbox_.front());  // noexcept: taken exactly once
      inbox_.pop_front();
      inbox_depth_.store(inbox_.size(), std::memory_order_relaxed);
      const std::uint64_t n = ingested_c_->add(1) - base_.ingested;
      if (!config_.checkpoint_path.empty() && config_.checkpoint_every_samples != 0 &&
          n % config_.checkpoint_every_samples == 0)
        write_checkpoint();
      if (emitter_ != nullptr && config_.report_every_samples != 0 &&
          n % config_.report_every_samples == 0)
        emit_report();
    }
    if (abort_.load()) exit_state = WorkerState::kAborted;
  } catch (const StageRestartRequested&) {
    exit_state = WorkerState::kCrashed;
  } catch (...) {
    worker_crashes_c_->add(1);
    log(obs::LogLevel::kWarn, "worker stage crashed");
    exit_state = WorkerState::kCrashed;
  }
  {
    common::MutexLock lock(lifecycle_mu_);
    worker_state_ = exit_state;
  }
  lifecycle_cv_.notify_all();
}

void SupervisedService::watchdog_main() {
  using Clock = std::chrono::steady_clock;
  std::uint64_t last_heartbeat = heartbeat_.load();
  Clock::time_point last_progress = Clock::now();

  common::UniqueLock lock(lifecycle_mu_);
  while (true) {
    lifecycle_cv_.wait_for(lock, config_.watchdog_poll);
    if (worker_state_ == WorkerState::kCrashed) {
      lock.unlock();
      worker_.join();
      lock.lock();
      const std::uint64_t restarts = worker_restarts_c_->value() - base_.worker_restarts;
      const bool budget_left =
          restarts < static_cast<std::uint64_t>(config_.max_worker_restarts);
      if (abort_.load() || !budget_left) {
        if (!abort_.load()) {
          failed_.store(true);
          error_ = "worker restart budget exhausted after " +
                   std::to_string(restarts) + " restarts";
          log(obs::LogLevel::kError, "worker restart budget exhausted",
              {{"restarts", std::to_string(restarts)}});
          queue_.close();  // unblock producers; submit() now refuses
        }
        terminal_ = true;
        break;
      }
      worker_restarts_c_->add(1);
      log(obs::LogLevel::kInfo, "worker stage restarted",
          {{"restarts", std::to_string(restarts + 1)}});
      worker_state_ = WorkerState::kRunning;
      spawn_worker();
      last_heartbeat = heartbeat_.load();
      last_progress = Clock::now();
      continue;
    }
    if (worker_state_ == WorkerState::kDrained || worker_state_ == WorkerState::kAborted) {
      terminal_ = true;
      break;
    }
    const std::uint64_t heartbeat = heartbeat_.load();
    if (heartbeat != last_heartbeat) {
      last_heartbeat = heartbeat;
      last_progress = Clock::now();
    } else if (backlog() > 0 && Clock::now() - last_progress > config_.stall_timeout) {
      // The stage is wedged with work pending. We cannot safely terminate
      // a running thread, so request a self-restart: the worker throws on
      // its next live instruction and comes back through the crash path.
      stalls_detected_c_->add(1);
      log(obs::LogLevel::kWarn, "worker stall detected; requesting restart",
          {{"queued", std::to_string(backlog())}});
      restart_requested_.store(true);
      last_progress = Clock::now();
    }
  }
  lock.unlock();
  lifecycle_cv_.notify_all();
}

// Fold every degraded-input source into the pipeline's DegradedStats so a
// checkpoint/report emitted right after carries the loss it describes.
void SupervisedService::record_degraded_sources() {
  pipeline_->record_queue_stats(queue_.stats());
  if (emitter_ != nullptr) {
    const ReportEmitter::Stats es = emitter_->stats();
    pipeline_->record_sink_stats(es.spool_replay_failures, es.spool_dropped);
  }
  if (overload_ != nullptr) {
    const control::OverloadStats os = overload_->stats();
    pipeline_->record_overload_stats(os.rate_limited, os.sampled_down,
                                     os.embryonic_shed, os.rejected);
  }
}

void SupervisedService::write_checkpoint() {
  obs::Tracer::Span span(config_.tracer, obs::stage::kCheckpoint,
                         obs::stage::kCategory);
  record_degraded_sources();
  // Sample the trends ring before encoding so the checkpoint carries the
  // point for this boundary — a resumed run re-derives the identical ring.
  pipeline_->sample_trends();
  if (config_.checkpoint_fault_hook && config_.checkpoint_fault_hook()) {
    checkpoint_failures_c_->add(1);
    log(obs::LogLevel::kWarn, "checkpoint write failed",
        {{"error", "injected fault"}});
    return;
  }
  CheckpointMeta meta;
  meta.samples_ingested = ingested_c_->value() - base_.ingested;
  meta.sequence = checkpoint_seq_;
  const std::uint64_t t0 = clock_->now_ns();
  const std::string err = save_checkpoint(config_.checkpoint_path, *pipeline_, meta);
  if (err.empty()) {
    checkpoint_save_seconds_->observe(static_cast<double>(clock_->now_ns() - t0) * 1e-9);
    checkpoints_written_c_->add(1);
    ++checkpoint_seq_;
  } else {
    checkpoint_failures_c_->add(1);
    log(obs::LogLevel::kWarn, "checkpoint write failed", {{"error", err}});
  }
}

void SupervisedService::emit_report(bool force) {
  obs::Tracer::Span span(config_.tracer, obs::stage::kEmit, obs::stage::kCategory);
  // While the circuit breaker is open, periodic emissions are skipped —
  // backpressure instead of an ever-deeper retry/spool hole. The final
  // emission (force, from stop()) always goes out: it is the run's record.
  if (!force && overload_ != nullptr && overload_->breaker_open()) {
    overload_->count_report_skipped();
    log(obs::LogLevel::kWarn, "report emission skipped: circuit breaker open");
    return;
  }
  record_degraded_sources();
  pipeline_->sample_trends();
  // Rescan the watchdog at every report boundary: deterministic events,
  // idempotent metric publication, first-seen lines logged. Epochs where
  // the degraded series rose are suppressed from scoring.
  anomaly_watchdog_.rescan(
      pipeline_->trends(), obs::default_series_catalog(),
      obs::epochs_where_rising(pipeline_->trends(), "degraded"));
  std::string payload;
  if (config_.report_encoder) {
    payload = config_.report_encoder(*pipeline_, ingested_c_->value() - base_.ingested,
                                     overload_state());
  } else {
    std::ostringstream out;
    analysis::ReportOptions report_options;
    report_options.trend_anomalies = &anomaly_watchdog_.last().events;
    analysis::write_radar_report(out, *pipeline_, report_options);
    payload = out.str();
  }
  const bool delivered = emitter_->emit(payload);
  if (overload_ != nullptr) overload_->report_outcome(delivered);
  spool_depth_cache_.store(emitter_->spool_depth(), std::memory_order_relaxed);
  reports_emitted_c_->add(1);
}

RunSummary SupervisedService::stop() { return finish(/*persist=*/true); }

RunSummary SupervisedService::kill() { return finish(/*persist=*/false); }

RunSummary SupervisedService::finish(bool persist) {
  // Two threads racing stop() against kill() (or a destructor) must not
  // both join the watchdog; the first caller does the teardown, the rest
  // wait here and fall through to summarize().
  common::MutexLock finishing(finish_mu_);
  if (running_.load()) {
    if (persist) {
      draining_.store(true);
    } else {
      abort_.store(true);
    }
    queue_.close();
    {
      common::UniqueLock lock(lifecycle_mu_);
      while (!terminal_) lifecycle_cv_.wait(lock);
    }
    if (watchdog_.joinable()) watchdog_.join();
    if (worker_.joinable()) worker_.join();
    running_.store(false);
    if (persist) {
      record_degraded_sources();
      if (!config_.checkpoint_path.empty()) write_checkpoint();
      if (emitter_ != nullptr) emit_report(/*force=*/true);
    } else {
      inbox_.clear();  // abandoned with the queue, like kill -9
      inbox_depth_.store(0, std::memory_order_relaxed);
    }
  }
  return summarize();
}

RunSummary SupervisedService::summarize() {
  // The registry is the single bookkeeping path; the summary is a delta
  // view over it for this run.
  RunSummary s;
  s.ingested = ingested_c_->value() - base_.ingested;
  s.checkpoints_written = checkpoints_written_c_->value() - base_.checkpoints_written;
  s.checkpoint_failures = checkpoint_failures_c_->value() - base_.checkpoint_failures;
  s.reports_emitted = reports_emitted_c_->value() - base_.reports_emitted;
  s.worker_crashes = worker_crashes_c_->value() - base_.worker_crashes;
  s.worker_restarts = worker_restarts_c_->value() - base_.worker_restarts;
  s.stalls_detected = stalls_detected_c_->value() - base_.stalls_detected;
  s.queue = queue_.stats();
  s.overload = overload_stats();
  s.restored = restored_;
  s.restored_samples = restored_samples_;
  s.failed = failed_.load();
  {
    common::MutexLock lock(lifecycle_mu_);
    s.failure = error_;
  }
  return s;
}

}  // namespace tamper::service

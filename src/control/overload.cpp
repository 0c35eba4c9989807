#include "control/overload.h"

#include "obs/families.h"

namespace tamper::control {

const char* name(Level level) noexcept {
  switch (level) {
    case Level::kNormal:
      return "normal";
    case Level::kSampleDown:
      return "sample_down";
    case Level::kEmbryonicShed:
      return "embryonic_shed";
    case Level::kEvidenceOnly:
      return "evidence_only";
    case Level::kShedding:
      return "shedding";
  }
  return "normal";
}

LevelPolicy policy_for(Level level) noexcept {
  // One rung at a time, each strictly harsher than the last: the stride
  // doubles while the previous rungs' policies stay in force.
  switch (level) {
    case Level::kNormal:
      return {1, false, true, true};
    case Level::kSampleDown:
      return {4, false, true, true};
    case Level::kEmbryonicShed:
      return {8, true, true, true};
    case Level::kEvidenceOnly:
      return {16, true, false, true};
    case Level::kShedding:
      return {1, true, false, false};
  }
  return {};
}

OverloadController::OverloadController(const OverloadConfig& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : &obs::monotonic_clock()) {
  const double burst = config_.admit_burst > 0 ? config_.admit_burst
                                               : config_.admit_rate_per_sec;
  common::MutexLock lock(mu_);
  tokens_ = burst;
  last_refill_ns_ = clock_->now_ns();
}

OverloadController::~OverloadController() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
}

void OverloadController::refill_locked(std::uint64_t now_ns) {
  if (config_.admit_rate_per_sec <= 0) return;
  const double burst = config_.admit_burst > 0 ? config_.admit_burst
                                               : config_.admit_rate_per_sec;
  if (now_ns > last_refill_ns_) {
    const double elapsed_s = static_cast<double>(now_ns - last_refill_ns_) * 1e-9;
    tokens_ += elapsed_s * config_.admit_rate_per_sec;
    if (tokens_ > burst) tokens_ = burst;
  }
  last_refill_ns_ = now_ns;
}

void OverloadController::move_level_locked(Level to) {
  if (to == stats_.level) return;
  if (static_cast<std::uint8_t>(to) > static_cast<std::uint8_t>(stats_.level)) {
    ++stats_.escalations;
  } else {
    ++stats_.deescalations;
  }
  stats_.level = to;
  if (static_cast<std::uint8_t>(to) > static_cast<std::uint8_t>(stats_.peak_level))
    stats_.peak_level = to;
}

void OverloadController::observe(const Inputs& inputs) {
  common::MutexLock lock(mu_);
  const bool queue_pressure =
      inputs.queue_capacity > 0 &&
      static_cast<double>(inputs.queue_depth) >=
          config_.high_watermark * static_cast<double>(inputs.queue_capacity);
  const bool queue_calm =
      inputs.queue_capacity == 0 ||
      static_cast<double>(inputs.queue_depth) <=
          config_.low_watermark * static_cast<double>(inputs.queue_capacity);
  const bool spool_pressure = config_.spool_high_watermark > 0 &&
                              inputs.spool_depth >= config_.spool_high_watermark;
  const bool pressure = queue_pressure || spool_pressure || breaker_tripped_;
  const bool calm = queue_calm && !spool_pressure && !breaker_tripped_;

  if (pressure) {
    calm_streak_ = 0;
    if (++pressure_streak_ >= config_.escalate_after) {
      pressure_streak_ = 0;
      if (stats_.level != Level::kShedding)
        move_level_locked(static_cast<Level>(
            static_cast<std::uint8_t>(stats_.level) + 1));
    }
  } else if (calm) {
    pressure_streak_ = 0;
    if (++calm_streak_ >= config_.deescalate_after) {
      calm_streak_ = 0;
      if (stats_.level != Level::kNormal)
        move_level_locked(static_cast<Level>(
            static_cast<std::uint8_t>(stats_.level) - 1));
    }
  } else {
    // Between the watermarks: hysteresis holds the current level.
    pressure_streak_ = 0;
    calm_streak_ = 0;
  }
}

AdmissionDecision OverloadController::admit(bool embryonic,
                                            std::int64_t sample_ts_sec) {
  common::MutexLock lock(mu_);
  ++stats_.offered;
  const LevelPolicy policy = policy_for(stats_.level);
  AdmissionDecision decision;
  decision.level = stats_.level;

  if (!policy.admit_new_flows) {
    decision.reason = DropReason::kRejected;
    ++stats_.rejected;
  } else if (embryonic && policy.shed_embryonic) {
    decision.reason = DropReason::kEmbryonicShed;
    ++stats_.embryonic_shed;
  } else if (policy.admit_one_in > 1 && stats_.offered % policy.admit_one_in != 0) {
    decision.reason = DropReason::kSampledDown;
    ++stats_.sampled_down;
  } else if (config_.admit_rate_per_sec > 0) {
    refill_locked(clock_->now_ns());
    if (tokens_ < 1.0) {
      decision.reason = DropReason::kRateLimited;
      ++stats_.rate_limited;
    } else {
      tokens_ -= 1.0;
    }
  }

  if (decision.reason == DropReason::kNone) {
    ++stats_.admitted;
  } else {
    decision.admit = false;
    if (first_shed_ts_sec_ == 0)
      first_shed_ts_sec_ = sample_ts_sec > 0 ? sample_ts_sec : 1;
  }
  return decision;
}

void OverloadController::report_outcome(bool delivered) {
  common::MutexLock lock(mu_);
  if (delivered) {
    consecutive_failures_ = 0;
    breaker_tripped_ = false;
    return;
  }
  ++consecutive_failures_;
  // A failure while tripped is the half-open probe failing: re-trip and
  // restart the cooldown.
  if (breaker_tripped_ || consecutive_failures_ >= config_.breaker_trip_after) {
    breaker_tripped_ = true;
    ++stats_.breaker_trips;
    breaker_open_until_ns_ = clock_->now_ns() + config_.breaker_cooldown_ns;
  }
}

bool OverloadController::breaker_open() {
  common::MutexLock lock(mu_);
  if (!breaker_tripped_) return false;
  // Past the cooldown the breaker half-opens: let one probe through.
  return clock_->now_ns() < breaker_open_until_ns_;
}

void OverloadController::count_report_skipped() {
  common::MutexLock lock(mu_);
  ++stats_.reports_skipped;
}

Level OverloadController::level() const {
  common::MutexLock lock(mu_);
  return stats_.level;
}

OverloadStats OverloadController::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

OverloadState OverloadController::state() const {
  common::MutexLock lock(mu_);
  OverloadState s;
  s.level = stats_.level;
  s.shed_samples = stats_.shed_total();
  s.first_shed_ts_sec = first_shed_ts_sec_;
  return s;
}

void OverloadController::set_obs(obs::Registry* metrics) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
  metrics_ = metrics;
  if (metrics == nullptr) return;
  obs::Registry& m = *metrics;
  obs::Gauge* level_g = &m.gauge(obs::family("tamper_overload_level"));
  obs::Gauge* peak_g = &m.gauge(obs::family("tamper_overload_peak_level"));
  obs::Counter* offered = &m.counter(obs::family("tamper_overload_offered_total"));
  obs::Counter* admitted = &m.counter(obs::family("tamper_overload_admitted_total"));
  auto& shed_family = m.counter_family(obs::family("tamper_overload_shed_total"));
  obs::Counter* shed_rate = &shed_family.with({"rate_limited"});
  obs::Counter* shed_stride = &shed_family.with({"sampled_down"});
  obs::Counter* shed_embryonic = &shed_family.with({"embryonic"});
  obs::Counter* shed_rejected = &shed_family.with({"rejected"});
  auto& transitions_family = m.counter_family(
      obs::family("tamper_overload_transitions_total"));
  obs::Counter* escalations = &transitions_family.with({"escalate"});
  obs::Counter* deescalations = &transitions_family.with({"deescalate"});
  obs::Gauge* breaker_g = &m.gauge(obs::family("tamper_overload_breaker_open"));
  obs::Counter* trips = &m.counter(obs::family("tamper_overload_breaker_trips_total"));
  obs::Counter* skipped =
      &m.counter(obs::family("tamper_overload_reports_skipped_total"));
  collector_ = m.add_collector([=, this] {
    OverloadStats s;
    bool tripped = false;
    {
      common::MutexLock lock(mu_);
      s = stats_;
      tripped = breaker_tripped_;
    }
    level_g->set(static_cast<double>(static_cast<std::uint8_t>(s.level)));
    peak_g->set(static_cast<double>(static_cast<std::uint8_t>(s.peak_level)));
    offered->increment_to(s.offered);
    admitted->increment_to(s.admitted);
    shed_rate->increment_to(s.rate_limited);
    shed_stride->increment_to(s.sampled_down);
    shed_embryonic->increment_to(s.embryonic_shed);
    shed_rejected->increment_to(s.rejected);
    escalations->increment_to(s.escalations);
    deescalations->increment_to(s.deescalations);
    breaker_g->set(tripped ? 1.0 : 0.0);
    trips->increment_to(s.breaker_trips);
    skipped->increment_to(s.reports_skipped);
  });
}

}  // namespace tamper::control

#include "fleet/merger.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fleet/partial.h"
#include "obs/families.h"
#include "service/checkpoint.h"

namespace tamper::fleet {

Merger::Merger(const world::World& world, MergerConfig config)
    : world_(world), config_(config) {}

Merger::~Merger() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
}

std::uint64_t Merger::max_epoch_locked() const {
  std::uint64_t max_epoch = 0;
  for (const auto& [pop, entry] : pops_)
    max_epoch = std::max(max_epoch, entry.epoch.value());
  return max_epoch;
}

std::uint64_t Merger::watermark_locked() const {
  const std::uint64_t max_epoch = max_epoch_locked();
  return max_epoch > config_.grace_epochs ? max_epoch - config_.grace_epochs : 0;
}

bool Merger::deliver(const std::string& payload) {
  {
    common::MutexLock lock(mu_);
    ++stats_.received;
  }
  const DecodeResult peek = peek_partial(payload);
  if (!peek.ok) {
    // Corrupt bytes are acknowledged: retrying them forever would wedge the
    // sender's spool behind a partial that can never get better.
    common::MutexLock lock(mu_);
    ++stats_.rejected;
    return true;
  }
  const PartialHeader h = peek.header;
  {
    common::MutexLock lock(mu_);
    const auto it = pops_.find(h.pop);
    if (it != pops_.end()) {
      if (h.epoch == it->second.epoch && h.sequence == it->second.sequence) {
        ++stats_.duplicates;
        return true;
      }
      if (h.sequence < it->second.sequence ||
          (h.sequence == it->second.sequence && h.epoch < it->second.epoch)) {
        // Partials are cumulative: newer state already landed (e.g. a spool
        // replay arriving after a fresher delivery). Superseded, drop.
        ++stats_.stale;
        return true;
      }
    }
    if (h.epoch.value() < watermark_locked()) ++stats_.late;  // counted, still merged
  }

  // The expensive restore happens outside the lock; concurrent PoPs decode
  // in parallel and only the insert below serializes. The body was verified
  // by the peek above and is restored without a second checksum pass.
  auto pipeline = std::make_unique<analysis::Pipeline>(world_);
  const DecodeResult full = decode_partial(peek, *pipeline);
  if (!full.ok) {
    common::MutexLock lock(mu_);
    ++stats_.rejected;
    return true;
  }

  // Declared before the lock, so the PoP's previous pipeline is freed after
  // the lock is released, not while other deliveries wait on it.
  std::unique_ptr<analysis::Pipeline> replaced;
  common::MutexLock lock(mu_);
  PopEntry& entry = pops_[h.pop];
  if (entry.pipeline != nullptr) {
    // Recheck under the lock: another delivery for this PoP may have landed
    // while we were decoding.
    if (h.epoch == entry.epoch && h.sequence == entry.sequence) {
      ++stats_.duplicates;
      return true;
    }
    if (h.sequence < entry.sequence ||
        (h.sequence == entry.sequence && h.epoch < entry.epoch)) {
      ++stats_.stale;
      return true;
    }
  }
  entry.epoch = h.epoch;
  entry.sequence = h.sequence;
  entry.overload = h.overload;
  replaced = std::exchange(entry.pipeline, std::move(pipeline));
  ++stats_.accepted;

  // Bounded-skew guard: a PoP whose reported epoch strays further than the
  // configured skew bound (in whole epochs) + grace from the fleet median
  // has a broken clock. Metrics-only — the detection depends on what has
  // arrived so far, so it must not feed the (order-invariant) report.
  if (pops_.size() >= 2) {
    std::vector<std::uint64_t> epochs;
    epochs.reserve(pops_.size());
    for (const auto& [pop, e] : pops_) epochs.push_back(e.epoch.value());
    std::sort(epochs.begin(), epochs.end());
    const std::uint64_t median = epochs[epochs.size() / 2];
    const std::uint64_t skew_epochs =
        config_.epoch_length_sec == 0
            ? 0
            : (static_cast<std::uint64_t>(std::max<std::int64_t>(0, config_.max_skew_sec)) +
               config_.epoch_length_sec - 1) /
                  config_.epoch_length_sec;
    const std::uint64_t bound = skew_epochs + config_.grace_epochs;
    const std::uint64_t distance = h.epoch.value() > median ? h.epoch.value() - median
                                                           : median - h.epoch.value();
    if (distance > bound) ++stats_.skew_detected;
  }
  return true;
}

Merger::Stats Merger::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

analysis::FleetCoverage Merger::coverage() const {
  common::MutexLock lock(mu_);
  analysis::FleetCoverage c;
  c.pops_expected = config_.pops_expected;
  c.pops_reporting = static_cast<std::uint32_t>(pops_.size());
  c.max_epoch = max_epoch_locked();
  c.watermark = watermark_locked();

  for (std::uint32_t p = 0; p < config_.pops_expected; ++p) {
    const common::PopId pop(p);
    analysis::FleetPopStatus status;
    status.pop = pop;
    const auto it = pops_.find(pop);
    if (it == pops_.end()) {
      status.status = "silent";
    } else {
      status.last_epoch = it->second.epoch;
      status.samples = it->second.sequence;
      status.overload = control::name(it->second.overload.level);
      status.shed_samples = it->second.overload.shed_samples;
      if (c.max_epoch - it->second.epoch.value() >= config_.heartbeat_timeout_epochs) {
        status.status = "dead";
      } else if (it->second.epoch.value() < c.watermark) {
        status.status = "lagging";
      } else {
        status.status = "live";
      }
    }
    c.pops.push_back(std::move(status));
  }

  if (!pops_.empty()) {
    const std::uint64_t window =
        config_.coverage_window_epochs > 0 ? config_.coverage_window_epochs : 1;
    const std::uint64_t first =
        c.watermark >= window - 1 ? c.watermark - (window - 1) : 0;
    for (std::uint64_t e = first; e <= c.watermark; ++e) {
      analysis::FleetEpochCoverage epoch;
      epoch.epoch = common::EpochId(e);
      epoch.pops_expected = config_.pops_expected;
      // Partials are cumulative, so a PoP whose newest partial is at epoch
      // >= e has epoch e's data inside the merged aggregates. A PoP that
      // was shedding by epoch e contributed incompletely: its header
      // carries the capture time of the FIRST admission drop, so every
      // epoch from that point on is marked shedding — a pure function of
      // the partial set, never of arrival order.
      for (const auto& [pop, entry] : pops_) {
        if (entry.epoch.value() < e) continue;
        ++epoch.pops_reporting;
        if (entry.overload.shed_samples > 0 && entry.overload.first_shed_ts_sec > 0) {
          const std::uint64_t first_shed_epoch =
              config_.epoch_length_sec == 0
                  ? 0
                  : static_cast<std::uint64_t>(entry.overload.first_shed_ts_sec) /
                        config_.epoch_length_sec;
          if (first_shed_epoch <= e) ++epoch.pops_shedding;
        }
      }
      if (epoch.degraded()) c.degraded = true;
      c.epochs.push_back(epoch);
    }
  } else if (config_.pops_expected > 0) {
    c.degraded = true;  // a fully silent fleet is maximally degraded
  }
  return c;
}

std::unique_ptr<analysis::Pipeline> Merger::merged_pipeline() const {
  auto merged = std::make_unique<analysis::Pipeline>(world_);
  common::MutexLock lock(mu_);
  for (const auto& [pop, entry] : pops_)
    if (entry.pipeline != nullptr) merged->merge_from(*entry.pipeline);
  return merged;
}

std::vector<std::uint8_t> Merger::merged_state_image() const {
  const auto merged = merged_pipeline();
  return service::encode_checkpoint(*merged, service::CheckpointMeta{});
}

Merger::FleetTrends Merger::fleet_trends() const {
  const auto merged = merged_pipeline();
  return fleet_trends(*merged, coverage());
}

Merger::FleetTrends Merger::fleet_trends(
    const analysis::Pipeline& merged,
    const analysis::FleetCoverage& coverage) const {
  FleetTrends trends;
  // A coverage-degraded epoch must never be scored as a real rate shift:
  // feed the scan every epoch where PoPs were missing or shedding, plus the
  // epochs where the merged degraded-input series itself rose.
  std::set<std::int64_t> degraded =
      obs::epochs_where_rising(merged.trends(), "degraded");
  trends.epochs.reserve(coverage.epochs.size());
  for (const analysis::FleetEpochCoverage& e : coverage.epochs) {
    obs::EpochCoverageNote note;
    note.epoch = static_cast<std::int64_t>(e.epoch.value());
    note.pops_reporting = e.pops_reporting;
    note.pops_expected = e.pops_expected;
    note.pops_shedding = e.pops_shedding;
    note.degraded = e.degraded();
    trends.epochs.push_back(note);
    if (note.degraded) degraded.insert(note.epoch);
  }
  trends.scan = obs::scan_anomalies(merged.trends(),
                                    obs::default_series_catalog(),
                                    config_.anomaly, degraded);
  return trends;
}

std::string Merger::merged_report(analysis::ReportOptions options) const {
  const auto merged = merged_pipeline();
  const analysis::FleetCoverage fleet = coverage();
  const FleetTrends trends = fleet_trends(*merged, fleet);
  options.fleet = &fleet;
  options.trend_epochs = &trends.epochs;
  options.trend_anomalies = &trends.scan.events;
  std::ostringstream out;
  analysis::write_radar_report(out, *merged, options);
  return out.str();
}

std::string Merger::timeseries_dump(bool pretty) const {
  const auto merged = merged_pipeline();
  const analysis::FleetCoverage fleet = coverage();
  const FleetTrends trends = fleet_trends(*merged, fleet);
  // Copy each reporting PoP's ring out from under the lock so the scopes
  // below can hold stable pointers (rings are small: bounded epochs ×
  // bounded series).
  std::vector<std::pair<common::PopId, obs::EpochRing>> pop_rings;
  {
    common::MutexLock lock(mu_);
    for (const auto& [pop, entry] : pops_)
      if (entry.pipeline != nullptr)
        pop_rings.emplace_back(pop, entry.pipeline->trends());
  }
  std::vector<obs::TimeseriesScope> scopes;
  scopes.reserve(1 + pop_rings.size());
  obs::TimeseriesScope fleet_scope;
  fleet_scope.name = "fleet";
  fleet_scope.ring = &merged->trends();
  fleet_scope.epochs = trends.epochs;
  fleet_scope.anomalies = trends.scan.events;
  scopes.push_back(fleet_scope);
  for (const auto& [pop, ring] : pop_rings) {
    obs::TimeseriesScope scope;
    scope.name = common::format(pop);
    scope.ring = &ring;
    scopes.push_back(scope);
  }
  std::ostringstream out;
  obs::write_timeseries_json(out, scopes,
                             static_cast<std::int64_t>(config_.epoch_length_sec),
                             pretty);
  return out.str();
}

void Merger::set_obs(obs::Registry* metrics) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_);
  metrics_ = metrics;
  if (metrics == nullptr) return;
  obs::Registry& m = *metrics;
  auto& partials_family = m.counter_family(obs::family("tamper_fleet_partials_total"));
  obs::Counter* received = &partials_family.with({"received"});
  obs::Counter* accepted = &partials_family.with({"accepted"});
  obs::Counter* duplicate = &partials_family.with({"duplicate"});
  obs::Counter* stale = &partials_family.with({"stale"});
  obs::Counter* late = &partials_family.with({"late"});
  obs::Counter* rejected = &partials_family.with({"rejected"});
  obs::Counter* skew = &m.counter(obs::family("tamper_fleet_skew_detected_total"));
  obs::Gauge* reporting = &m.gauge(obs::family("tamper_fleet_pops_reporting"));
  obs::Gauge* expected = &m.gauge(obs::family("tamper_fleet_pops_expected"));
  obs::Gauge* watermark = &m.gauge(obs::family("tamper_fleet_watermark_epoch"));
  obs::Gauge* shedding = &m.gauge(obs::family("tamper_fleet_pops_shedding"));
  collector_ = m.add_collector([=, this] {
    Stats s;
    std::size_t pop_count = 0;
    std::size_t shedding_count = 0;
    std::uint64_t mark = 0;
    {
      common::MutexLock lock(mu_);
      s = stats_;
      pop_count = pops_.size();
      for (const auto& [pop, entry] : pops_)
        if (entry.overload.shed_samples > 0) ++shedding_count;
      mark = watermark_locked();
    }
    received->increment_to(s.received);
    accepted->increment_to(s.accepted);
    duplicate->increment_to(s.duplicates);
    stale->increment_to(s.stale);
    late->increment_to(s.late);
    rejected->increment_to(s.rejected);
    skew->increment_to(s.skew_detected);
    reporting->set(static_cast<double>(pop_count));
    expected->set(static_cast<double>(config_.pops_expected));
    watermark->set(static_cast<double>(mark));
    shedding->set(static_cast<double>(shedding_count));
  });
}

}  // namespace tamper::fleet

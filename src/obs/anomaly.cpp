#include "obs/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/families.h"

namespace tamper::obs {

namespace {

[[nodiscard]] std::string event_key(const AnomalyEvent& e) {
  return e.family + "|" + e.label + "|" + std::to_string(e.epoch);
}

[[nodiscard]] std::string format_score(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

AnomalyScan scan_anomalies(const EpochRing& ring,
                           const std::vector<SeriesSpec>& catalog,
                           const AnomalyConfig& config,
                           const std::set<std::int64_t>& degraded_epochs) {
  std::map<std::string, bool> watched;
  for (const SeriesSpec& spec : catalog) watched.emplace(spec.family, spec.watch);

  AnomalyScan scan;
  for (const auto& [key, data] : ring.series()) {
    const auto spec = watched.find(key.family);
    if (spec == watched.end() || !spec->second) continue;
    if (data.merge != SeriesMerge::kSum) continue;  // deltas need cumulative

    bool have_prev = false;
    std::int64_t prev_epoch = 0;
    double prev_value = 0.0;
    double ewma = 0.0;
    double dev = 0.0;
    std::size_t deltas_seen = 0;
    for (const auto& [epoch, value] : data.points) {
      if (!have_prev) {
        have_prev = true;
        prev_epoch = epoch;
        prev_value = value;
        continue;
      }
      ++scan.points_scanned;
      if (epoch != prev_epoch + 1) {
        // A gap means the delta spans unknown time; neither score it nor
        // let it pollute the baseline.
        ++scan.suppressed_gap;
        prev_epoch = epoch;
        prev_value = value;
        continue;
      }
      if (degraded_epochs.count(epoch) != 0 || degraded_epochs.count(prev_epoch) != 0) {
        ++scan.suppressed_degraded;
        prev_epoch = epoch;
        prev_value = value;
        continue;
      }
      const double delta = value - prev_value;
      const double residual = std::fabs(delta - ewma);
      if (deltas_seen >= config.warmup_epochs) {
        const double scale = std::max(dev, config.min_deviation);
        const double score = residual / scale;
        if (score >= config.z_threshold)
          scan.events.push_back({key.family, key.label, epoch, delta, ewma, score});
      }
      if (deltas_seen == 0) {
        ewma = delta;
        dev = 0.0;
      } else {
        dev = config.alpha * residual + (1.0 - config.alpha) * dev;
        ewma = config.alpha * delta + (1.0 - config.alpha) * ewma;
      }
      ++deltas_seen;
      prev_epoch = epoch;
      prev_value = value;
    }
  }
  // Ring iteration is already (family, label) sorted with epochs ascending
  // inside each series, so the event list is born sorted.
  return scan;
}

std::set<std::int64_t> epochs_where_rising(const EpochRing& ring,
                                           std::string_view family) {
  std::set<std::int64_t> rising;
  for (const auto& [key, data] : ring.series()) {
    if (key.family != family) continue;
    bool have_prev = false;
    double prev_value = 0.0;
    for (const auto& [epoch, value] : data.points) {
      if (have_prev && value > prev_value) rising.insert(epoch);
      have_prev = true;
      prev_value = value;
    }
  }
  return rising;
}

AnomalyWatchdog::AnomalyWatchdog(AnomalyConfig config) : config_(config) {}

void AnomalyWatchdog::set_obs(Registry* metrics, Logger* logger) {
  logger_ = logger;
  if (metrics == nullptr) {
    events_c_ = scanned_c_ = suppressed_degraded_c_ = suppressed_gap_c_ = nullptr;
    exemplars_g_ = nullptr;
    return;
  }
  events_c_ = &metrics->counter(obs::family("tamper_anomaly_events_total"));
  scanned_c_ = &metrics->counter(obs::family("tamper_anomaly_points_scanned_total"));
  auto& suppressed = metrics->counter_family(
      obs::family("tamper_anomaly_suppressed_total"));
  suppressed_degraded_c_ = &suppressed.with({"degraded"});
  suppressed_gap_c_ = &suppressed.with({"gap"});
  exemplars_g_ = &metrics->gauge(obs::family("tamper_anomaly_exemplars"));
}

const AnomalyScan& AnomalyWatchdog::rescan(const EpochRing& ring,
                                           const std::vector<SeriesSpec>& catalog,
                                           const std::set<std::int64_t>& degraded_epochs) {
  last_ = scan_anomalies(ring, catalog, config_, degraded_epochs);
  if (events_c_ != nullptr) {
    // Monotone mirrors: a rescan republishes totals, never re-adds them,
    // so a resumed service that re-derives the same events stays exact.
    events_c_->increment_to(last_.events.size());
    scanned_c_->increment_to(last_.points_scanned);
    suppressed_degraded_c_->increment_to(last_.suppressed_degraded);
    suppressed_gap_c_->increment_to(last_.suppressed_gap);
  }
  if (exemplars_g_ != nullptr)
    exemplars_g_->set(static_cast<double>(
        std::min(last_.events.size(), config_.max_exemplars)));
  if (logger_ != nullptr) {
    for (const AnomalyEvent& event : last_.events) {
      const std::string key = event_key(event);
      if (logged_.count(key) != 0) continue;
      logged_.insert(key);
      logger_->warn("anomaly", "rate shift detected",
                    {{"series", event.label.empty()
                                    ? event.family
                                    : event.family + "{" + event.label + "}"},
                     {"epoch", std::to_string(event.epoch)},
                     {"delta", format_score(event.delta)},
                     {"expected", format_score(event.expected)},
                     {"score", format_score(event.score)}});
    }
  }
  return last_;
}

std::vector<AnomalyEvent> AnomalyWatchdog::exemplars() const {
  const std::size_t n = std::min(last_.events.size(), config_.max_exemplars);
  return {last_.events.end() - static_cast<std::ptrdiff_t>(n), last_.events.end()};
}

}  // namespace tamper::obs

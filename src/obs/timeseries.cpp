#include "obs/timeseries.h"

#include <algorithm>
#include <limits>

#include "common/codec.h"
#include "common/json.h"

template <>  // the ring's u8 merge byte (common/codec.h)
struct tamper::common::codec::Wire<tamper::obs::SeriesMerge> {
  static constexpr auto kCount = static_cast<std::uint8_t>(obs::SeriesMerge::kMax) + 1;
};

namespace tamper::obs {

std::string_view name(SeriesMerge merge) noexcept {
  switch (merge) {
    case SeriesMerge::kSum: return "sum";
    case SeriesMerge::kMax: return "max";
  }
  return "unknown";
}

// The sampling catalog. Aggregate sources are mirrored into the registry
// by Pipeline::sample_trends from the classification aggregates — which
// are checkpoint-restored, so a resumed PoP re-records identical points;
// the overload sources are read from the registry (absent families are
// skipped, so a run without overload control simply has no overload
// series). Family strings and order are part of the ring's byte format.
const std::vector<SeriesSpec>& default_series_catalog() {
  static const std::vector<SeriesSpec> kCatalog = {
      {"connections", SeriesSource::kConnections, SeriesMerge::kSum, /*watch=*/true},
      {"possibly_tampered", SeriesSource::kPossiblyTampered, SeriesMerge::kSum,
       /*watch=*/true},
      {"signature_matched", SeriesSource::kSignatureMatched, SeriesMerge::kSum,
       /*watch=*/false},
      {"signature_matches", SeriesSource::kSignatureMatches, SeriesMerge::kSum,
       /*watch=*/true},
      {"country_connections", SeriesSource::kCountryConnections, SeriesMerge::kSum,
       /*watch=*/false},
      {"country_matches", SeriesSource::kCountryMatches, SeriesMerge::kSum,
       /*watch=*/true},
      {"degraded", SeriesSource::kDegraded, SeriesMerge::kSum, /*watch=*/false},
      {"overload_level", SeriesSource::kOverloadLevel, SeriesMerge::kMax,
       /*watch=*/false},
      {"overload_shed", SeriesSource::kOverloadShed, SeriesMerge::kSum,
       /*watch=*/false},
  };
  return kCatalog;
}

// ---------------------------------------------------------------- EpochRing

namespace {
/// The oldest epoch the window keeps: max_epoch - max_epochs + 1, held at
/// the lowest i64 epoch rather than overflowing below it (a restored
/// payload can carry any epoch). max_epochs is at least 1.
std::int64_t window_floor(std::int64_t max_epoch, std::size_t max_epochs) noexcept {
  const auto depth = static_cast<std::int64_t>(max_epochs) - 1;
  constexpr std::int64_t kLowest = std::numeric_limits<std::int64_t>::min();
  return max_epoch < kLowest + depth ? kLowest : max_epoch - depth;
}
}  // namespace

EpochRing::EpochRing(EpochRingConfig config) : config_(config) {
  if (config_.epoch_length_sec <= 0) config_.epoch_length_sec = 1;
  if (config_.max_epochs == 0) config_.max_epochs = 1;
  if (config_.max_series == 0) config_.max_series = 1;
}

std::int64_t EpochRing::epoch_of(std::int64_t ts_sec) const noexcept {
  return ts_sec <= 0 ? 0 : ts_sec / config_.epoch_length_sec;
}

void EpochRing::record(std::string_view family, std::string_view label,
                       SeriesMerge merge, std::int64_t ts_sec, double value) {
  record_epoch(family, label, merge, epoch_of(ts_sec), value);
}

void EpochRing::record_epoch(std::string_view family, std::string_view label,
                             SeriesMerge merge, std::int64_t epoch, double value) {
  record_at(series_.lower_bound(SeriesKeyLess::View{family, label}), family, label,
            merge, epoch, value);
}

EpochRing::SeriesMap::iterator EpochRing::record_at(SeriesMap::iterator pos,
                                                    std::string_view family,
                                                    std::string_view label,
                                                    SeriesMerge merge,
                                                    std::int64_t epoch,
                                                    double value) {
  ++recorded_points_;
  // A point older than the retained window would be trimmed immediately;
  // refuse it up front so the drop is attributed to the record, not the trim.
  if (!series_.empty() && epoch < window_floor(max_epoch_, config_.max_epochs)) {
    ++dropped_points_;
    return series_.end();
  }
  // Heterogeneous probe: no key strings are built unless this is a brand
  // new series (steady-state rollups re-record existing keys).
  const SeriesKeyLess::View key{family, label};
  if (pos == series_.end() || SeriesKeyLess{}(key, pos->first)) {
    if (series_.size() >= config_.max_series) {
      // Cap by sort order: a key past the cap is refused, and merge's
      // trim applies the same rule, so capacity pressure is deterministic.
      auto last = std::prev(series_.end());
      if (!SeriesKeyLess{}(key, last->first)) {
        ++dropped_points_;
        return series_.end();
      }
    }
    pos = series_.emplace_hint(pos, SeriesKey{std::string(family), std::string(label)},
                               SeriesData{merge, {}});
  }
  // try_emplace probes before allocating: re-recording an existing
  // (key, epoch) — every rollup after the epoch's first — costs no node.
  auto [point, inserted] = pos->second.points.try_emplace(epoch, value);
  if (!inserted) {
    point->second = merge == SeriesMerge::kMax ? std::max(point->second, value)
                                               : value;  // cumulative: latest wins
  }
  // Trim only when the window can actually move (max_epoch_ advanced) or
  // the series cap was exceeded by this insert — a rollup records hundreds
  // of points into the same epoch, and a full-ring sweep per point would
  // dominate the sampling cost (rollup cost: DESIGN.md §12).
  // trim() only ever erases series other than `pos` (pos just gained the
  // newest point, so it is neither emptied by the window cut nor the
  // cap-excess last key it was inserted in front of).
  const bool first = series_.size() == 1 && pos->second.points.size() == 1;
  const bool advanced = first || epoch > max_epoch_;
  if (advanced) max_epoch_ = epoch;
  if (advanced || series_.size() > config_.max_series) trim();
  return pos;
}

void EpochRing::Cursor::record_epoch(std::string_view family, std::string_view label,
                                     SeriesMerge merge, std::int64_t epoch,
                                     double value) {
  auto& series = ring_->series_;
  const SeriesKeyLess::View key{family, label};
  bool positioned = false;
  if (valid_) {
    // Fast path: in an ascending run the previous landing spot is at or just
    // before the target, so lower_bound(key) is a step or two forward. Bound
    // the walk; anything unexpected falls back to a full descent.
    auto it = hint_;
    int steps = 0;
    while (it != series.end() && SeriesKeyLess{}(it->first, key)) {
      ++it;
      if (++steps > 4) break;
    }
    if (steps <= 4 && (it == series.end() || !SeriesKeyLess{}(it->first, key)) &&
        (it == series.begin() || SeriesKeyLess{}(std::prev(it)->first, key))) {
      hint_ = it;  // exactly lower_bound(key): first node not less than key
      positioned = true;
    }
  }
  if (!positioned) hint_ = series.lower_bound(key);
  hint_ = ring_->record_at(hint_, family, label, merge, epoch, value);
  valid_ = hint_ != series.end();
}

void EpochRing::merge(const EpochRing& other) {
  if (other.series_.empty()) return;
  // The identity ring adopts the data's epoch width, so a default-built
  // merger target dumps fleet epochs at the PoPs' configured length, and
  // its newest epoch, which is unset while it is empty.
  if (series_.empty()) {
    config_.epoch_length_sec = other.config_.epoch_length_sec;
    max_epoch_ = other.max_epoch_;
  }
  for (const auto& [key, data] : other.series_) {
    auto it = series_.find(key);
    if (it == series_.end()) {
      series_.emplace(key, data);
      continue;
    }
    for (const auto& [epoch, value] : data.points) {
      auto [point, inserted] = it->second.points.emplace(epoch, value);
      if (!inserted) {
        point->second = it->second.merge == SeriesMerge::kMax
                            ? std::max(point->second, value)
                            : point->second + value;
      }
    }
  }
  max_epoch_ = std::max(max_epoch_, other.max_epoch_);
  trim();
}

void EpochRing::trim() {
  if (series_.empty()) return;
  // Epoch window: keep the newest max_epochs epochs. Confluent under any
  // merge order because max_epoch_ only grows with the union.
  const std::int64_t floor = window_floor(max_epoch_, config_.max_epochs);
  for (auto it = series_.begin(); it != series_.end();) {
    auto& points = it->second.points;
    const auto cut = points.lower_bound(floor);
    if (cut != points.begin()) {
      dropped_points_ += static_cast<std::uint64_t>(
          std::distance(points.begin(), cut));
      points.erase(points.begin(), cut);
    }
    it = points.empty() ? series_.erase(it) : std::next(it);
  }
  // Series cap: keep the first max_series keys in sort order. A key dropped
  // here ranks past the cap in every superset union too, so intermediate
  // merge states converge to the same final set.
  while (series_.size() > config_.max_series) {
    auto last = std::prev(series_.end());
    dropped_points_ += last->second.points.size();
    series_.erase(last);
  }
}

// Every count in the ring's bytes is a u32.
void EpochRing::snapshot(common::BinWriter& w) const {
  common::codec::write<std::uint32_t>(w, fields(*this));
}

void EpochRing::restore(common::BinReader& r) {
  common::codec::read<std::uint32_t>(r, fields(*this));
  if (config_.epoch_length_sec <= 0) config_.epoch_length_sec = 1;
  max_epoch_ = std::numeric_limits<std::int64_t>::min();
  for (const auto& [key, data] : series_)  // epochs increase: the last is the newest
    if (!data.points.empty()) max_epoch_ = std::max(max_epoch_, data.points.rbegin()->first);
  trim();  // also drops the empty series
}

std::int64_t EpochRing::min_epoch() const noexcept {
  bool any = false;
  std::int64_t lo = 0;
  for (const auto& [key, data] : series_) {
    if (data.points.empty()) continue;
    const std::int64_t first = data.points.begin()->first;
    lo = any ? std::min(lo, first) : first;
    any = true;
  }
  return lo;
}

std::size_t EpochRing::point_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, data] : series_) n += data.points.size();
  return n;
}

// ----------------------------------------------------- tamper-timeseries/1

void write_timeseries_scope_fields(common::JsonWriter& json,
                                   const TimeseriesScope& scope) {
  json.key("series");
  json.begin_array();
  if (scope.ring != nullptr) {
    for (const auto& [key, data] : scope.ring->series()) {
      json.begin_object();
      json.kv("family", key.family);
      json.kv("label", key.label);
      json.kv("merge", name(data.merge));
      json.key("points");
      json.begin_array();
      for (const auto& [epoch, value] : data.points) {
        json.begin_object();
        json.kv("epoch", epoch);
        json.kv("value", value);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
  }
  json.end_array();
  json.key("epochs");
  json.begin_array();
  for (const EpochCoverageNote& note : scope.epochs) {
    json.begin_object();
    json.kv("epoch", note.epoch);
    json.kv("pops_reporting", static_cast<std::uint64_t>(note.pops_reporting));
    json.kv("pops_expected", static_cast<std::uint64_t>(note.pops_expected));
    json.kv("pops_shedding", static_cast<std::uint64_t>(note.pops_shedding));
    json.kv("degraded", note.degraded);
    json.end_object();
  }
  json.end_array();
  json.key("anomalies");
  json.begin_array();
  for (const AnomalyEvent& event : scope.anomalies) {
    json.begin_object();
    json.kv("family", event.family);
    json.kv("label", event.label);
    json.kv("epoch", event.epoch);
    json.kv("delta", event.delta);
    json.kv("expected", event.expected);
    json.kv("score", event.score);
    json.end_object();
  }
  json.end_array();
}

void write_timeseries_json(std::ostream& out,
                           const std::vector<TimeseriesScope>& scopes,
                           std::int64_t epoch_length_sec, bool pretty) {
  common::JsonWriter json(out, pretty);
  json.begin_object();
  json.kv("schema", "tamper-timeseries/1");
  json.kv("epoch_length_sec", epoch_length_sec);
  json.key("scopes");
  json.begin_array();
  for (const TimeseriesScope& scope : scopes) {
    json.begin_object();
    json.kv("scope", scope.name);
    write_timeseries_scope_fields(json, scope);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace tamper::obs

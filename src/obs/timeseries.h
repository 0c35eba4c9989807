// Longitudinal telemetry: a fixed-capacity epoch ring of cumulative
// series samples, the catalog describing what gets sampled, and the
// "tamper-timeseries/1" JSON emission.
//
// The paper's headline artifact is longitudinal — per-signature and
// per-country tampering rates tracked over weeks (Figs. 6 and 9) — so the
// live service keeps a bounded history of its own aggregates instead of
// relying on pcap replay. The design constraints are the repo's usual
// ones, applied to history:
//
//   * Deterministic. Values are sampled at checkpoint/report boundaries
//     from state that is itself a pure function of the ingested stream
//     (aggregates, degraded accounting), keyed by epochs derived from
//     capture timestamps (latest_ts_sec / epoch_length) — never from wall
//     time. Twin-seeded runs produce byte-identical rings; the fleet chaos
//     campaigns byte-compare merged rings against a no-fault baseline.
//   * Mergeable. The ring is a commutative monoid like every aggregator
//     in analysis/aggregates.h: merge() is associative, commutative
//     and confluent under the capacity trims (any key or epoch dropped at
//     an intermediate merge is provably dropped by the final trim too), so
//     the fleet merger can fold per-PoP rings in any arrival order or
//     grouping and serialize identical bytes.
//   * Bounded. max_epochs caps history depth (oldest epochs trimmed as the
//     newest advances) and max_series caps key cardinality (ties broken by
//     sort order); every refused point is counted, never silently lost.
//
// Within one ring a point is last-write-wins per (key, epoch) for kSum
// series (values are cumulative, so the latest sample inside an epoch is
// the epoch's value) and max-combine for kMax series (the overload ladder
// level peaks, it does not accumulate). Across rings — the fleet merge —
// kSum points add (per-PoP cumulative counts sum to the fleet count) and
// kMax points max.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/binio.h"
#include "common/json.h"

namespace tamper::obs {

/// How a series combines across rings (the fleet merge).
enum class SeriesMerge : std::uint8_t { kSum = 0, kMax = 1 };

[[nodiscard]] std::string_view name(SeriesMerge merge) noexcept;

/// Where a catalog series takes its values. Pipeline::sample_trends
/// switches over it with no default:, so -Werror=switch turns a new source
/// without a sampler into a build error.
enum class SeriesSource : std::uint8_t {
  kConnections,         ///< aggregate (mirror: tamper_class_connections_total)
  kPossiblyTampered,    ///< aggregate (mirror: tamper_class_possibly_tampered_total)
  kSignatureMatched,    ///< aggregate (mirror: tamper_class_matched_total)
  kSignatureMatches,    ///< aggregate, per signature (tamper_class_signature_matches_total)
  kCountryConnections,  ///< aggregate, per country (tamper_class_country_connections_total)
  kCountryMatches,      ///< aggregate, per country (tamper_class_country_matches_total)
  kDegraded,            ///< DegradedStats::coverage_loss()
  kOverloadLevel,       ///< registry read: tamper_overload_level
  kOverloadShed,        ///< registry read: tamper_overload_shed_total
};

/// One catalog entry: a series family, where its values come from, and how
/// it federates.
struct SeriesSpec {
  std::string family;
  SeriesSource source{};
  SeriesMerge merge = SeriesMerge::kSum;
  bool watch = false;  ///< anomaly watchdog scans this family
};

/// The default sampling catalog (see timeseries.cpp for the entries and
/// DESIGN.md §12 for the rationale). Order is fixed; sampling iterates it
/// deterministically.
[[nodiscard]] const std::vector<SeriesSpec>& default_series_catalog();

struct EpochRingConfig {
  std::int64_t epoch_length_sec = 3600;  ///< capture-time epoch width
  std::size_t max_epochs = 168;          ///< history depth (one week hourly)
  std::size_t max_series = 512;          ///< distinct (family, label) keys
};

struct SeriesKey {
  std::string family;
  std::string label;  ///< "" when the family is unlabeled

  static auto fields(auto& k) { return std::tie(k.family, k.label); }  // wire order
  [[nodiscard]] bool operator<(const SeriesKey& o) const noexcept {
    return family != o.family ? family < o.family : label < o.label;
  }
  [[nodiscard]] bool operator==(const SeriesKey& o) const noexcept {
    return family == o.family && label == o.label;
  }
};

/// Transparent comparator so record() can probe the series map with string
/// views: family names exceed the small-string capacity, and a rollup
/// records hundreds of points, so a per-record key allocation would
/// dominate the sampling cost (rollup cost: DESIGN.md §12).
struct SeriesKeyLess {
  using is_transparent = void;
  [[nodiscard]] static bool lt(std::string_view af, std::string_view al,
                               std::string_view bf, std::string_view bl) noexcept {
    return af != bf ? af < bf : al < bl;
  }
  struct View {
    std::string_view family;
    std::string_view label;
  };
  bool operator()(const SeriesKey& a, const SeriesKey& b) const noexcept {
    return lt(a.family, a.label, b.family, b.label);
  }
  bool operator()(const SeriesKey& a, const View& b) const noexcept {
    return lt(a.family, a.label, b.family, b.label);
  }
  bool operator()(const View& a, const SeriesKey& b) const noexcept {
    return lt(a.family, a.label, b.family, b.label);
  }
};

struct SeriesData {
  SeriesMerge merge = SeriesMerge::kSum;
  std::map<std::int64_t, double> points;  ///< epoch -> value, sorted

  static auto fields(auto& d) { return std::tie(d.merge, d.points); }  // wire order
};

/// A deterministic rate-shift event (see obs/anomaly.h for the scan).
/// Defined here so the timeseries emission can carry anomalies without the
/// writer depending on the detector.
struct AnomalyEvent {
  std::string family;
  std::string label;
  std::int64_t epoch = 0;
  double delta = 0.0;     ///< observed per-epoch delta
  double expected = 0.0;  ///< EWMA prediction at that point
  double score = 0.0;     ///< robust z-score

  [[nodiscard]] bool operator==(const AnomalyEvent& o) const noexcept {
    return family == o.family && label == o.label && epoch == o.epoch &&
           delta == o.delta && expected == o.expected && score == o.score;
  }
};

/// The epoch ring. Single-writer like the pipeline aggregators: the worker
/// thread records and merges; snapshots happen on the same thread (or after
/// the worker is joined). No internal locking.
class EpochRing {
 public:
  explicit EpochRing(EpochRingConfig config = {});

  [[nodiscard]] const EpochRingConfig& config() const noexcept { return config_; }

  /// The epoch a capture timestamp falls in (clamped at 0: the generated
  /// worlds never predate the epoch origin).
  [[nodiscard]] std::int64_t epoch_of(std::int64_t ts_sec) const noexcept;

  /// Record the cumulative value of (family, label) as of capture time
  /// `ts_sec`. Within an epoch, kSum overwrites (cumulative: latest wins)
  /// and kMax keeps the max. Points older than the retained window or
  /// beyond the series cap are counted in dropped_points() and discarded.
  void record(std::string_view family, std::string_view label, SeriesMerge merge,
              std::int64_t ts_sec, double value);
  /// Same, keyed by epoch directly (merge paths and tests).
  // tamperlint-allow(R13): obs rings do signed epoch arithmetic (offsets, clamps)
  void record_epoch(std::string_view family, std::string_view label,
                    SeriesMerge merge, std::int64_t epoch, double value);

  class Cursor;

  /// Fold another ring in: union of keys and epochs, kSum points add, kMax
  /// points max, then the capacity trims. Associative, commutative, and
  /// identity on a default-constructed ring — the fleet-merge contract.
  void merge(const EpochRing& other);

  /// Byte-stable serialization (sorted walk). The epoch length rides along
  /// as data so an offline reader interprets epochs without the config; the
  /// capacity limits and drop counters are process-local and do not.
  void snapshot(common::BinWriter& w) const;
  /// Replace all contents from a snapshot() payload. The state codec
  /// (common/codec.h) throws std::runtime_error unless series keys and each
  /// series' epochs strictly increase and merge bytes are in range; then
  /// empty series are dropped and the trims applied, as after a merge.
  void restore(common::BinReader& r);

  using SeriesMap = std::map<SeriesKey, SeriesData, SeriesKeyLess>;

  [[nodiscard]] bool empty() const noexcept { return series_.empty(); }
  /// Newest / oldest epoch holding a point. Meaningless when empty().
  [[nodiscard]] std::int64_t max_epoch() const noexcept { return max_epoch_; }
  [[nodiscard]] std::int64_t min_epoch() const noexcept;
  [[nodiscard]] const SeriesMap& series() const noexcept { return series_; }
  [[nodiscard]] std::size_t point_count() const noexcept;
  [[nodiscard]] std::uint64_t recorded_points() const noexcept {
    return recorded_points_;
  }
  [[nodiscard]] std::uint64_t dropped_points() const noexcept {
    return dropped_points_;
  }

 private:
  void trim();
  /// record_epoch with the lower_bound already in hand (`pos` must be
  /// series_.lower_bound({family, label})). Returns the series iterator the
  /// point landed in, or series_.end() if the point was dropped.
  // tamperlint-allow(R13): internal hinted-insert path; epoch stays signed here
  SeriesMap::iterator record_at(SeriesMap::iterator pos, std::string_view family,
                                std::string_view label, SeriesMerge merge,
                                std::int64_t epoch, double value);

  EpochRingConfig config_;
  SeriesMap series_;
  std::int64_t max_epoch_ = 0;  ///< valid only when !series_.empty()
  std::uint64_t recorded_points_ = 0;  ///< process-local, not serialized
  std::uint64_t dropped_points_ = 0;   ///< process-local, not serialized
  template <class Self>  // the serialized members, in wire order
  static auto fields(Self& r) { return std::tie(r.config_.epoch_length_sec, r.series_); }
};

/// Sorted-run recorder. The trends rollup records each labeled family as an
/// ascending run of keys (label sources are sorted maps), so consecutive
/// records land on adjacent series nodes; the cursor steps an iterator
/// forward instead of paying a full tree descent per record (rollup cost:
/// DESIGN.md §12). Purely a lookup strategy: the
/// resulting ring state is byte-identical to plain record() calls, and
/// out-of-order keys just fall back to a fresh lower_bound.
class EpochRing::Cursor {
 public:
  explicit Cursor(EpochRing& ring) : ring_(&ring) {}

  void record(std::string_view family, std::string_view label, SeriesMerge merge,
              std::int64_t ts_sec, double value) {
    record_epoch(family, label, merge, ring_->epoch_of(ts_sec), value);
  }
  // tamperlint-allow(R13): cursor mirrors EpochRing's signed epoch domain
  void record_epoch(std::string_view family, std::string_view label,
                    SeriesMerge merge, std::int64_t epoch, double value);

 private:
  EpochRing* ring_;
  SeriesMap::iterator hint_{};
  bool valid_ = false;
};

/// Per-epoch coverage annotation for one emission scope, so a reader never
/// mistakes a degraded epoch (PoPs missing or shedding) for a real rate
/// drop. A single-service scope reports 1/1 with degraded mirroring its
/// own degraded-input accounting.
struct EpochCoverageNote {
  std::int64_t epoch = 0;
  std::uint32_t pops_reporting = 1;
  std::uint32_t pops_expected = 1;
  std::uint32_t pops_shedding = 0;
  bool degraded = false;
};

/// One scope of the "tamper-timeseries/1" document: "fleet", "pop:<id>",
/// or "local" for a single service.
struct TimeseriesScope {
  std::string name;
  const EpochRing* ring = nullptr;
  std::vector<EpochCoverageNote> epochs;   ///< sorted by epoch
  std::vector<AnomalyEvent> anomalies;     ///< sorted (family, label, epoch)
};

/// Emit one scope's series/epochs/anomalies fields into an already-open
/// JSON object — shared by the standalone document writer below and the
/// Radar report's "trends" block.
void write_timeseries_scope_fields(common::JsonWriter& json,
                                   const TimeseriesScope& scope);

/// Emit the "tamper-timeseries/1" JSON document: byte-stable (sorted maps
/// all the way down), validated by obs/validate.h and tools/obscheck.
void write_timeseries_json(std::ostream& out,
                           const std::vector<TimeseriesScope>& scopes,
                           std::int64_t epoch_length_sec, bool pretty = true);

}  // namespace tamper::obs

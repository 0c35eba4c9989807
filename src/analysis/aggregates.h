// Streaming aggregators behind the paper's tables and figures.
//
// Each aggregator consumes ConnectionRecords; none of them retain raw
// samples (mirroring the paper's aggregate-only reporting, §3.3).
//
// Every aggregator is a commutative monoid under merge(): merge is
// associative and commutative with the default-constructed aggregator as
// identity, so a fleet of PoPs can each aggregate a shard of the traffic
// and a central merger can combine the partials in any order — and any
// grouping — without changing a byte of the merged output
// (tests/test_fleet.cpp pins the three laws against serialized state).
//
// Snapshot and restore are one call each into the state codec
// (common/codec.h), which lists each part's fields once, in wire order, and
// whose restore refuses repeated or out-of-order keys, out-of-range values
// and counts the payload cannot hold. Five aggregators are pointwise sums
// merged by the same description: SignatureMatrix, AsnAggregator,
// TimeSeries, VersionProtocolAggregator and CategoryAggregator.
// OverlapMatrix keeps the smaller first state of a pair.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/record.h"
#include "common/ids.h"
#include "common/binio.h"
#include "core/signature.h"
#include "world/category.h"

namespace tamper::analysis {

/// Counts of signature matches cross-tabulated by country.
/// Figure 1 reads columns (country composition of each signature);
/// Figure 4 reads rows (signature composition of each country).
class SignatureMatrix {
 public:
  void add(const ConnectionRecord& record);

  [[nodiscard]] std::uint64_t total_connections() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t country_connections(const std::string& cc) const;
  [[nodiscard]] std::uint64_t count(const std::string& cc, core::Signature sig) const;
  [[nodiscard]] std::uint64_t signature_total(core::Signature sig) const;
  [[nodiscard]] std::uint64_t country_matches(const std::string& cc) const;
  [[nodiscard]] std::uint64_t possibly_tampered() const noexcept { return possibly_; }
  [[nodiscard]] std::uint64_t matched() const noexcept { return matched_; }
  /// Possibly-tampered / matched counts per connection stage (Table 1 text).
  [[nodiscard]] std::uint64_t stage_possibly(core::Stage stage) const;
  [[nodiscard]] std::uint64_t stage_matched(core::Stage stage) const;

  [[nodiscard]] std::vector<std::string> countries() const;

  struct CountryRow {
    std::array<std::uint64_t, core::kSignatureCount> by_signature{};
    std::uint64_t connections = 0;
    std::uint64_t matches = 0;
    /// The counters in wire order (common/codec.h).
    static auto fields(auto& r) { return std::tie(r.connections, r.matches, r.by_signature); }
  };
  /// Direct read-only view of the per-country rows, sorted by country code.
  /// The trends rollup iterates this instead of countries() + per-country
  /// lookups — one tree walk instead of hundreds (DESIGN.md §12 overhead
  /// contract).
  [[nodiscard]] const std::map<std::string, CountryRow>& rows() const noexcept {
    return rows_;
  }

  /// Pointwise count sum (commutative monoid).
  void merge(const SignatureMatrix& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  std::map<std::string, CountryRow> rows_;
  std::array<std::uint64_t, core::kSignatureCount> signature_totals_{};
  std::array<std::uint64_t, 5> stage_possibly_{};
  std::array<std::uint64_t, 5> stage_matched_{};
  std::uint64_t total_ = 0;
  std::uint64_t possibly_ = 0;
  std::uint64_t matched_ = 0;
  /// Every member above, in wire order.
  template <class Self>
  static auto fields(Self& m) {
    return std::tie(m.total_, m.possibly_, m.matched_, m.signature_totals_, m.stage_possibly_,
                    m.stage_matched_, m.rows_);
  }
};

/// Per-AS match proportions within each country (Figure 5).
class AsnAggregator {
 public:
  void add(const ConnectionRecord& record);

  struct AsnStats {
    common::AsnId asn{};  ///< set by top_ases from the map key; not stored
    std::uint64_t connections = 0;
    std::uint64_t matches = 0;
    [[nodiscard]] double match_percent() const noexcept {
      return connections == 0 ? 0.0
                              : 100.0 * static_cast<double>(matches) /
                                    static_cast<double>(connections);
    }
    /// The counters in wire order; asn is the map key.
    static auto fields(auto& r) { return std::tie(r.connections, r.matches); }
  };
  /// ASes collectively originating `traffic_share` of a country's
  /// connections (paper: top 80%), largest first.
  [[nodiscard]] std::vector<AsnStats> top_ases(const std::string& cc,
                                               double traffic_share = 0.8) const;
  [[nodiscard]] std::uint64_t country_total(const std::string& cc) const;

  /// Pointwise count sum (commutative monoid).
  void merge(const AsnAggregator& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// Keyed by strong id; AsnId orders by its raw rep, so snapshot bytes
  /// are unchanged from the u32-keyed layout.
  std::map<std::string, std::map<common::AsnId, AsnStats>> by_country_;
};

/// Hourly time series of match rates (Figures 6, 8, 9).
class TimeSeries {
 public:
  void add(const ConnectionRecord& record);

  struct HourBucket {
    std::uint64_t connections = 0;
    std::uint64_t post_ack_psh_matches = 0;
    std::array<std::uint64_t, core::kSignatureCount> by_signature{};
    /// The counters in wire order (common/codec.h).
    static auto fields(auto& r) {
      return std::tie(r.connections, r.post_ack_psh_matches, r.by_signature);
    }
  };
  /// Buckets keyed by hour index (epoch seconds / 3600) for one country.
  [[nodiscard]] const std::map<std::int64_t, HourBucket>& country_hours(
      const std::string& cc) const;
  [[nodiscard]] std::vector<std::string> countries() const;

  /// Pointwise bucket sum (commutative monoid).
  void merge(const TimeSeries& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  std::map<std::string, std::map<std::int64_t, HourBucket>> series_;
};

/// IPv4-vs-IPv6 and TLS-vs-HTTP comparison (Figure 7).
class VersionProtocolAggregator {
 public:
  void add(const ConnectionRecord& record);

  struct Split {
    std::uint64_t v4_total = 0, v4_matches = 0;        ///< Post-ACK+PSH matches
    std::uint64_t v6_total = 0, v6_matches = 0;
    std::uint64_t tls_total = 0, tls_psh_matches = 0;  ///< Post-PSH matches
    std::uint64_t http_total = 0, http_psh_matches = 0;
    /// The counters in wire order (common/codec.h).
    static auto fields(auto& r) {
      return std::tie(r.v4_total, r.v4_matches, r.v6_total, r.v6_matches, r.tls_total,
                      r.tls_psh_matches, r.http_total, r.http_psh_matches);
    }
  };
  [[nodiscard]] const std::map<std::string, Split>& by_country() const noexcept {
    return by_country_;
  }

  /// Pointwise split sum (commutative monoid).
  void merge(const VersionProtocolAggregator& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  std::map<std::string, Split> by_country_;
};

/// Category view of Post-PSH tampering (Table 2). Needs a category oracle
/// (domain name -> category), injected so the aggregator stays decoupled
/// from the world model.
class CategoryAggregator {
 public:
  using CategoryLookup = std::function<std::optional<world::Category>(const std::string&)>;

  explicit CategoryAggregator(CategoryLookup lookup) : lookup_(std::move(lookup)) {}

  void add(const ConnectionRecord& record);

  struct CategoryStats {
    std::uint64_t tampered_connections = 0;
    std::set<std::string> tampered_domains;
    std::set<std::string> seen_domains;  ///< all domains requested, tampered or not
  };

  /// Apply the paper's >=100-matches-per-domain confidence threshold and
  /// return per-category stats for one country.
  [[nodiscard]] std::map<world::Category, CategoryStats> country_stats(
      const std::string& cc, std::uint64_t domain_threshold = 100) const;
  /// The tampered-domain set for a region (for the Table 3 test-list audit).
  [[nodiscard]] std::vector<std::string> tampered_domains(
      const std::string& cc, std::uint64_t domain_threshold = 100) const;
  [[nodiscard]] std::vector<std::string> countries() const;

  /// Pointwise per-domain count sum (commutative monoid; lookup_ is config
  /// and never merged).
  void merge(const CategoryAggregator& other);

  /// Serializes the per-domain maps only; the category lookup is config,
  /// re-injected by whoever constructs the restoring aggregator.
  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  struct CountryData {
    std::unordered_map<std::string, std::uint64_t> tampered_by_domain;
    std::unordered_map<std::string, std::uint64_t> seen_by_domain;
    static auto fields(auto& r) { return std::tie(r.tampered_by_domain, r.seen_by_domain); }
  };
  CategoryLookup lookup_;
  std::map<std::string, CountryData> by_country_;
};

/// First-vs-next signature for repeated (client IP, domain) pairs
/// (Figure 10 / Appendix B). Values 0..18 are signatures; 19 = clean.
class OverlapMatrix {
 public:
  static constexpr std::size_t kStates = core::kSignatureCount + 1;

  void add(const ConnectionRecord& record);

  [[nodiscard]] std::uint64_t count(std::size_t first_state, std::size_t next_state) const {
    return matrix_[first_state][next_state];
  }
  [[nodiscard]] std::uint64_t row_total(std::size_t first_state) const;
  [[nodiscard]] static std::size_t state_of(const core::Classification& c) noexcept {
    return c.signature ? static_cast<std::size_t>(*c.signature) : kStates - 1;
  }

  /// Transition-count sum. A (client, domain) pair normally lives on one
  /// PoP (anycast routes by client prefix), so first_state_ keys rarely
  /// collide across shards; after a failover both sides may have seen a
  /// "first" — the smaller state wins, which keeps merge commutative and
  /// associative (min is).
  void merge(const OverlapMatrix& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// A first state, 0 .. kStates - 1: restore refuses any other (aggregates.cpp).
  enum class State : std::size_t {};
  std::unordered_map<common::FlowId, State> first_state_;  ///< pair-hash -> state
  std::array<std::array<std::uint64_t, kStates>, kStates> matrix_{};
  template <class Self>  // the members above, in wire order
  static auto fields(Self& m) { return std::tie(m.first_state_, m.matrix_); }
};

}  // namespace tamper::analysis

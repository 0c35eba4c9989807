#include "analysis/aggregates.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/rng.h"

namespace tamper::analysis {

namespace {

// Checkpoint serialization writes map-like state in sorted key order, so a
// snapshot is a pure function of the aggregate counts: save -> restore ->
// save is byte-identical even for unordered containers (the golden-file
// test in tests/test_service.cpp pins this). Unordered state is sorted on
// integers: OverlapMatrix's keys are u64s already, and a string key sorts
// by key_prefix() first.

/// The first 8 bytes of `s`, zero-padded, big-endian: prefix(a) < prefix(b)
/// implies a < b, and equal prefixes leave the order to the full keys.
std::uint64_t key_prefix(std::string_view s) noexcept {
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < 8; ++i)
    prefix = prefix << 8 | (i < s.size() ? static_cast<unsigned char>(s[i]) : 0u);
  return prefix;
}

/// Sort `v` ascending by key(element), a u64. Past a few hundred elements
/// this is an LSD radix sort on the key's bytes, skipping the bytes every
/// key shares: one counting pass and at most eight scatter passes, where a
/// comparison sort of hashed keys mispredicts a branch per comparison.
template <class T, class Key>
void sort_by_u64(std::vector<T>& v, Key key) {
  if (v.size() < 256) {
    std::sort(v.begin(), v.end(), [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  std::array<std::array<std::size_t, 256>, 8> offsets{};
  for (const T& x : v)
    for (std::size_t b = 0; b < 8; ++b) ++offsets[b][key(x) >> (8 * b) & 0xff];
  std::vector<T> out(v.size());
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::size_t, 256>& at = offsets[b];
    if (at[key(v.front()) >> (8 * b) & 0xff] == v.size()) continue;  // byte b never differs
    std::size_t sum = 0;
    for (std::size_t& n : at) sum += std::exchange(n, sum);
    for (const T& x : v) out[at[key(x) >> (8 * b) & 0xff]++] = x;
    v.swap(out);
  }
}

// ---- Sum codec ----
//
// The state of the five sum aggregators (every one but OverlapMatrix and
// EvidenceCollector) is built from a few shapes, and write / read /
// add_into each walk them once:
//   std::uint64_t                u64; add_into sums
//   std::array<std::uint64_t, N> N x u64, pointwise
//   key: string / int64 / AsnId  str / i64 / u32 (never summed)
//   std::map, std::unordered_map u64 count, then key, value pairs in
//                                strictly increasing key order
//   row (a std::tuple of references, or a struct with a Wire<> entry)
//                                its fields, in the listed order
// read() requires strictly increasing keys at every level and throws
// std::runtime_error otherwise: a payload with a repeated key has no
// single meaning, and write() never produces one.
namespace sum {

/// Wire<Row>::fields(row): std::tie of Row's counters, once, in wire order.
template <class Row>
struct Wire;
template <>
struct Wire<SignatureMatrix::CountryRow> {
  static auto fields(auto& r) { return std::tie(r.connections, r.matches, r.by_signature); }
};
template <>
struct Wire<AsnAggregator::AsnStats> {  // asn is the map key, not a counter
  static auto fields(auto& r) { return std::tie(r.connections, r.matches); }
};
template <>
struct Wire<TimeSeries::HourBucket> {
  static auto fields(auto& r) {
    return std::tie(r.connections, r.post_ack_psh_matches, r.by_signature);
  }
};
template <>
struct Wire<VersionProtocolAggregator::Split> {
  static auto fields(auto& r) {
    return std::tie(r.v4_total, r.v4_matches, r.v6_total, r.v6_matches, r.tls_total,
                    r.tls_psh_matches, r.http_total, r.http_psh_matches);
  }
};
template <>
struct Wire<CategoryAggregator::CountryData> {
  static auto fields(auto& r) { return std::tie(r.tampered_by_domain, r.seen_by_domain); }
};

template <class T>
constexpr bool kIsTuple = false;
template <class... Ts>
constexpr bool kIsTuple<std::tuple<Ts...>> = true;
template <class T>
constexpr bool kIsArray = false;
template <std::size_t N>
constexpr bool kIsArray<std::array<std::uint64_t, N>> = true;
template <class T>
concept Map = requires { typename T::mapped_type; };

template <class Row>
auto fields_of(Row& row) {
  if constexpr (kIsTuple<std::remove_const_t<Row>>)
    return row;
  else
    return Wire<std::remove_const_t<Row>>::fields(row);
}

template <class T>
void write(common::BinWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    w.i64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, common::AsnId>) {
    w.u32(v.value());
  } else if constexpr (kIsArray<T>) {
    w.u64s(v);
  } else if constexpr (Map<T>) {
    w.u64(v.size());
    const auto write_entry = [&w](const auto& entry) {
      write(w, entry.first);
      write(w, entry.second);
    };
    if constexpr (requires { v.bucket_count(); }) {
      // Unordered: the same bytes a std::map would write. Most comparisons
      // are settled by the integer prefix, without reaching the key's
      // heap-allocated characters.
      struct Entry {
        std::uint64_t prefix;
        const typename T::value_type* entry;
      };
      std::vector<Entry> sorted;
      sorted.reserve(v.size());
      for (const auto& entry : v) sorted.push_back({key_prefix(entry.first), &entry});
      sort_by_u64(sorted, [](const Entry& e) { return e.prefix; });
      for (auto run = sorted.begin(); run != sorted.end();) {
        const auto end = std::find_if(run, sorted.end(),
                                      [&](const Entry& e) { return e.prefix != run->prefix; });
        std::sort(run, end,
                  [](const Entry& a, const Entry& b) { return a.entry->first < b.entry->first; });
        run = end;
      }
      for (const Entry& e : sorted) write_entry(*e.entry);
    } else {
      for (const auto& entry : v) write_entry(entry);
    }
  } else {
    std::apply([&](const auto&... field) { (write(w, field), ...); }, fields_of(v));
  }
}

template <class T>
void read(common::BinReader& r, T&& out) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<U, std::uint64_t>) {
    out = r.u64();
  } else if constexpr (std::is_same_v<U, std::int64_t>) {
    out = r.i64();
  } else if constexpr (std::is_same_v<U, std::string>) {
    out = r.str();
  } else if constexpr (std::is_same_v<U, common::AsnId>) {
    out = common::AsnId(r.u32());
  } else if constexpr (kIsArray<U>) {
    for (std::uint64_t& x : out) x = r.u64();
  } else if constexpr (Map<U>) {
    out.clear();
    const std::uint64_t n = r.u64();
    // The count is validated by the per-element reads (BinUnderrun on a
    // short payload); only the pre-reservation is clamped against hostile n.
    if constexpr (requires { out.reserve(std::size_t{}); })
      out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
    const typename U::key_type* prev = nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      typename U::key_type key{};
      read(r, key);
      if (prev != nullptr && !(*prev < key))
        throw std::runtime_error("aggregate snapshot: keys not strictly increasing");
      const auto it = out.emplace_hint(out.end(), std::move(key), typename U::mapped_type{});
      prev = &it->first;
      read(r, it->second);
    }
  } else {
    std::apply([&](auto&... field) { (read(r, field), ...); }, fields_of(out));
  }
}

template <class T, class Other>
void add_into(T&& mine, const Other& theirs) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<U, std::uint64_t>) {
    mine += theirs;
  } else if constexpr (kIsArray<U>) {
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] += theirs[i];
  } else if constexpr (Map<U>) {
    for (const auto& [key, value] : theirs) add_into(mine[key], value);
  } else {
    auto a = fields_of(mine);
    const auto b = fields_of(theirs);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (add_into(std::get<I>(a), std::get<I>(b)), ...);
    }(std::make_index_sequence<std::tuple_size_v<decltype(a)>>{});
  }
}

}  // namespace sum
}  // namespace

// ---- SignatureMatrix ----

template <class Self>
auto SignatureMatrix::fields(Self& m) {
  return std::tie(m.total_, m.possibly_, m.matched_, m.signature_totals_, m.stage_possibly_,
                  m.stage_matched_, m.rows_);
}

void SignatureMatrix::merge(const SignatureMatrix& other) {
  sum::add_into(fields(*this), fields(other));
}
void SignatureMatrix::snapshot(common::BinWriter& w) const { sum::write(w, fields(*this)); }
void SignatureMatrix::restore(common::BinReader& r) { sum::read(r, fields(*this)); }

void SignatureMatrix::add(const ConnectionRecord& record) {
  ++total_;
  CountryRow& row = rows_[record.country];
  ++row.connections;
  const auto& c = record.classification;
  if (c.possibly_tampered) {
    ++possibly_;
    ++stage_possibly_[static_cast<std::size_t>(c.stage)];
  }
  if (c.signature) {
    ++matched_;
    ++stage_matched_[static_cast<std::size_t>(c.stage)];
    ++row.matches;
    ++row.by_signature[static_cast<std::size_t>(*c.signature)];
    ++signature_totals_[static_cast<std::size_t>(*c.signature)];
  }
}

std::uint64_t SignatureMatrix::country_connections(const std::string& cc) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.connections;
}

std::uint64_t SignatureMatrix::count(const std::string& cc, core::Signature sig) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.by_signature[static_cast<std::size_t>(sig)];
}

std::uint64_t SignatureMatrix::signature_total(core::Signature sig) const {
  return signature_totals_[static_cast<std::size_t>(sig)];
}

std::uint64_t SignatureMatrix::country_matches(const std::string& cc) const {
  const auto it = rows_.find(cc);
  return it == rows_.end() ? 0 : it->second.matches;
}

std::uint64_t SignatureMatrix::stage_possibly(core::Stage stage) const {
  return stage_possibly_[static_cast<std::size_t>(stage)];
}

std::uint64_t SignatureMatrix::stage_matched(core::Stage stage) const {
  return stage_matched_[static_cast<std::size_t>(stage)];
}

std::vector<std::string> SignatureMatrix::countries() const {
  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& [cc, row] : rows_) out.push_back(cc);
  return out;
}

// ---- AsnAggregator ----

void AsnAggregator::add(const ConnectionRecord& record) {
  AsnStats& stats = by_country_[record.country][record.asn];
  ++stats.connections;
  if (record.classification.signature) ++stats.matches;
}

std::vector<AsnAggregator::AsnStats> AsnAggregator::top_ases(const std::string& cc,
                                                             double traffic_share) const {
  std::vector<AsnStats> out;
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return out;
  for (const auto& [asn, stats] : it->second) {
    out.push_back(stats);
    out.back().asn = asn;
  }
  std::sort(out.begin(), out.end(), [](const AsnStats& a, const AsnStats& b) {
    return a.connections > b.connections;
  });
  std::uint64_t total = 0;
  for (const auto& stats : out) total += stats.connections;
  const auto target = static_cast<std::uint64_t>(traffic_share * static_cast<double>(total));
  std::uint64_t running = 0;
  std::size_t keep = 0;
  for (; keep < out.size() && running < target; ++keep) running += out[keep].connections;
  out.resize(std::max<std::size_t>(keep, 1));
  return out;
}

std::uint64_t AsnAggregator::country_total(const std::string& cc) const {
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [asn, stats] : it->second) total += stats.connections;
  return total;
}

void AsnAggregator::merge(const AsnAggregator& other) {
  sum::add_into(by_country_, other.by_country_);
}
void AsnAggregator::snapshot(common::BinWriter& w) const { sum::write(w, by_country_); }
void AsnAggregator::restore(common::BinReader& r) { sum::read(r, by_country_); }

// ---- TimeSeries ----

void TimeSeries::add(const ConnectionRecord& record) {
  const std::int64_t hour = record.first_ts_sec / 3600;
  HourBucket& bucket = series_[record.country][hour];
  ++bucket.connections;
  const auto& c = record.classification;
  if (c.signature) {
    ++bucket.by_signature[static_cast<std::size_t>(*c.signature)];
    if (core::is_post_ack_or_psh(*c.signature)) ++bucket.post_ack_psh_matches;
  }
}

const std::map<std::int64_t, TimeSeries::HourBucket>& TimeSeries::country_hours(
    const std::string& cc) const {
  static const std::map<std::int64_t, HourBucket> kEmpty;
  const auto it = series_.find(cc);
  return it == series_.end() ? kEmpty : it->second;
}

std::vector<std::string> TimeSeries::countries() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [cc, hours] : series_) out.push_back(cc);
  return out;
}

void TimeSeries::merge(const TimeSeries& other) { sum::add_into(series_, other.series_); }
void TimeSeries::snapshot(common::BinWriter& w) const { sum::write(w, series_); }
void TimeSeries::restore(common::BinReader& r) { sum::read(r, series_); }

// ---- VersionProtocolAggregator ----

void VersionProtocolAggregator::add(const ConnectionRecord& record) {
  Split& split = by_country_[record.country];
  const auto& c = record.classification;
  const bool post_ack_psh = c.signature && core::is_post_ack_or_psh(*c.signature);
  const bool post_psh = c.signature && core::stage_of(*c.signature) == core::Stage::kPostPsh;

  if (record.ip_version == net::IpVersion::kV4) {
    ++split.v4_total;
    if (post_ack_psh) ++split.v4_matches;
  } else {
    ++split.v6_total;
    if (post_ack_psh) ++split.v6_matches;
  }
  if (record.protocol == appproto::AppProtocol::kTls) {
    ++split.tls_total;
    if (post_psh) ++split.tls_psh_matches;
  } else if (record.protocol == appproto::AppProtocol::kHttp) {
    ++split.http_total;
    if (post_psh) ++split.http_psh_matches;
  }
}

void VersionProtocolAggregator::merge(const VersionProtocolAggregator& other) {
  sum::add_into(by_country_, other.by_country_);
}
void VersionProtocolAggregator::snapshot(common::BinWriter& w) const {
  sum::write(w, by_country_);
}
void VersionProtocolAggregator::restore(common::BinReader& r) { sum::read(r, by_country_); }

// ---- CategoryAggregator ----

void CategoryAggregator::add(const ConnectionRecord& record) {
  if (!record.domain) return;
  CountryData& data = by_country_[record.country];
  ++data.seen_by_domain[*record.domain];
  // "Post-PSH tampering" in the Table 2/3 sense: the trigger content was
  // visible to us, i.e. the signature fired at or after the first data
  // packet (Post-PSH and Post-Data stages).
  const auto& c = record.classification;
  if (c.signature && (core::stage_of(*c.signature) == core::Stage::kPostPsh ||
                      core::stage_of(*c.signature) == core::Stage::kPostData))
    ++data.tampered_by_domain[*record.domain];
}

std::map<world::Category, CategoryAggregator::CategoryStats>
CategoryAggregator::country_stats(const std::string& cc,
                                  std::uint64_t domain_threshold) const {
  std::map<world::Category, CategoryStats> out;
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return out;
  for (const auto& [domain, seen] : it->second.seen_by_domain) {
    const auto category = lookup_(domain);
    if (!category) continue;
    out[*category].seen_domains.insert(domain);
  }
  for (const auto& [domain, tampered] : it->second.tampered_by_domain) {
    if (tampered < domain_threshold) continue;
    const auto category = lookup_(domain);
    if (!category) continue;
    CategoryStats& stats = out[*category];
    stats.tampered_connections += tampered;
    stats.tampered_domains.insert(domain);
  }
  return out;
}

std::vector<std::string> CategoryAggregator::tampered_domains(
    const std::string& cc, std::uint64_t domain_threshold) const {
  std::vector<std::string> out;
  const auto it = by_country_.find(cc);
  if (it == by_country_.end()) return out;
  for (const auto& [domain, tampered] : it->second.tampered_by_domain)
    if (tampered >= domain_threshold) out.push_back(domain);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CategoryAggregator::countries() const {
  std::vector<std::string> out;
  out.reserve(by_country_.size());
  for (const auto& [cc, data] : by_country_) out.push_back(cc);
  return out;
}

void CategoryAggregator::merge(const CategoryAggregator& other) {
  sum::add_into(by_country_, other.by_country_);
}
void CategoryAggregator::snapshot(common::BinWriter& w) const { sum::write(w, by_country_); }
// lookup_ is config, not state: restore keeps it.
void CategoryAggregator::restore(common::BinReader& r) { sum::read(r, by_country_); }

// ---- OverlapMatrix ----

void OverlapMatrix::add(const ConnectionRecord& record) {
  if (!record.domain) return;
  const common::FlowId key(
      common::mix64(record.client_ip_hash ^ common::fnv1a(*record.domain)));
  const std::size_t state = state_of(record.classification);
  const auto [it, inserted] = first_state_.try_emplace(key, state);
  if (inserted) return;                 // first observation of this pair
  matrix_[it->second][state] += 1;      // (first, next) transition
}

void OverlapMatrix::merge(const OverlapMatrix& other) {
  for (const auto& [key, state] : other.first_state_) {
    const auto [it, inserted] = first_state_.try_emplace(key, state);
    if (!inserted && state < it->second) it->second = state;
  }
  for (std::size_t i = 0; i < kStates; ++i)
    for (std::size_t j = 0; j < kStates; ++j) matrix_[i][j] += other.matrix_[i][j];
}

void OverlapMatrix::snapshot(common::BinWriter& w) const {
  std::vector<std::array<std::uint64_t, 2>> pairs;  // (key, state)
  pairs.reserve(first_state_.size());
  for (const auto& [key, state] : first_state_) pairs.push_back({key.value(), state});
  sort_by_u64(pairs, [](const auto& pair) { return pair[0]; });
  w.u64(pairs.size());
  for (const auto& [key, state] : pairs) {
    w.u64(key);
    w.u64(state);
  }
  for (const auto& row : matrix_) w.u64s(row);
}

void OverlapMatrix::restore(common::BinReader& r) {
  first_state_.clear();
  const std::uint64_t pairs = r.u64();
  first_state_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(pairs, 1u << 20)));
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const common::FlowId key(r.u64());
    // States index matrix_ rows; clamp so no payload can yield OOB writes.
    first_state_[key] = static_cast<std::size_t>(std::min<std::uint64_t>(r.u64(), kStates - 1));
  }
  for (auto& row : matrix_)
    for (std::uint64_t& v : row) v = r.u64();
}

std::uint64_t OverlapMatrix::row_total(std::size_t first_state) const {
  std::uint64_t total = 0;
  for (std::uint64_t v : matrix_[first_state]) total += v;
  return total;
}

}  // namespace tamper::analysis

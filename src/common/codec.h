// The state codec: one description of an aggregate part's fields drives
// its snapshot, its restore and, for the pointwise sums, its merge:
//   u8 / u32 / u64 / i64 / f64   fixed width; add_into sums u64
//   enum E                       its underlying integer, below Wire<E>::kCount
//   TaggedId (AsnId, FlowId)     its raw rep
//   std::string                  u64 length, bytes
//   EmpiricalCdf                 u64 count, its sorted samples
//   std::array<T, N>             N x T; add_into pointwise
//   std::map, std::unordered_map a count (the part's Count, u64 by default),
//                                then pairs in strictly increasing key order
//   row (a std::tie, or a type with a Wire<> entry)  its fields, in order
// read() throws std::runtime_error unless keys strictly increase at every
// level (write() never repeats one), enum values are in range and each
// count fits in the bytes left, checked before anything is reserved.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/stats.h"

namespace tamper::common::codec {

/// The first 8 bytes of `s`, zero-padded, big-endian: prefix(a) < prefix(b)
/// implies a < b, and equal prefixes leave the order to the full keys.
[[nodiscard]] inline std::uint64_t key_prefix(std::string_view s) noexcept {
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

/// Wire<Row>::fields(row): a tie of Row's fields, once, in wire order; by
/// default Row's own static fields(row). Wire<Enum>::kCount: the number of
/// valid values, 0 .. kCount - 1.
template <class T>
struct Wire {
  static auto fields(auto& row) { return T::fields(row); }
};
template <class... Fields>
struct Wire<std::tuple<Fields...>> {  // a tie lists its own fields
  static auto fields(auto& row) { return row; }
};

template <class T>
constexpr bool kIsArray = false;
template <class T, std::size_t N>
constexpr bool kIsArray<std::array<T, N>> = true;
template <class T>
concept Map = requires { typename T::mapped_type; };
template <class T>
concept Id = requires { typename T::tag_type; };

template <class Row>
auto fields_of(Row& row) {
  return Wire<std::remove_const_t<Row>>::fields(row);
}

// Count: the integer type of every map count in the part (the epoch ring
// writes u32s).
template <class Count = std::uint64_t, class T>
void write(BinWriter& w, const T& v);
template <class Count = std::uint64_t, class T>
void read(BinReader& r, T&& out);

/// `n` if the bytes left can hold n of (Parts...), each at least as long as
/// its default value (empty strings, maps and CDFs, zero counters).
template <class Count, class... Parts>
std::size_t checked_count(BinReader& r, std::uint64_t n) {
  static const std::size_t kMinBytes = [] {
    BinWriter w;
    (write<Count>(w, Parts{}), ...);
    return w.size();
  }();
  if (n > r.remaining() / kMinBytes)
    throw std::runtime_error("state snapshot: count exceeds the bytes left");
  return static_cast<std::size_t>(n);
}

template <class Count, class M>
void write_map(BinWriter& w, const M& map) {
  w.put(static_cast<Count>(map.size()));
  const auto write_entry = [&w](const auto& entry) {
    write<Count>(w, entry.first);
    write<Count>(w, entry.second);
  };
  if constexpr (!requires { map.bucket_count(); }) {
    for (const auto& entry : map) write_entry(entry);
  } else if constexpr (std::is_same_v<typename M::key_type, std::string>) {
    // The bytes a std::map would write. Most comparisons are settled by
    // the integer prefix, without reaching the key's heap-allocated
    // characters.
    struct Entry {
      std::uint64_t prefix;
      const typename M::value_type* entry;
    };
    std::vector<Entry> sorted;
    sorted.reserve(map.size());
    for (const auto& entry : map) sorted.push_back({key_prefix(entry.first), &entry});
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
    // Unsigned ID keys (a signed rep does not build: it would not sort as
    // a u64): sort copies of the (key, value) pairs, one walk of the table.
    std::vector<std::pair<typename M::key_type, typename M::mapped_type>> sorted;
    sorted.reserve(map.size());
    for (const auto& [key, value] : map) sorted.emplace_back(key, value);
    sort_by_u64(sorted, [](const auto& entry) { return std::uint64_t{entry.first.value()}; });
    for (const auto& entry : sorted) write_entry(entry);
  }
}

template <class Count, class M>
void read_map(BinReader& r, M& out) {
  using Key = typename M::key_type;
  out.clear();
  const std::size_t n =
      checked_count<Count, Key, typename M::mapped_type>(r, r.load<Count>());
  if constexpr (requires { out.reserve(n); }) out.reserve(n);
  const Key* prev = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    Key key{};
    read<Count>(r, key);
    if (prev != nullptr && !(*prev < key))
      throw std::runtime_error("state snapshot: keys not strictly increasing");
    const auto it = out.emplace_hint(out.end(), std::move(key), typename M::mapped_type{});
    prev = &it->first;
    read<Count>(r, it->second);
  }
}

template <class Count, class T>
void write(BinWriter& w, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    w.put(static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_arithmetic_v<T>) {
    w.put(v);
  } else if constexpr (Id<T>) {
    w.put(v.value());
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, EmpiricalCdf>) {
    w.u64(v.count());
    w.f64s(v.sorted_samples());
  } else if constexpr (kIsArray<T>) {
    if constexpr (std::is_same_v<typename T::value_type, std::uint64_t>)
      w.u64s(v);
    else
      for (const auto& x : v) write<Count>(w, x);
  } else if constexpr (Map<T>) {
    write_map<Count>(w, v);
  } else {
    std::apply([&](const auto&... field) { (write<Count>(w, field), ...); }, fields_of(v));
  }
}

template <class Count, class T>
void read(BinReader& r, T&& out) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_enum_v<U>) {
    const auto raw = r.load<std::underlying_type_t<U>>();
    if (raw >= Wire<U>::kCount)
      throw std::runtime_error("state snapshot: value out of range");
    out = static_cast<U>(raw);
  } else if constexpr (std::is_arithmetic_v<U>) {
    out = r.load<U>();
  } else if constexpr (Id<U>) {
    out = U(r.load<typename U::rep_type>());
  } else if constexpr (std::is_same_v<U, std::string>) {
    out = r.str();
  } else if constexpr (std::is_same_v<U, EmpiricalCdf>) {
    std::vector<double> samples(checked_count<Count, double>(r, r.u64()));
    for (double& x : samples) x = r.f64();
    out.assign(std::move(samples));
  } else if constexpr (kIsArray<U>) {
    for (auto& x : out) read<Count>(r, x);
  } else if constexpr (Map<U>) {
    read_map<Count>(r, out);
  } else {
    std::apply([&](auto&... field) { (read<Count>(r, field), ...); }, fields_of(out));
  }
}

/// Pointwise sum of `theirs` into `mine`: u64 counters add, arrays add per
/// element, maps add per key (a missing key starts at zero), rows per field.
template <class T, class Other>
void add_into(T&& mine, const Other& theirs) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<U, std::uint64_t>) {
    mine += theirs;
  } else if constexpr (kIsArray<U>) {
    for (std::size_t i = 0; i < mine.size(); ++i) add_into(mine[i], theirs[i]);
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

}  // namespace tamper::common::codec

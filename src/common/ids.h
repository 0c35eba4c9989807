// Strong ID types for the identifiers the pipeline keys everything on:
// countries, ASNs, domains, flows, PoPs, and epochs.
//
// The fleet work mixes these raw ints and strings across module
// boundaries, where a swapped (pop, epoch) argument pair silently
// corrupts merges that are otherwise proven byte-identical. Each ID here
// is a tagged wrapper over its wire representation — explicit
// construction, no implicit conversions, zero overhead (a PopId is one
// u32 in memory and in a register) — so the compiler rejects the swap.
// tamperlint rule R13 (src/lint/repo_rules.cpp) enforces the taxonomy:
// a cross-module header parameter named after one of these IDs but typed
// as a raw int/string is a finding.
//
// Serialization stays raw on purpose: wire formats (fleet/partial.h),
// checkpoints, and Radar JSON read and write `.value()` so every byte is
// identical to the pre-refactor encodings. The strong types live at the
// API surface, not in the encodings.
//
// The Inventory template is the emap-style interner: names in, dense ids
// out, deterministic both ways (ids are dense in intern order; sorted()
// enumerates by name). world/countries.h builds the canonical
// CountryId inventory from its fixed country table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tamper::common {

/// Tagged, explicitly-constructed wrapper over an integral representation.
/// Distinct Tag types never convert into each other or into raw ints; the
/// only way in is the explicit constructor and the only way out is value().
template <class Tag, class Rep>
class TaggedId {
 public:
  using rep_type = Rep;
  using tag_type = Tag;

  constexpr TaggedId() noexcept = default;
  constexpr explicit TaggedId(Rep value) noexcept : value_(value) {}

  /// The raw representation — for serialization, indexing, and arithmetic
  /// at the boundaries where bytes must stay identical.
  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  [[nodiscard]] friend constexpr bool operator==(TaggedId a, TaggedId b) noexcept {
    return a.value_ == b.value_;
  }
  [[nodiscard]] friend constexpr bool operator!=(TaggedId a, TaggedId b) noexcept {
    return a.value_ != b.value_;
  }
  [[nodiscard]] friend constexpr bool operator<(TaggedId a, TaggedId b) noexcept {
    return a.value_ < b.value_;
  }
  [[nodiscard]] friend constexpr bool operator<=(TaggedId a, TaggedId b) noexcept {
    return a.value_ <= b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>(TaggedId a, TaggedId b) noexcept {
    return a.value_ > b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>=(TaggedId a, TaggedId b) noexcept {
    return a.value_ >= b.value_;
  }

 private:
  Rep value_{};
};

// The taxonomy. Tag names double as the render prefix ("pop:3", "asn:13335")
// so log fields, timeseries scopes, and CLI output spell a PoP the same way.
struct CountryTag { static constexpr const char* kName = "country"; };
struct AsnTag     { static constexpr const char* kName = "asn"; };
struct DomainTag  { static constexpr const char* kName = "domain"; };
struct FlowTag    { static constexpr const char* kName = "flow"; };
struct PopTag     { static constexpr const char* kName = "pop"; };
struct EpochTag   { static constexpr const char* kName = "epoch"; };

using CountryId = TaggedId<CountryTag, std::uint32_t>;  ///< dense index into a country inventory
using AsnId = TaggedId<AsnTag, std::uint32_t>;          ///< the AS number itself
using DomainId = TaggedId<DomainTag, std::uint32_t>;    ///< dense index into a domain inventory
using FlowId = TaggedId<FlowTag, std::uint64_t>;        ///< flow pair-hash (aggregates.h OverlapMatrix)
using PopId = TaggedId<PopTag, std::uint32_t>;          ///< fleet point-of-presence ordinal
using EpochId = TaggedId<EpochTag, std::uint64_t>;      ///< capture-time epoch ordinal

/// "pop:3", "epoch:17", ... — the one rendering used everywhere a strong ID
/// reaches human-facing text (structured logs, status tables, scope names).
template <class Tag, class Rep>
[[nodiscard]] std::string format(TaggedId<Tag, Rep> id) {
  return std::string(Tag::kName) + ":" + std::to_string(id.value());
}

template <class Tag, class Rep>
std::ostream& operator<<(std::ostream& out, TaggedId<Tag, Rep> id) {
  return out << Tag::kName << ':' << id.value();
}

namespace internal {
/// Strict decimal parse (no sign, no leading '+', no trailing junk, must
/// fit in u64). CLI ID parsing funnels through this so "pop:x7" and ""
/// fail loudly instead of strtoull-style silently reading 0.
[[nodiscard]] inline std::optional<std::uint64_t> parse_decimal_u64(
    std::string_view text) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t out = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (~std::uint64_t{0} - digit) / 10) return std::nullopt;
    out = out * 10 + digit;
  }
  return out;
}
}  // namespace internal

/// Parse an ID from CLI text: either the bare number ("3") or the rendered
/// form ("pop:3" for PopId). Rejects anything else — unknown prefixes,
/// signs, empty strings, overflow.
template <class Id>
[[nodiscard]] std::optional<Id> parse_id(std::string_view text) {
  const std::string_view prefix = Id::tag_type::kName;
  if (text.size() > prefix.size() + 1 && text.substr(0, prefix.size()) == prefix &&
      text[prefix.size()] == ':')
    text.remove_prefix(prefix.size() + 1);
  const auto raw = internal::parse_decimal_u64(text);
  if (!raw) return std::nullopt;
  using Rep = typename Id::rep_type;
  if (*raw > static_cast<std::uint64_t>(~Rep{0})) return std::nullopt;
  return Id(static_cast<Rep>(*raw));
}

/// A timeseries emission scope name: "local", "fleet", or "pop:<id>" —
/// the grammar of obs::TimeseriesScope::name and `tamperscope trends
/// --scope`. Parsed strictly so CLI typos fail instead of matching nothing.
struct ScopeName {
  enum class Kind : std::uint8_t { kLocal = 0, kFleet = 1, kPop = 2 };
  Kind kind = Kind::kLocal;
  PopId pop{};  ///< meaningful only when kind == kPop

  [[nodiscard]] std::string str() const {
    switch (kind) {
      case Kind::kFleet: return "fleet";
      case Kind::kPop: return format(pop);
      case Kind::kLocal: break;
    }
    return "local";
  }
  [[nodiscard]] bool operator==(const ScopeName& o) const noexcept {
    return kind == o.kind && (kind != Kind::kPop || pop == o.pop);
  }
};

[[nodiscard]] inline std::optional<ScopeName> parse_scope(std::string_view text) {
  if (text == "local") return ScopeName{ScopeName::Kind::kLocal, PopId{}};
  if (text == "fleet") return ScopeName{ScopeName::Kind::kFleet, PopId{}};
  if (text.size() > 4 && text.substr(0, 4) == "pop:") {
    const auto pop = parse_id<PopId>(text.substr(4));
    if (!pop) return std::nullopt;
    return ScopeName{ScopeName::Kind::kPop, *pop};
  }
  return std::nullopt;
}

/// emap-style interner: names in, dense ids out, deterministic both ways.
/// Ids are dense in intern order (so an inventory built from a fixed table
/// reproduces the table's indices); sorted() enumerates by name for
/// deterministic iteration independent of intern order.
template <class Id>
class Inventory {
 public:
  using rep_type = typename Id::rep_type;

  Inventory() = default;
  /// Intern a whole table in order: ids 0..n-1 match the table's indices.
  explicit Inventory(const std::vector<std::string>& names) {
    for (const std::string& n : names) intern(n);
  }

  /// The id for `name`, interning it if new. Ids are dense: the k-th
  /// distinct name ever interned gets id k.
  Id intern(std::string_view name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const Id id(static_cast<rep_type>(names_.size()));
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  /// The id for `name` if already interned; nullopt otherwise (never interns).
  [[nodiscard]] std::optional<Id> try_id(std::string_view name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// The name for `id` if it was handed out by this inventory.
  [[nodiscard]] std::optional<std::string_view> try_name(Id id) const {
    const auto i = static_cast<std::size_t>(id.value());
    if (i >= names_.size()) return std::nullopt;
    return std::string_view(names_[i]);
  }

  /// The name for `id`; throws std::out_of_range on an unknown id.
  [[nodiscard]] const std::string& name(Id id) const {
    const auto i = static_cast<std::size_t>(id.value());
    if (i >= names_.size())
      throw std::out_of_range("unknown " + format(id) + " (inventory holds " +
                              std::to_string(names_.size()) + ")");
    return names_[i];
  }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool empty() const noexcept { return names_.empty(); }

  /// Names in id order (intern order) — the dense table view.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// (name, id) pairs sorted by name — the deterministic enumeration for
  /// reports and round-trip tests, independent of intern order.
  [[nodiscard]] std::vector<std::pair<std::string, Id>> sorted() const {
    std::vector<std::pair<std::string, Id>> out;
    out.reserve(index_.size());
    for (const auto& [name, id] : index_) out.emplace_back(name, id);
    return out;
  }

 private:
  std::vector<std::string> names_;  ///< id -> name, dense
  /// name -> id; std::map keeps sorted() allocation-free to build and the
  /// transparent comparator lets intern()/try_id() probe with string views.
  std::map<std::string, Id, std::less<>> index_;
};

using CountryInventory = Inventory<CountryId>;
using DomainInventory = Inventory<DomainId>;

}  // namespace tamper::common

template <class Tag, class Rep>
struct std::hash<tamper::common::TaggedId<Tag, Rep>> {
  [[nodiscard]] std::size_t operator()(
      tamper::common::TaggedId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

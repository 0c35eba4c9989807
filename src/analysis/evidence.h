// Injection evidence from IP-ID and TTL discontinuities (§4.3, Figs. 2-3).
//
// A forged tear-down packet is stamped by the injector's IP stack, so its
// IP-ID usually falls far from the client's counter and its TTL reflects a
// different path length. We measure, per connection:
//   * tampered: the maximum |delta| between each tear-down (RST) packet and
//     the preceding non-tear-down packet in the reconstructed order;
//   * clean ("Not Tampering"): the maximum |delta| between consecutive
//     packets — the baseline that is <= 1 for >95% of connections.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <tuple>

#include "analysis/record.h"
#include "capture/sample.h"
#include "common/binio.h"
#include "common/stats.h"
#include "core/classifier.h"
#include "core/signature.h"

namespace tamper::analysis {

struct EvidenceDeltas {
  std::optional<std::uint32_t> max_ipid_delta;  ///< absent when not computable
  std::optional<std::uint32_t> max_ttl_delta;
};

/// Deltas for one sample given its classification. IPv6 samples yield no
/// IP-ID delta (the field does not exist).
[[nodiscard]] EvidenceDeltas evidence_deltas(const capture::ConnectionSample& sample,
                                             const core::Classification& classification,
                                             const core::ClassifierConfig& config = {});
/// The same deltas from an already ordered view of the sample's packets.
[[nodiscard]] EvidenceDeltas evidence_deltas(const core::OrderedPackets& ordered,
                                             net::IpVersion ip_version,
                                             const core::Classification& classification);

/// Per-signature CDFs of the deltas, capped at `per_signature_cap`
/// connections each (the paper samples up to 1,000 per signature).
class EvidenceCollector {
 public:
  static constexpr std::size_t kBuckets = core::kSignatureCount + 1;  ///< +1 clean

  explicit EvidenceCollector(std::size_t per_signature_cap = 1000)
      : cap_(per_signature_cap) {}

  void add(const capture::ConnectionSample& sample, const ConnectionRecord& record);
  /// The same, given `ordered` = core::order_packets(sample) (default
  /// config), so a caller that classified the sample orders it once.
  void add(const capture::ConnectionSample& sample, const ConnectionRecord& record,
           const core::OrderedPackets& ordered);

  /// Bucket index: signature value, or kBuckets-1 for "Not Tampering".
  [[nodiscard]] const common::EmpiricalCdf& ipid_cdf(std::size_t bucket) const {
    return ipid_[bucket];
  }
  [[nodiscard]] const common::EmpiricalCdf& ttl_cdf(std::size_t bucket) const {
    return ttl_[bucket];
  }
  [[nodiscard]] static std::size_t clean_bucket() noexcept { return kBuckets - 1; }

  /// Multiset union of the per-bucket delta samples (commutative monoid).
  /// The cap is a per-vantage collection-rate limit, deliberately NOT
  /// re-applied at merge time: truncating the union would make the result
  /// depend on merge order and break associativity. A merged bucket may
  /// therefore hold up to cap × PoP-count samples.
  void merge(const EvidenceCollector& other);

  void snapshot(common::BinWriter& w) const;
  void restore(common::BinReader& r);

 private:
  /// The bucket `record` counts in, or nullopt when it is not plotted or
  /// its bucket is full.
  [[nodiscard]] std::optional<std::size_t> open_bucket(const ConnectionRecord& record) const;
  void record_deltas(std::size_t bucket, const EvidenceDeltas& deltas);

  std::size_t cap_;
  std::array<common::EmpiricalCdf, kBuckets> ipid_{};
  std::array<common::EmpiricalCdf, kBuckets> ttl_{};
  template <class Self>  // the members above, in wire order
  static auto fields(Self& c) { return std::tie(c.cap_, c.ipid_, c.ttl_); }
};

}  // namespace tamper::analysis

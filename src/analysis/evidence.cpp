#include "analysis/evidence.h"

#include <algorithm>
#include <vector>

#include "common/codec.h"

namespace tamper::analysis {

namespace {
std::uint32_t abs_delta_u16(std::uint16_t a, std::uint16_t b) noexcept {
  return static_cast<std::uint32_t>(a > b ? a - b : b - a);
}
std::uint32_t abs_delta_u8(std::uint8_t a, std::uint8_t b) noexcept {
  return static_cast<std::uint32_t>(a > b ? a - b : b - a);
}
}  // namespace

EvidenceDeltas evidence_deltas(const capture::ConnectionSample& sample,
                               const core::Classification& classification,
                               const core::ClassifierConfig& config) {
  return evidence_deltas(core::order_packets(sample, config), sample.ip_version,
                         classification);
}

EvidenceDeltas evidence_deltas(const core::OrderedPackets& ordered, net::IpVersion ip_version,
                               const core::Classification& classification) {
  EvidenceDeltas out;
  if (ordered.size() < 2) return out;
  const bool has_ipid = ip_version == net::IpVersion::kV4;

  std::uint32_t ipid_max = 0, ttl_max = 0;
  bool any = false;
  if (classification.signature && classification.rst_count + classification.rst_ack_count > 0) {
    // Tampered: compare each tear-down packet with the closest preceding
    // non-tear-down packet.
    const capture::ObservedPacket* last_clean = nullptr;
    for (const auto* pkt : ordered) {
      if (pkt->is_rst()) {
        if (last_clean == nullptr) continue;
        ipid_max = std::max(ipid_max, abs_delta_u16(pkt->ip_id, last_clean->ip_id));
        ttl_max = std::max(ttl_max, abs_delta_u8(pkt->ttl, last_clean->ttl));
        any = true;
      } else {
        last_clean = pkt;
      }
    }
  } else {
    // Baseline: consecutive-packet deltas.
    for (std::size_t i = 1; i < ordered.size(); ++i) {
      ipid_max = std::max(ipid_max, abs_delta_u16(ordered[i]->ip_id, ordered[i - 1]->ip_id));
      ttl_max = std::max(ttl_max, abs_delta_u8(ordered[i]->ttl, ordered[i - 1]->ttl));
      any = true;
    }
  }
  if (!any) return out;
  if (has_ipid) out.max_ipid_delta = ipid_max;
  out.max_ttl_delta = ttl_max;
  return out;
}

std::optional<std::size_t> EvidenceCollector::open_bucket(const ConnectionRecord& record) const {
  const auto& c = record.classification;
  std::size_t bucket;
  if (c.signature) {
    bucket = static_cast<std::size_t>(*c.signature);
  } else if (!c.possibly_tampered) {
    bucket = clean_bucket();
  } else {
    return std::nullopt;  // unmatched possibly-tampered: not plotted in Figs. 2-3
  }
  if (ttl_[bucket].count() >= cap_) return std::nullopt;
  return bucket;
}

void EvidenceCollector::record_deltas(std::size_t bucket, const EvidenceDeltas& deltas) {
  if (deltas.max_ipid_delta) ipid_[bucket].add(static_cast<double>(*deltas.max_ipid_delta));
  if (deltas.max_ttl_delta) ttl_[bucket].add(static_cast<double>(*deltas.max_ttl_delta));
}

void EvidenceCollector::add(const capture::ConnectionSample& sample,
                            const ConnectionRecord& record) {
  if (const auto bucket = open_bucket(record))
    record_deltas(*bucket, evidence_deltas(sample, record.classification));
}

void EvidenceCollector::add(const capture::ConnectionSample& sample,
                            const ConnectionRecord& record,
                            const core::OrderedPackets& ordered) {
  if (const auto bucket = open_bucket(record))
    record_deltas(*bucket,
                  evidence_deltas(ordered, sample.ip_version, record.classification));
}

void EvidenceCollector::merge(const EvidenceCollector& other) {
  cap_ = std::max(cap_, other.cap_);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    ipid_[b].merge(other.ipid_[b]);
    ttl_[b].merge(other.ttl_[b]);
  }
}

void EvidenceCollector::snapshot(common::BinWriter& w) const {
  common::codec::write(w, fields(*this));
}
void EvidenceCollector::restore(common::BinReader& r) { common::codec::read(r, fields(*this)); }

}  // namespace tamper::analysis

#include "analysis/evidence.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

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

namespace {

void write_cdf(common::BinWriter& w, const common::EmpiricalCdf& cdf) {
  const std::vector<double>& samples = cdf.sorted_samples();
  w.u64(samples.size());
  w.f64s(samples);
}

void read_cdf(common::BinReader& r, common::EmpiricalCdf& cdf) {
  const std::uint64_t n = r.u64();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
  for (std::uint64_t i = 0; i < n; ++i) samples.push_back(r.f64());
  cdf.assign(std::move(samples));
}

}  // namespace

void EvidenceCollector::merge(const EvidenceCollector& other) {
  cap_ = std::max(cap_, other.cap_);
  const auto merge_cdf = [](common::EmpiricalCdf& into, const common::EmpiricalCdf& from) {
    if (from.count() == 0) return;
    std::vector<double> samples = into.sorted_samples();
    const std::vector<double>& more = from.sorted_samples();
    samples.insert(samples.end(), more.begin(), more.end());
    into.assign(std::move(samples));
  };
  for (std::size_t b = 0; b < kBuckets; ++b) {
    merge_cdf(ipid_[b], other.ipid_[b]);
    merge_cdf(ttl_[b], other.ttl_[b]);
  }
}

void EvidenceCollector::snapshot(common::BinWriter& w) const {
  w.u64(cap_);
  for (const auto& cdf : ipid_) write_cdf(w, cdf);
  for (const auto& cdf : ttl_) write_cdf(w, cdf);
}

void EvidenceCollector::restore(common::BinReader& r) {
  cap_ = static_cast<std::size_t>(r.u64());
  for (auto& cdf : ipid_) read_cdf(r, cdf);
  for (auto& cdf : ttl_) read_cdf(r, cdf);
}

}  // namespace tamper::analysis

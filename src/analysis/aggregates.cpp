#include "analysis/aggregates.h"

#include <algorithm>

#include "common/codec.h"
#include "common/rng.h"

template <>  // first states index matrix_ rows
struct tamper::common::codec::Wire<tamper::analysis::OverlapMatrix::State> {
  static constexpr std::size_t kCount = analysis::OverlapMatrix::kStates;
};

namespace tamper::analysis {

namespace codec = common::codec;

// ---- SignatureMatrix ----

void SignatureMatrix::merge(const SignatureMatrix& other) {
  codec::add_into(fields(*this), fields(other));
}
void SignatureMatrix::snapshot(common::BinWriter& w) const { codec::write(w, fields(*this)); }
void SignatureMatrix::restore(common::BinReader& r) { codec::read(r, fields(*this)); }

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
  codec::add_into(by_country_, other.by_country_);
}
void AsnAggregator::snapshot(common::BinWriter& w) const { codec::write(w, by_country_); }
void AsnAggregator::restore(common::BinReader& r) { codec::read(r, by_country_); }

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

void TimeSeries::merge(const TimeSeries& other) { codec::add_into(series_, other.series_); }
void TimeSeries::snapshot(common::BinWriter& w) const { codec::write(w, series_); }
void TimeSeries::restore(common::BinReader& r) { codec::read(r, series_); }

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
  codec::add_into(by_country_, other.by_country_);
}
void VersionProtocolAggregator::snapshot(common::BinWriter& w) const {
  codec::write(w, by_country_);
}
void VersionProtocolAggregator::restore(common::BinReader& r) { codec::read(r, by_country_); }

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
  codec::add_into(by_country_, other.by_country_);
}
void CategoryAggregator::snapshot(common::BinWriter& w) const { codec::write(w, by_country_); }
// lookup_ is config, not state: restore keeps it.
void CategoryAggregator::restore(common::BinReader& r) { codec::read(r, by_country_); }

// ---- OverlapMatrix ----

void OverlapMatrix::add(const ConnectionRecord& record) {
  if (!record.domain) return;
  const common::FlowId key(
      common::mix64(record.client_ip_hash ^ common::fnv1a(*record.domain)));
  const std::size_t state = state_of(record.classification);
  const auto [it, inserted] = first_state_.try_emplace(key, State{state});
  if (inserted) return;                                    // first observation of this pair
  matrix_[static_cast<std::size_t>(it->second)][state] += 1;  // (first, next) transition
}

void OverlapMatrix::merge(const OverlapMatrix& other) {
  for (const auto& [key, state] : other.first_state_) {
    const auto [it, inserted] = first_state_.try_emplace(key, state);
    if (!inserted && state < it->second) it->second = state;
  }
  codec::add_into(matrix_, other.matrix_);
}

void OverlapMatrix::snapshot(common::BinWriter& w) const { codec::write(w, fields(*this)); }

void OverlapMatrix::restore(common::BinReader& r) { codec::read(r, fields(*this)); }

std::uint64_t OverlapMatrix::row_total(std::size_t first_state) const {
  std::uint64_t total = 0;
  for (std::uint64_t v : matrix_[first_state]) total += v;
  return total;
}

}  // namespace tamper::analysis

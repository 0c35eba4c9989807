// Per-connection analysis record.
//
// Everything here is derived the way the paper derives it: source country
// and AS from a geo lookup on the client address, the requested domain and
// application protocol from DPI on the first data payload, and the
// signature from the classifier. Ground truth never enters this path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "appproto/dpi.h"
#include "common/ids.h"
#include "capture/sample.h"
#include "core/classifier.h"
#include "world/geo.h"

namespace tamper::analysis {

struct ConnectionRecord {
  core::Classification classification;
  std::string country = "??";  ///< "??" when the source address is unattributed
  common::AsnId asn{};
  net::IpVersion ip_version = net::IpVersion::kV4;
  appproto::AppProtocol protocol = appproto::AppProtocol::kUnknown;
  std::optional<std::string> domain;  ///< from SNI / Host; absent for drops
  std::optional<std::string> http_user_agent;
  std::int64_t first_ts_sec = 0;
  std::uint64_t client_ip_hash = 0;  ///< stable key for (IP, domain) pairing
};

/// `parse_app_proto = false` is the overload ladder's evidence-only mode
/// (control::Level::kEvidenceOnly and above): skip the DPI payload
/// inspection, keeping the port-derived protocol and the tamper-signature
/// classification — the part of the record that must never degrade.
///
/// `ordered` is core::order_packets(sample, classifier.config()), for a
/// caller that reuses it (Pipeline::ingest hands it on to the evidence
/// collector).
[[nodiscard]] inline ConnectionRecord analyze(const capture::ConnectionSample& sample,
                                              const core::OrderedPackets& ordered,
                                              const world::GeoDatabase& geo,
                                              const core::SignatureClassifier& classifier,
                                              bool parse_app_proto = true) {
  ConnectionRecord record;
  record.classification = classifier.classify(sample, ordered);
  record.ip_version = sample.ip_version;
  if (const auto country = geo.lookup_country(sample.client_ip)) record.country = *country;
  if (const auto asn = geo.lookup_asn(sample.client_ip)) record.asn = *asn;
  record.client_ip_hash = sample.client_ip.hash();
  if (!sample.packets.empty()) record.first_ts_sec = sample.packets.front().ts_sec;

  // Port gives the coarse protocol; DPI refines it and yields the domain.
  if (sample.server_port == 80)
    record.protocol = appproto::AppProtocol::kHttp;
  else if (sample.server_port == 443)
    record.protocol = appproto::AppProtocol::kTls;
  if (const auto* payload = parse_app_proto ? sample.first_data_payload() : nullptr) {
    const appproto::DpiResult dpi = appproto::inspect_payload(*payload);
    if (dpi.protocol != appproto::AppProtocol::kUnknown) record.protocol = dpi.protocol;
    record.domain = dpi.domain;
    record.http_user_agent = dpi.http_user_agent;
  }
  return record;
}

[[nodiscard]] inline ConnectionRecord analyze(const capture::ConnectionSample& sample,
                                              const world::GeoDatabase& geo,
                                              const core::SignatureClassifier& classifier,
                                              bool parse_app_proto = true) {
  return analyze(sample, core::order_packets(sample, classifier.config()), geo, classifier,
                 parse_app_proto);
}

}  // namespace tamper::analysis

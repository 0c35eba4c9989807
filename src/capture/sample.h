// The connection sample record — the exact information the paper's logging
// pipeline retains (§3.2), no more:
//   * inbound (client->server) packets only,
//   * at most the first 10 packets of a connection (kMaxLoggedPackets),
//   * timestamps at 1-second granularity,
//   * the header fields of those packets, and only the payloads an
//     analysis reads: the first data packet's (DPI) and the first SYN's
//     (§4.1's SYN payloads).
// Everything downstream (the classifier, the analyses) consumes only this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/inline_vec.h"
#include "net/headers.h"
#include "net/ip_address.h"
#include "net/packet.h"

namespace tamper::capture {

/// The paper logs the first 10 inbound packets of a connection (§3.2). The
/// record holds at most this many; every "first N packets" setting
/// (sampler, traffic generator, classifier) must stay at or below it.
inline constexpr std::size_t kMaxLoggedPackets = 10;

/// One logged inbound packet: header fields only.
struct ObservedPacket {
  std::int64_t ts_sec = 0;  ///< floor(arrival time): 1 s granularity (§3.2)
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint16_t window = 0;
  std::uint8_t ttl = 0;
  std::uint16_t ip_id = 0;
  bool has_tcp_options = false;
  std::uint16_t payload_len = 0;

  [[nodiscard]] bool has(std::uint8_t bits) const noexcept {
    return (flags & bits) == bits;
  }
  [[nodiscard]] bool is_syn() const noexcept {
    return has(net::tcpflag::kSyn) && !has(net::tcpflag::kAck);
  }
  [[nodiscard]] bool is_rst() const noexcept { return has(net::tcpflag::kRst); }
  /// RST with the ACK flag (the paper's "RST+ACK").
  [[nodiscard]] bool is_rst_ack() const noexcept {
    return has(net::tcpflag::kRst) && has(net::tcpflag::kAck);
  }
  /// RST without the ACK flag (the paper's bare "RST").
  [[nodiscard]] bool is_plain_rst() const noexcept {
    return has(net::tcpflag::kRst) && !has(net::tcpflag::kAck);
  }
  [[nodiscard]] bool is_fin() const noexcept { return has(net::tcpflag::kFin); }
  [[nodiscard]] bool is_pure_ack() const noexcept {
    return flags == net::tcpflag::kAck && payload_len == 0;
  }
  [[nodiscard]] bool is_data() const noexcept {
    return payload_len > 0 && !has(net::tcpflag::kSyn) && !is_rst();
  }
};

/// All inbound packets logged for one sampled connection.
struct ConnectionSample {
  net::IpAddress client_ip;
  net::IpAddress server_ip;
  std::uint16_t client_port = 0;
  std::uint16_t server_port = 0;
  net::IpVersion ip_version = net::IpVersion::kV4;
  /// Arrival order; appending past capacity keeps the first packets.
  common::InlineVec<ObservedPacket, kMaxLoggedPackets> packets;
  /// When the tap stopped watching this flow; trailing silence is measured
  /// against this (1 s granularity like the packet timestamps).
  std::int64_t observation_end_sec = 0;
  /// Payload of the first data packet (TLS ClientHello / HTTP request
  /// head): what the DPI/analysis side gets to inspect. Empty when payloads
  /// are not kept.
  std::vector<std::uint8_t> data_payload;
  /// Payload of the first SYN, when it carried one (TCP Fast Open style
  /// requests; the §4.2 validation counts them).
  std::vector<std::uint8_t> syn_payload;

  /// Logs one packet; once the record is full the packet is dropped. Keeps
  /// `payload` when the packet is the first data packet or the first SYN.
  void log(const ObservedPacket& pkt, std::span<const std::uint8_t> payload = {});

  /// The first data packet's payload, or nullptr.
  [[nodiscard]] const std::vector<std::uint8_t>* first_data_payload() const noexcept {
    return data_payload.empty() ? nullptr : &data_payload;
  }
};

/// Convert an on-the-wire packet (a header view, or a net::Packet viewed in
/// place) to the logged form. `time_scale` is ticks per second: 1.0
/// reproduces the paper's 1-second granularity; larger values (e.g. 1000
/// for milliseconds) exist for the ablation study and scale ts_sec (and the
/// classifier's inactivity threshold) accordingly.
[[nodiscard]] ObservedPacket observe(const net::PacketView& pkt, double time_scale = 1.0);

}  // namespace tamper::capture

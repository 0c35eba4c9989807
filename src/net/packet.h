// The Packet value type used throughout the simulator, plus wire
// serialization/parsing so that packets can round-trip through pcap files
// (and real captures can be ingested by the classifier).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "net/headers.h"
#include "net/ip_address.h"

namespace tamper::net {

/// A TCP/IP packet on the simulated (or real) wire.
struct Packet {
  common::SimTime timestamp = 0.0;  ///< capture/emission time, epoch seconds
  IpAddress src;
  IpAddress dst;
  IpFields ip;
  TcpHeader tcp;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t payload_size() const noexcept { return payload.size(); }
  /// Human-readable one-liner for debugging ("1.2.3.4:1234 > 5.6.7.8:443 PSH+ACK ...").
  [[nodiscard]] std::string summary() const;
};

/// A header view of one TCP/IP packet: the addresses, the IP fields, the
/// fixed TCP fields and spans over the option and payload bytes, without
/// owning a copy of either. A view made by parse_view() aliases the bytes it
/// was parsed from (for PcapReader::next(), the reader's frame buffer, valid
/// until the next next() call); a view of a Packet aliases that Packet's
/// payload, like std::string_view of a std::string.
struct PacketView {
  common::SimTime timestamp = 0.0;
  IpAddress src;
  IpAddress dst;
  IpFields ip;
  TcpFields tcp;
  /// At least one TCP option decoded (an options block of only EOL/padding
  /// has none).
  bool has_tcp_options = false;
  bool ip_checksum_ok = true;   ///< always true for IPv6 (no header checksum)
  bool tcp_checksum_ok = true;
  /// The raw options block of a parsed frame; empty in a view of a Packet,
  /// whose options are already decoded.
  std::span<const std::uint8_t> tcp_options;
  std::span<const std::uint8_t> payload;

  PacketView() = default;
  /// Implicit, so a Packet can be passed where a view is taken; like a
  /// std::string_view, a view of a temporary Packet must not outlive the
  /// full expression.
  PacketView(const Packet& pkt) noexcept;
};

/// Serialize to raw IP bytes (IPv4 or IPv6 header + TCP header + payload)
/// with correct lengths and checksums.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Packet& pkt);

/// Result of parsing raw IP bytes.
struct ParseResult {
  Packet packet;
  bool ip_checksum_ok = true;   ///< always true for IPv6 (no header checksum)
  bool tcp_checksum_ok = true;
};

/// Parse raw IP bytes into a view over them (auto-detects v4/v6 from the
/// version nibble). Checks every length, decodes the option block within
/// its bounds (at most 64 options) and computes both checksums. Returns
/// nullopt for malformed or non-TCP input.
[[nodiscard]] std::optional<PacketView> parse_view(std::span<const std::uint8_t> bytes,
                                                   common::SimTime timestamp = 0.0);

/// An owning Packet with the view's fields, decoded options and a copy of
/// its payload. Throws std::invalid_argument for a view of a Packet that has
/// options: such a view does not carry the option bytes, and the copy would
/// silently lose them.
[[nodiscard]] Packet to_packet(const PacketView& view);

/// parse_view(), then to_packet().
[[nodiscard]] std::optional<ParseResult> parse(std::span<const std::uint8_t> bytes,
                                               common::SimTime timestamp = 0.0);

// ---- Packet construction helpers used by endpoints and middleboxes ----

[[nodiscard]] Packet make_tcp_packet(const IpAddress& src, std::uint16_t sport,
                                     const IpAddress& dst, std::uint16_t dport,
                                     std::uint8_t flags, std::uint32_t seq,
                                     std::uint32_t ack,
                                     std::vector<std::uint8_t> payload = {});

}  // namespace tamper::net

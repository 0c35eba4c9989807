// Protocol header value types: TCP flags, TCP options, and the IPv4/IPv6 +
// TCP header fields libtamper models. These are *parsed* representations;
// wire encoding/decoding lives in net/packet.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tamper::net {

/// TCP flag bits, RFC 9293 layout (low byte of offset/flags word).
namespace tcpflag {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
inline constexpr std::uint8_t kUrg = 0x20;
inline constexpr std::uint8_t kEce = 0x40;
inline constexpr std::uint8_t kCwr = 0x80;
}  // namespace tcpflag

/// Readable rendering such as "SYN", "PSH+ACK", "RST+ACK".
[[nodiscard]] std::string flags_to_string(std::uint8_t flags);

enum class TcpOptionKind : std::uint8_t {
  kEnd = 0,
  kNop = 1,
  kMss = 2,
  kWindowScale = 3,
  kSackPermitted = 4,
  kSack = 5,
  kTimestamps = 8,
};

/// A single decoded TCP option.
struct TcpOption {
  TcpOptionKind kind = TcpOptionKind::kNop;
  // Interpretation depends on kind; unused fields stay zero.
  std::uint16_t mss = 0;
  std::uint8_t window_scale = 0;
  std::uint32_t ts_value = 0;
  std::uint32_t ts_echo = 0;
  /// Raw payload for kinds without dedicated fields (e.g. SACK blocks).
  std::vector<std::uint8_t> raw;

  [[nodiscard]] static TcpOption mss_opt(std::uint16_t mss);
  [[nodiscard]] static TcpOption window_scale_opt(std::uint8_t shift);
  [[nodiscard]] static TcpOption sack_permitted_opt();
  [[nodiscard]] static TcpOption timestamps_opt(std::uint32_t value, std::uint32_t echo);
  [[nodiscard]] static TcpOption nop_opt();
};

/// The fixed 20-byte part of a TCP header: what a header view carries.
struct TcpFields {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t urgent_pointer = 0;

  [[nodiscard]] bool has(std::uint8_t flag_bits) const noexcept {
    return (flags & flag_bits) == flag_bits;
  }
  [[nodiscard]] bool is_syn() const noexcept {
    return has(tcpflag::kSyn) && !has(tcpflag::kAck);
  }
  [[nodiscard]] bool is_syn_ack() const noexcept {
    return has(tcpflag::kSyn) && has(tcpflag::kAck);
  }
  [[nodiscard]] bool is_rst() const noexcept { return has(tcpflag::kRst); }
};

/// Parsed TCP header (without payload): the fixed fields plus the decoded
/// options.
struct TcpHeader : TcpFields {
  std::vector<TcpOption> options;

  /// Size of the encoded options block in bytes, padded to a 4-byte multiple.
  [[nodiscard]] std::size_t options_wire_size() const;
  [[nodiscard]] std::size_t header_size() const { return 20 + options_wire_size(); }

  [[nodiscard]] std::optional<std::uint16_t> mss() const noexcept;
  [[nodiscard]] bool sack_permitted() const noexcept;
  [[nodiscard]] std::optional<std::uint32_t> timestamp_value() const noexcept;
};

/// Fields of the IP layer that the tampering analyses care about.
/// For IPv6, `ttl` carries the Hop Limit and `ip_id` is zero.
struct IpFields {
  std::uint8_t ttl = 64;
  std::uint16_t ip_id = 0;
  std::uint8_t dscp = 0;
  bool dont_fragment = true;
};

}  // namespace tamper::net

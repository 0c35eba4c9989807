#include "net/packet.h"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "net/checksum.h"

namespace tamper::net {

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

std::uint32_t get32(std::span<const std::uint8_t> b, std::size_t off) {
  return (static_cast<std::uint32_t>(b[off]) << 24) |
         (static_cast<std::uint32_t>(b[off + 1]) << 16) |
         (static_cast<std::uint32_t>(b[off + 2]) << 8) | b[off + 3];
}

void encode_options(std::vector<std::uint8_t>& out, const std::vector<TcpOption>& options) {
  const std::size_t start = out.size();
  for (const auto& o : options) {
    switch (o.kind) {
      case TcpOptionKind::kEnd:
        out.push_back(0);
        break;
      case TcpOptionKind::kNop:
        out.push_back(1);
        break;
      case TcpOptionKind::kMss:
        out.push_back(2);
        out.push_back(4);
        put16(out, o.mss);
        break;
      case TcpOptionKind::kWindowScale:
        out.push_back(3);
        out.push_back(3);
        out.push_back(o.window_scale);
        break;
      case TcpOptionKind::kSackPermitted:
        out.push_back(4);
        out.push_back(2);
        break;
      case TcpOptionKind::kTimestamps:
        out.push_back(8);
        out.push_back(10);
        put32(out, o.ts_value);
        put32(out, o.ts_echo);
        break;
      case TcpOptionKind::kSack:
        out.push_back(5);
        out.push_back(static_cast<std::uint8_t>(2 + o.raw.size()));
        out.insert(out.end(), o.raw.begin(), o.raw.end());
        break;
    }
  }
  while ((out.size() - start) % 4 != 0) out.push_back(0);  // pad with EOL
}

/// Wire length of the fixed-size option kinds; 0 for the variable-length
/// ones.
std::size_t fixed_length(std::uint8_t kind) noexcept {
  switch (static_cast<TcpOptionKind>(kind)) {
    case TcpOptionKind::kMss:
      return 4;
    case TcpOptionKind::kWindowScale:
      return 3;
    case TcpOptionKind::kSackPermitted:
      return 2;
    case TcpOptionKind::kTimestamps:
      return 10;
    case TcpOptionKind::kEnd:
    case TcpOptionKind::kNop:
    case TcpOptionKind::kSack:
    default:
      return 0;
  }
}

/// Walks a TCP options block and hands each option to `emit(kind, body)`,
/// `body` being the bytes after its kind and length bytes. Returns the
/// number of options, or nullopt when the block is malformed: a length
/// running past the block, a length under the 2-byte preamble, a wrong
/// length for a fixed-size kind, or more options than fit a real block.
template <typename Emit>
std::optional<std::size_t> walk_options(std::span<const std::uint8_t> block, Emit&& emit) {
  // A TCP options block is at most 40 bytes, so no well-formed segment
  // carries more options than this; anything past it is hostile garbage.
  constexpr std::size_t kMaxOptions = 64;
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < block.size()) {
    if (count >= kMaxOptions) return std::nullopt;
    const std::uint8_t kind = block[i];
    if (kind == 0) break;  // End of option list
    ++count;
    if (kind == 1) {
      emit(kind, block.subspan(i + 1, 0));
      ++i;
      continue;
    }
    if (i + 1 >= block.size()) return std::nullopt;
    // The attacker controls this length byte: every use below must stay
    // inside `block`, and a length under the 2-byte kind+len preamble
    // would loop forever.
    const std::uint8_t len = block[i + 1];
    if (len < 2 || i + len > block.size()) return std::nullopt;
    if (const std::size_t want = fixed_length(kind); want != 0 && len != want)
      return std::nullopt;
    emit(kind, block.subspan(i + 2, len - 2u));
    i += len;
  }
  return count;
}

/// One option walk_options() accepted.
TcpOption decode_option(std::uint8_t kind, std::span<const std::uint8_t> body) {
  switch (static_cast<TcpOptionKind>(kind)) {
    case TcpOptionKind::kNop:
      return TcpOption::nop_opt();
    case TcpOptionKind::kMss:
      return TcpOption::mss_opt(get16(body, 0));
    case TcpOptionKind::kWindowScale:
      return TcpOption::window_scale_opt(body[0]);
    case TcpOptionKind::kSackPermitted:
      return TcpOption::sack_permitted_opt();
    case TcpOptionKind::kTimestamps:
      return TcpOption::timestamps_opt(get32(body, 0), get32(body, 4));
    case TcpOptionKind::kEnd:  // ends the walk, never emitted
    case TcpOptionKind::kSack:
    default:
      break;
  }
  // SACK and unknown options: preserve raw bytes so round-trips don't lose
  // data.
  TcpOption o;
  o.kind = static_cast<TcpOptionKind>(kind);
  o.raw.assign(body.begin(), body.end());
  return o;
}

}  // namespace

std::string Packet::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s:%u > %s:%u %s seq=%u ack=%u len=%zu ttl=%u id=%u",
                src.to_string().c_str(), tcp.src_port, dst.to_string().c_str(),
                tcp.dst_port, flags_to_string(tcp.flags).c_str(), tcp.seq, tcp.ack,
                payload.size(), ip.ttl, ip.ip_id);
  return buf;
}

std::vector<std::uint8_t> serialize(const Packet& pkt) {
  // Build the TCP segment first (checksum needs the pseudo-header).
  std::vector<std::uint8_t> seg;
  seg.reserve(pkt.tcp.header_size() + pkt.payload.size());
  put16(seg, pkt.tcp.src_port);
  put16(seg, pkt.tcp.dst_port);
  put32(seg, pkt.tcp.seq);
  put32(seg, pkt.tcp.ack);
  const std::size_t header_len = pkt.tcp.header_size();
  seg.push_back(static_cast<std::uint8_t>((header_len / 4) << 4));
  seg.push_back(pkt.tcp.flags);
  put16(seg, pkt.tcp.window);
  put16(seg, 0);  // checksum placeholder
  put16(seg, pkt.tcp.urgent_pointer);
  encode_options(seg, pkt.tcp.options);
  seg.insert(seg.end(), pkt.payload.begin(), pkt.payload.end());
  const std::uint16_t tcp_sum = tcp_checksum(pkt.src, pkt.dst, seg);
  seg[16] = static_cast<std::uint8_t>(tcp_sum >> 8);
  seg[17] = static_cast<std::uint8_t>(tcp_sum);

  std::vector<std::uint8_t> out;
  if (pkt.src.is_v4()) {
    out.reserve(20 + seg.size());
    out.push_back(0x45);  // version 4, IHL 5 (we never emit IP options)
    out.push_back(static_cast<std::uint8_t>(pkt.ip.dscp << 2));
    put16(out, static_cast<std::uint16_t>(20 + seg.size()));
    put16(out, pkt.ip.ip_id);
    put16(out, pkt.ip.dont_fragment ? 0x4000 : 0x0000);
    out.push_back(pkt.ip.ttl);
    out.push_back(6);  // TCP
    put16(out, 0);     // header checksum placeholder
    const std::uint32_t s = pkt.src.v4_value();
    const std::uint32_t d = pkt.dst.v4_value();
    put32(out, s);
    put32(out, d);
    const std::uint16_t ip_sum = internet_checksum({out.data(), 20});
    out[10] = static_cast<std::uint8_t>(ip_sum >> 8);
    out[11] = static_cast<std::uint8_t>(ip_sum);
  } else {
    out.reserve(40 + seg.size());
    out.push_back(0x60);  // version 6, traffic class upper nibble 0
    out.push_back(static_cast<std::uint8_t>(pkt.ip.dscp << 2));
    put16(out, 0);  // flow label low bits
    put16(out, static_cast<std::uint16_t>(seg.size()));
    out.push_back(6);  // next header: TCP
    out.push_back(pkt.ip.ttl);
    const auto& sb = pkt.src.bytes();
    const auto& db = pkt.dst.bytes();
    out.insert(out.end(), sb.begin(), sb.end());
    out.insert(out.end(), db.begin(), db.end());
  }
  out.insert(out.end(), seg.begin(), seg.end());
  return out;
}

PacketView::PacketView(const Packet& pkt) noexcept
    : timestamp(pkt.timestamp),
      src(pkt.src),
      dst(pkt.dst),
      ip(pkt.ip),
      tcp(pkt.tcp),
      has_tcp_options(!pkt.tcp.options.empty()),
      payload(pkt.payload) {}

std::optional<PacketView> parse_view(std::span<const std::uint8_t> bytes,
                                     common::SimTime timestamp) {
  if (bytes.size() < 20) return std::nullopt;
  std::optional<PacketView> out(std::in_place);
  PacketView& view = *out;
  view.timestamp = timestamp;

  std::size_t l4_offset = 0;
  const std::uint8_t version = bytes[0] >> 4;
  if (version == 4) {
    const std::size_t ihl = static_cast<std::size_t>(bytes[0] & 0x0f) * 4;
    if (ihl < 20 || bytes.size() < ihl) return std::nullopt;
    const std::uint16_t total_len = get16(bytes, 2);
    if (total_len < ihl || total_len > bytes.size()) return std::nullopt;
    if (bytes[9] != 6) return std::nullopt;  // not TCP
    view.ip.dscp = static_cast<std::uint8_t>(bytes[1] >> 2);
    view.ip.ip_id = get16(bytes, 4);
    view.ip.dont_fragment = (bytes[6] & 0x40) != 0;
    view.ip.ttl = bytes[8];
    view.src = IpAddress::v4(get32(bytes, 12));
    view.dst = IpAddress::v4(get32(bytes, 16));
    view.ip_checksum_ok = checksum_fold(bytes.first(ihl)) == 0xffff;
    l4_offset = ihl;
    bytes = bytes.first(total_len);
  } else if (version == 6) {
    if (bytes.size() < 40) return std::nullopt;
    const std::uint16_t payload_len = get16(bytes, 4);
    if (bytes.size() < 40u + payload_len) return std::nullopt;
    if (bytes[6] != 6) return std::nullopt;  // extension headers unsupported
    view.ip.dscp = static_cast<std::uint8_t>(((bytes[0] & 0x0f) << 2) | (bytes[1] >> 6));
    view.ip.ip_id = 0;
    view.ip.ttl = bytes[7];
    std::array<std::uint8_t, 16> sb{}, db{};
    for (std::size_t i = 0; i < 16; ++i) {
      sb[i] = bytes[8 + i];
      db[i] = bytes[24 + i];
    }
    view.src = IpAddress::v6(sb);
    view.dst = IpAddress::v6(db);
    l4_offset = 40;
    bytes = bytes.first(40u + payload_len);
  } else {
    return std::nullopt;
  }

  const auto seg = bytes.subspan(l4_offset);
  if (seg.size() < 20) return std::nullopt;
  TcpFields& tcp = view.tcp;
  tcp.src_port = get16(seg, 0);
  tcp.dst_port = get16(seg, 2);
  tcp.seq = get32(seg, 4);
  tcp.ack = get32(seg, 8);
  const std::size_t data_offset = static_cast<std::size_t>(seg[12] >> 4) * 4;
  if (data_offset < 20 || data_offset > seg.size()) return std::nullopt;
  tcp.flags = seg[13];
  tcp.window = get16(seg, 14);
  tcp.urgent_pointer = get16(seg, 18);
  view.tcp_options = seg.subspan(20, data_offset - 20);
  const auto options = walk_options(view.tcp_options, [](std::uint8_t, auto) {});
  if (!options) return std::nullopt;
  view.has_tcp_options = *options > 0;
  view.payload = seg.subspan(data_offset);
  view.tcp_checksum_ok = tcp_checksum(view.src, view.dst, seg) == 0;
  return out;
}

Packet to_packet(const PacketView& view) {
  if (view.has_tcp_options && view.tcp_options.empty())
    throw std::invalid_argument("to_packet: a view of a Packet has no option bytes");
  Packet pkt;
  pkt.timestamp = view.timestamp;
  pkt.src = view.src;
  pkt.dst = view.dst;
  pkt.ip = view.ip;
  static_cast<TcpFields&>(pkt.tcp) = view.tcp;
  walk_options(view.tcp_options,
               [&](std::uint8_t kind, std::span<const std::uint8_t> body) {
                 pkt.tcp.options.push_back(decode_option(kind, body));
               });
  pkt.payload.assign(view.payload.begin(), view.payload.end());
  return pkt;
}

std::optional<ParseResult> parse(std::span<const std::uint8_t> bytes,
                                 common::SimTime timestamp) {
  const auto view = parse_view(bytes, timestamp);
  if (!view) return std::nullopt;
  return ParseResult{to_packet(*view), view->ip_checksum_ok, view->tcp_checksum_ok};
}

Packet make_tcp_packet(const IpAddress& src, std::uint16_t sport, const IpAddress& dst,
                       std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
                       std::uint32_t ack, std::vector<std::uint8_t> payload) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.tcp.src_port = sport;
  pkt.tcp.dst_port = dport;
  pkt.tcp.flags = flags;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = ack;
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace tamper::net

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/checksum.h"
#include "net/packet.h"

namespace tamper::net {
namespace {

Packet sample_packet(bool v6 = false) {
  Packet pkt = make_tcp_packet(
      v6 ? *IpAddress::parse("2400:44d::1234") : IpAddress::v4(11, 2, 3, 4), 51515,
      v6 ? *IpAddress::parse("2001:db8:cd:1::1") : IpAddress::v4(198, 18, 0, 7), 443,
      tcpflag::kPsh | tcpflag::kAck, 0xdeadbeef, 0x12345678,
      std::vector<std::uint8_t>{'h', 'e', 'l', 'l', 'o'});
  pkt.ip.ttl = 57;
  pkt.ip.ip_id = 4242;
  pkt.tcp.window = 29200;
  return pkt;
}

TEST(Packet, SerializeParseRoundTripV4) {
  const Packet pkt = sample_packet(false);
  const auto wire = serialize(pkt);
  const auto parsed = parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ip_checksum_ok);
  EXPECT_TRUE(parsed->tcp_checksum_ok);
  const Packet& out = parsed->packet;
  EXPECT_EQ(out.src, pkt.src);
  EXPECT_EQ(out.dst, pkt.dst);
  EXPECT_EQ(out.ip.ttl, 57);
  EXPECT_EQ(out.ip.ip_id, 4242);
  EXPECT_EQ(out.tcp.src_port, 51515);
  EXPECT_EQ(out.tcp.dst_port, 443);
  EXPECT_EQ(out.tcp.seq, 0xdeadbeef);
  EXPECT_EQ(out.tcp.ack, 0x12345678u);
  EXPECT_EQ(out.tcp.flags, tcpflag::kPsh | tcpflag::kAck);
  EXPECT_EQ(out.tcp.window, 29200);
  EXPECT_EQ(out.payload, pkt.payload);
}

TEST(Packet, SerializeParseRoundTripV6) {
  const Packet pkt = sample_packet(true);
  const auto wire = serialize(pkt);
  EXPECT_EQ(wire[0] >> 4, 6);
  const auto parsed = parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tcp_checksum_ok);
  EXPECT_EQ(parsed->packet.src, pkt.src);
  EXPECT_EQ(parsed->packet.ip.ttl, 57);  // hop limit
  EXPECT_EQ(parsed->packet.payload, pkt.payload);
}

TEST(Packet, OptionsRoundTrip) {
  Packet pkt = sample_packet();
  pkt.tcp.flags = tcpflag::kSyn;
  pkt.payload.clear();
  pkt.tcp.options = {
      TcpOption::mss_opt(1460),
      TcpOption::sack_permitted_opt(),
      TcpOption::timestamps_opt(0xaabbccdd, 0x11223344),
      TcpOption::nop_opt(),
      TcpOption::window_scale_opt(7),
  };
  const auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.has_value());
  const TcpHeader& tcp = parsed->packet.tcp;
  EXPECT_EQ(tcp.mss(), 1460);
  EXPECT_TRUE(tcp.sack_permitted());
  EXPECT_EQ(tcp.timestamp_value(), 0xaabbccddu);
  bool saw_wscale = false;
  for (const auto& option : tcp.options)
    if (option.kind == TcpOptionKind::kWindowScale) {
      saw_wscale = true;
      EXPECT_EQ(option.window_scale, 7);
    }
  EXPECT_TRUE(saw_wscale);
}

TEST(PacketView, ToPacketRefusesAViewThatWouldDropOptions) {
  Packet pkt = sample_packet();
  const PacketView plain = pkt;  // no options: nothing to lose
  const Packet copy = to_packet(plain);
  EXPECT_EQ(copy.tcp.seq, pkt.tcp.seq);
  EXPECT_EQ(copy.payload, pkt.payload);

  pkt.tcp.options = {TcpOption::mss_opt(1460)};
  const PacketView with_options = pkt;
  EXPECT_TRUE(with_options.has_tcp_options);
  EXPECT_TRUE(with_options.tcp_options.empty());
  EXPECT_THROW((void)to_packet(with_options), std::invalid_argument);

  // A view parsed from the wire carries the option bytes and round-trips.
  const auto wire = serialize(pkt);
  const auto parsed = parse_view(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_packet(*parsed).tcp.mss(), 1460);
}

TEST(Packet, HeaderSizePaddedToFourBytes) {
  TcpHeader tcp;
  tcp.options = {TcpOption::window_scale_opt(7)};  // 3 bytes -> padded to 4
  EXPECT_EQ(tcp.options_wire_size(), 4u);
  EXPECT_EQ(tcp.header_size(), 24u);
}

TEST(Packet, CorruptedIpChecksumDetected) {
  auto wire = serialize(sample_packet());
  wire[8] ^= 0xff;  // flip the TTL: IP header checksum breaks
  const auto parsed = parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ip_checksum_ok);
}

TEST(Packet, CorruptedPayloadDetectedByTcpChecksum) {
  auto wire = serialize(sample_packet());
  wire.back() ^= 0x01;
  const auto parsed = parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->tcp_checksum_ok);
}

TEST(Packet, RejectsNonTcp) {
  auto wire = serialize(sample_packet());
  wire[9] = 17;  // claim UDP
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Packet, RejectsTruncatedInputs) {
  const auto wire = serialize(sample_packet());
  for (std::size_t len : {0u, 10u, 19u, 25u, 39u}) {
    EXPECT_FALSE(parse(std::span(wire).first(len)).has_value()) << len;
  }
}

TEST(Packet, RejectsBadVersionNibble) {
  auto wire = serialize(sample_packet());
  wire[0] = 0x75;
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Packet, RejectsBadDataOffset) {
  auto wire = serialize(sample_packet());
  wire[20 + 12] = 0x30;  // TCP data offset 3 (< 5) is illegal
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Packet, SummaryMentionsFlagsAndPorts) {
  const std::string s = sample_packet().summary();
  EXPECT_NE(s.find("PSH+ACK"), std::string::npos);
  EXPECT_NE(s.find("443"), std::string::npos);
}

TEST(FlagsToString, Rendering) {
  EXPECT_EQ(flags_to_string(tcpflag::kSyn), "SYN");
  EXPECT_EQ(flags_to_string(tcpflag::kRst | tcpflag::kAck), "RST+ACK");
  EXPECT_EQ(flags_to_string(0), "NONE");
  EXPECT_EQ(flags_to_string(tcpflag::kFin | tcpflag::kAck), "FIN+ACK");
}

// Property sweep: random packets round-trip bit-exactly.
class PacketFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzzRoundTrip, Holds) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Packet pkt;
    const bool v6 = rng.chance(0.4);
    pkt.src = v6 ? IpAddress::v6(rng.next(), rng.next())
                 : IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    pkt.dst = v6 ? IpAddress::v6(rng.next(), rng.next())
                 : IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    pkt.ip.ttl = static_cast<std::uint8_t>(rng.range(1, 255));
    pkt.ip.ip_id = static_cast<std::uint16_t>(rng.below(65536));
    pkt.tcp.src_port = static_cast<std::uint16_t>(rng.below(65536));
    pkt.tcp.dst_port = static_cast<std::uint16_t>(rng.below(65536));
    pkt.tcp.seq = static_cast<std::uint32_t>(rng.next());
    pkt.tcp.ack = static_cast<std::uint32_t>(rng.next());
    pkt.tcp.flags = static_cast<std::uint8_t>(rng.below(256));
    pkt.tcp.window = static_cast<std::uint16_t>(rng.below(65536));
    pkt.payload.resize(rng.below(300));
    for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.5)) pkt.tcp.options.push_back(TcpOption::mss_opt(1400));
    if (rng.chance(0.5))
      pkt.tcp.options.push_back(TcpOption::timestamps_opt(
          static_cast<std::uint32_t>(rng.next()), static_cast<std::uint32_t>(rng.next())));

    const auto parsed = parse(serialize(pkt));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->ip_checksum_ok);
    ASSERT_TRUE(parsed->tcp_checksum_ok);
    ASSERT_EQ(parsed->packet.src, pkt.src);
    ASSERT_EQ(parsed->packet.dst, pkt.dst);
    ASSERT_EQ(parsed->packet.tcp.seq, pkt.tcp.seq);
    ASSERT_EQ(parsed->packet.tcp.ack, pkt.tcp.ack);
    ASSERT_EQ(parsed->packet.tcp.flags, pkt.tcp.flags);
    ASSERT_EQ(parsed->packet.payload, pkt.payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzzRoundTrip, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace tamper::net

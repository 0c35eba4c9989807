#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/weaver.h"
#include "world/traffic.h"

namespace tamper::core {
namespace {

using namespace net::tcpflag;
using capture::ObservedPacket;

ObservedPacket pkt(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::uint16_t ipid, std::uint8_t ttl, std::uint16_t len = 0) {
  ObservedPacket p;
  p.ts_sec = 1000;
  p.flags = flags;
  p.seq = seq;
  p.ack = ack;
  p.ip_id = ipid;
  p.ttl = ttl;
  p.payload_len = len;
  return p;
}

capture::ConnectionSample sample_of(std::vector<ObservedPacket> packets) {
  capture::ConnectionSample s;
  s.ip_version = net::IpVersion::kV4;
  s.packets.assign(packets.begin(), packets.end());
  s.observation_end_sec = 1030;
  return s;
}

// A normal handshake + request prefix with a consistent stack.
std::vector<ObservedPacket> clean_prefix() {
  return {pkt(kSyn, 100, 0, 500, 52), pkt(kAck, 101, 9000, 501, 52),
          pkt(kPsh | kAck, 101, 9000, 502, 52, 200)};
}

TEST(Weaver, CleanConnectionNotFlagged) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kFin | kAck, 301, 9500, 503, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_FALSE(verdict.forged_rst_detected);
  EXPECT_EQ(verdict.rst_count, 0u);
}

TEST(Weaver, GenuineClientRstNotFlagged) {
  // Endpoint reset: correct seq, client's own IP-ID counter and TTL.
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst | kAck, 301, 9000, 503, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_FALSE(verdict.forged_rst_detected) << verdict.evidence.size();
}

TEST(Weaver, SeqMismatchFires) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 999999, 9000, 503, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_TRUE(verdict.forged_rst_detected);
  EXPECT_TRUE(verdict.fired("SEQ"));
}

TEST(Weaver, AckDiverseFires) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 9000, 503, 52));
  packets.push_back(pkt(kRst, 301, 10460, 504, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_TRUE(verdict.fired("ACK-DIVERSE"));
  EXPECT_EQ(verdict.rst_count, 2u);
}

TEST(Weaver, AckZeroFires) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 0, 503, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_TRUE(verdict.fired("ACK-ZERO"));
}

TEST(Weaver, IpIdJumpFires) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 9000, 45000, 52));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_TRUE(verdict.fired("IPID"));
}

TEST(Weaver, IpIdIgnoredOnIpv6) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 9000, 45000, 52));
  auto s = sample_of(packets);
  s.ip_version = net::IpVersion::kV6;
  const auto verdict = weaver_detect(s);
  EXPECT_FALSE(verdict.fired("IPID"));
}

TEST(Weaver, TtlJumpFires) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 9000, 503, 40));
  const auto verdict = weaver_detect(sample_of(packets));
  EXPECT_TRUE(verdict.fired("TTL"));
}

TEST(Weaver, ThresholdsConfigurable) {
  auto packets = clean_prefix();
  packets.push_back(pkt(kRst, 301, 9000, 600, 48));  // small-ish jumps
  WeaverConfig strict;
  strict.ipid_jump_threshold = 50;
  strict.ttl_jump_threshold = 1;
  EXPECT_TRUE(weaver_detect(sample_of(packets), strict).forged_rst_detected);
  WeaverConfig lax;
  lax.ipid_jump_threshold = 1000;
  lax.ttl_jump_threshold = 10;
  EXPECT_FALSE(weaver_detect(sample_of(packets), lax).forged_rst_detected);
}

TEST(Weaver, BlindToDropTampering) {
  // SYN, ACK, then silence (a drop-based censor): nothing to inspect.
  const auto verdict = weaver_detect(
      sample_of({pkt(kSyn, 100, 0, 500, 52), pkt(kAck, 101, 9000, 501, 52)}));
  EXPECT_FALSE(verdict.forged_rst_detected);
}

TEST(Weaver, DetectsSimulatedInjectionEndToEnd) {
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0x3aa;
  world::TrafficGenerator generator(world, traffic);
  std::uint64_t injected = 0, detected = 0, dropped = 0, drop_detected = 0;
  generator.generate(8000, [&](world::LabeledConnection&& conn) {
    if (!conn.truth.tampered) return;
    const bool is_drop = conn.truth.method.find("blackhole") != std::string::npos;
    const auto verdict = weaver_detect(conn.sample);
    if (is_drop) {
      ++dropped;
      if (verdict.forged_rst_detected) ++drop_detected;
    } else {
      ++injected;
      if (verdict.forged_rst_detected) ++detected;
    }
  });
  ASSERT_GT(injected, 200u);
  ASSERT_GT(dropped, 50u);
  EXPECT_GT(common::percent(detected, injected), 85.0);
  EXPECT_EQ(drop_detected, 0u);
}

}  // namespace
}  // namespace tamper::core

#include <gtest/gtest.h>

#include <stdexcept>

#include "capture/sampler.h"

namespace tamper::capture {
namespace {

using namespace net::tcpflag;

net::Packet packet(const net::IpAddress& src, std::uint16_t sport, std::uint8_t flags,
                   std::uint32_t seq, double ts, std::uint16_t payload_len = 0) {
  net::Packet pkt = net::make_tcp_packet(src, sport, net::IpAddress::v4(198, 18, 0, 1),
                                         443, flags, seq, 0,
                                         std::vector<std::uint8_t>(payload_len, 'x'));
  pkt.timestamp = ts;
  pkt.ip.ttl = 55;
  pkt.ip.ip_id = 77;
  return pkt;
}

ConnectionSampler::Config sample_everything() {
  ConnectionSampler::Config config;
  config.sample_one_in = 1;
  return config;
}

TEST(Observe, CapturesHeaderFieldsAndQuantizesTime) {
  const net::Packet pkt = packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kPsh | kAck,
                                 123, 1673503999.87, 42);
  const ObservedPacket observed = observe(pkt);
  EXPECT_EQ(observed.ts_sec, 1673503999);  // 1-second granularity
  EXPECT_EQ(observed.flags, kPsh | kAck);
  EXPECT_EQ(observed.seq, 123u);
  EXPECT_EQ(observed.ttl, 55);
  EXPECT_EQ(observed.ip_id, 77);
  EXPECT_EQ(observed.payload_len, 42);
  ConnectionSample sample;
  sample.log(observed, pkt.payload);
  EXPECT_EQ(sample.data_payload.size(), 42u);
}

TEST(Observe, CanDropPayloads) {
  ConnectionSampler::Config config = sample_everything();
  config.keep_payloads = false;
  ConnectionSampler sampler(config);
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 5.0), 5.0);
  sampler.on_packet(packet(client, 40000, kPsh | kAck, 1, 5.0, 10), 5.0);
  const auto samples = sampler.flush_all(10.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].packets[1].payload_len, 10);
  EXPECT_EQ(samples[0].first_data_payload(), nullptr);
}

TEST(ObservedPacket, FlagPredicates) {
  ObservedPacket p;
  p.flags = kSyn;
  EXPECT_TRUE(p.is_syn());
  p.flags = kSyn | kAck;
  EXPECT_FALSE(p.is_syn());
  p.flags = kRst;
  EXPECT_TRUE(p.is_plain_rst());
  EXPECT_FALSE(p.is_rst_ack());
  p.flags = kRst | kAck;
  EXPECT_TRUE(p.is_rst_ack());
  EXPECT_FALSE(p.is_plain_rst());
  p.flags = kAck;
  EXPECT_TRUE(p.is_pure_ack());
  p.payload_len = 5;
  EXPECT_FALSE(p.is_pure_ack());
  EXPECT_TRUE(p.is_data());
}

TEST(Sampler, RejectsMaxPacketsAboveRecordCapacity) {
  ConnectionSampler::Config config = sample_everything();
  config.max_packets = kMaxLoggedPackets + 1;
  EXPECT_THROW(ConnectionSampler{config}, std::invalid_argument);
  config.max_packets = kMaxLoggedPackets;
  EXPECT_NO_THROW(ConnectionSampler{config});
}

TEST(Sampler, FlowOpensOnlyOnSyn) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kAck, 2, 1.0), 1.0);  // mid-flow packet
  auto samples = sampler.flush_all(10.0);
  EXPECT_TRUE(samples.empty());
  EXPECT_EQ(sampler.stats().connections_seen, 0u);
}

TEST(Sampler, RecordsFirstTenPackets) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  for (int i = 0; i < 15; ++i)
    sampler.on_packet(packet(client, 40000, kAck, 1 + i, 1.1 + i * 0.01), 1.1);
  auto samples = sampler.flush_all(50.0);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].packets.size(), 10u);
  EXPECT_TRUE(samples[0].packets[0].is_syn());
  EXPECT_EQ(samples[0].observation_end_sec, 50);
  EXPECT_EQ(samples[0].client_port, 40000);
  EXPECT_EQ(samples[0].server_port, 443);
}

TEST(Sampler, SamplingRateIsApproximatelyUniform) {
  ConnectionSampler::Config config;
  config.sample_one_in = 10;
  ConnectionSampler sampler(config);
  common::Rng rng(5);
  const int flows = 40000;
  for (int i = 0; i < flows; ++i) {
    const auto client = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    sampler.on_packet(packet(client, static_cast<std::uint16_t>(rng.below(60000) + 1024),
                             kSyn, 0, 1.0),
                      1.0);
  }
  EXPECT_EQ(sampler.stats().connections_seen, static_cast<std::uint64_t>(flows));
  EXPECT_NEAR(static_cast<double>(sampler.stats().connections_sampled), flows / 10.0,
              flows / 10.0 * 0.15);
}

TEST(Sampler, SamplingIsDeterministicPerFlow) {
  ConnectionSampler::Config config;
  config.sample_one_in = 7;
  ConnectionSampler a(config), b(config);
  common::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto client = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next()));
    const auto pkt = packet(client, 4242, kSyn, 0, 1.0);
    a.on_packet(pkt, 1.0);
    b.on_packet(pkt, 1.0);
  }
  EXPECT_EQ(a.stats().connections_sampled, b.stats().connections_sampled);
}

TEST(Sampler, ScrubRunsBeforeSampling) {
  ConnectionSampler::Config config = sample_everything();
  config.scrub = [](const net::PacketView& pkt) { return !pkt.has_tcp_options; };
  ConnectionSampler sampler(config);
  auto optionless = packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0);
  sampler.on_packet(optionless, 1.0);
  EXPECT_EQ(sampler.stats().packets_scrubbed, 1u);
  EXPECT_EQ(sampler.stats().connections_seen, 0u);

  auto with_options = packet(net::IpAddress::v4(11, 0, 0, 3), 40000, kSyn, 0, 1.0);
  with_options.tcp.options.push_back(net::TcpOption::mss_opt(1460));
  sampler.on_packet(with_options, 1.0);
  EXPECT_EQ(sampler.stats().connections_seen, 1u);
}

TEST(Sampler, IdleFlowsDrainWithEndTimestamp) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 3), 40000, kSyn, 0, 4.0), 4.0);
  auto drained = sampler.drain_idle(7.0);  // only the first flow is idle >= 5 s
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 0, 2));
  EXPECT_EQ(drained[0].observation_end_sec, 7);
  // The drained flow is gone; the other remains for flush.
  auto rest = sampler.flush_all(9.0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].client_ip, net::IpAddress::v4(11, 0, 0, 3));
}

TEST(Sampler, DistinctFlowsKeptSeparate) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40001, kSyn, 0, 1.0), 1.0);  // different sport
  sampler.on_packet(packet(client, 40000, kAck, 1, 1.1), 1.1);
  auto samples = sampler.flush_all(10.0);
  ASSERT_EQ(samples.size(), 2u);
  std::size_t sizes[2] = {samples[0].packets.size(), samples[1].packets.size()};
  std::sort(std::begin(sizes), std::end(sizes));
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(Sampler, UnsampledFlowPacketsIgnored) {
  ConnectionSampler::Config config;
  config.sample_one_in = 1'000'000'000;  // effectively never sample
  ConnectionSampler sampler(config);
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kAck, 1, 1.1), 1.1);
  EXPECT_EQ(sampler.stats().connections_seen, 1u);
  EXPECT_EQ(sampler.stats().connections_sampled, 0u);
  EXPECT_TRUE(sampler.flush_all(10.0).empty());
}

TEST(Sampler, EvictionExactlyAtIdleTimeout) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 2), 40000, kSyn, 0, 1.0), 1.0);
  // Just under the horizon: idle for 4.999 s, stays.
  EXPECT_TRUE(sampler.drain_idle(5.999).empty());
  // Exactly at the horizon: `now - last_seen >= timeout` evicts.
  auto drained = sampler.drain_idle(6.0);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].observation_end_sec, 6);
  EXPECT_EQ(sampler.open_flows(), 0u);
}

TEST(Sampler, FourTupleReuseAfterEvictionOpensFreshFlow) {
  ConnectionSampler::Config config = sample_everything();
  config.flow_idle_timeout = 5.0;
  ConnectionSampler sampler(config);
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  sampler.on_packet(packet(client, 40000, kSyn, 100, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kAck, 101, 1.5), 1.5);
  ASSERT_EQ(sampler.drain_idle(40.0).size(), 1u);
  // Same 4-tuple returns: the new SYN opens a brand-new flow rather than
  // resurrecting the evicted one's state.
  sampler.on_packet(packet(client, 40000, kSyn, 900, 41.0), 41.0);
  EXPECT_EQ(sampler.stats().connections_seen, 2u);
  auto samples = sampler.flush_all(50.0);
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].packets.size(), 1u);
  EXPECT_EQ(samples[0].packets[0].seq, 900u);
}

TEST(Sampler, OverloadEvictsOldestEmbryonicFirst) {
  ConnectionSampler::Config config = sample_everything();
  config.max_flows = 4;
  config.flow_idle_timeout = 1e9;
  ConnectionSampler sampler(config);
  const auto established_a = net::IpAddress::v4(11, 0, 0, 2);
  const auto established_b = net::IpAddress::v4(11, 0, 0, 3);
  sampler.on_packet(packet(established_a, 40000, kSyn, 0, 1.0), 1.0);
  sampler.on_packet(packet(established_a, 40000, kAck, 1, 1.1), 1.1);
  sampler.on_packet(packet(established_b, 40000, kSyn, 0, 2.0), 2.0);
  sampler.on_packet(packet(established_b, 40000, kAck, 1, 2.1), 2.1);
  // Two embryonic flows fill the table; the fifth flow forces an eviction.
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 4), 40000, kSyn, 0, 3.0), 3.0);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 5), 40000, kSyn, 0, 4.0), 4.0);
  EXPECT_EQ(sampler.open_flows(), 4u);
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 0, 6), 40000, kSyn, 0, 5.0), 5.0);
  EXPECT_EQ(sampler.open_flows(), 4u);
  EXPECT_EQ(sampler.stats().flows_evicted_overload, 1u);
  // The victim was the oldest *embryonic* flow (11.0.0.4), not an
  // established one; it surfaces through drain_idle() despite not being
  // idle, closed out at the eviction time.
  auto drained = sampler.drain_idle(5.5);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 0, 4));
  EXPECT_EQ(drained[0].observation_end_sec, 5);
  auto rest = sampler.flush_all(10.0);
  ASSERT_EQ(rest.size(), 4u);
  for (const auto& sample : rest) {
    EXPECT_NE(sample.client_ip, net::IpAddress::v4(11, 0, 0, 4));
  }
}

TEST(Sampler, EstablishedFlowsEvictedOnlyWithoutEmbryonicCandidates) {
  ConnectionSampler::Config config = sample_everything();
  config.max_flows = 2;
  config.flow_idle_timeout = 1e9;
  ConnectionSampler sampler(config);
  for (int i = 0; i < 2; ++i) {
    const auto client = net::IpAddress::v4(11, 0, 1, static_cast<std::uint8_t>(i));
    sampler.on_packet(packet(client, 40000, kSyn, 0, 1.0 + i), 1.0 + i);
    sampler.on_packet(packet(client, 40000, kAck, 1, 1.5 + i), 1.5 + i);
  }
  // All tracked flows are established: the LRU established flow goes.
  sampler.on_packet(packet(net::IpAddress::v4(11, 0, 2, 1), 40000, kSyn, 0, 9.0), 9.0);
  EXPECT_EQ(sampler.stats().flows_evicted_overload, 1u);
  auto drained = sampler.drain_idle(9.5);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].client_ip, net::IpAddress::v4(11, 0, 1, 0));
}

TEST(Sampler, MalformedPacketsCountedAndDropped) {
  ConnectionSampler sampler(sample_everything());
  const auto client = net::IpAddress::v4(11, 0, 0, 2);
  auto port_zero = packet(client, 40000, kSyn, 0, 1.0);
  port_zero.tcp.src_port = 0;
  sampler.on_packet(port_zero, 1.0);
  sampler.on_packet(packet(client, 40000, kSyn | kFin, 0, 1.0), 1.0);
  sampler.on_packet(packet(client, 40000, kSyn | kRst, 0, 1.0), 1.0);
  auto land = packet(client, 443, kSyn, 0, 1.0);
  land.dst = client;  // self-addressed 4-tuple
  sampler.on_packet(land, 1.0);
  EXPECT_EQ(sampler.stats().packets_malformed, 4u);
  EXPECT_EQ(sampler.stats().connections_seen, 0u);
  EXPECT_EQ(sampler.open_flows(), 0u);
}

TEST(ConnectionSample, FirstDataPayloadFindsRequest) {
  ConnectionSample sample;
  ObservedPacket syn;
  syn.flags = kSyn;
  ObservedPacket data;
  data.flags = kPsh | kAck;
  data.payload_len = 3;
  const std::vector<std::uint8_t> get = {'G', 'E', 'T'};
  sample.log(syn);
  sample.log(data, get);
  ASSERT_NE(sample.first_data_payload(), nullptr);
  EXPECT_EQ(sample.first_data_payload()->size(), 3u);

  ConnectionSample no_data;
  no_data.packets = {syn};
  EXPECT_EQ(no_data.first_data_payload(), nullptr);
}

TEST(ConnectionSample, LoggingPastCapacityKeepsTheFirstPackets) {
  ConnectionSample sample;
  ObservedPacket syn;
  syn.flags = kSyn;
  sample.log(syn);
  for (std::uint32_t i = 1; i < 15; ++i) {
    ObservedPacket ack;
    ack.flags = kAck;
    ack.seq = i;
    sample.log(ack);
  }
  ASSERT_EQ(sample.packets.size(), kMaxLoggedPackets);
  EXPECT_TRUE(sample.packets.front().is_syn());
  EXPECT_EQ(sample.packets.back().seq, kMaxLoggedPackets - 1);
  // A data packet past capacity is dropped with its payload.
  ObservedPacket data;
  data.flags = kPsh | kAck;
  data.payload_len = 3;
  const std::vector<std::uint8_t> get = {'G', 'E', 'T'};
  sample.log(data, get);
  EXPECT_EQ(sample.packets.size(), kMaxLoggedPackets);
  EXPECT_EQ(sample.first_data_payload(), nullptr);
}

TEST(ConnectionSample, KeepsOnlyTheFirstSynsPayload) {
  ConnectionSample sample;
  ObservedPacket syn;
  syn.flags = kSyn;
  syn.payload_len = 3;
  const std::vector<std::uint8_t> first = {'G', 'E', 'T'};
  const std::vector<std::uint8_t> retransmit = {'P', 'U', 'T', '!'};
  sample.log(syn, first);
  sample.log(syn, retransmit);
  EXPECT_EQ(sample.syn_payload, first);
  EXPECT_EQ(sample.first_data_payload(), nullptr);
}

}  // namespace
}  // namespace tamper::capture

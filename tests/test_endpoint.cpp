#include <gtest/gtest.h>

#include "tcp/endpoint.h"

namespace tamper::tcp {
namespace {

using namespace net::tcpflag;

EndpointConfig client_config() {
  EndpointConfig config;
  config.addr = net::IpAddress::v4(11, 0, 0, 2);
  config.port = 40000;
  config.is_client = true;
  config.isn = 5000;
  config.request_segments = {{'G', 'E', 'T'}};
  config.think_time = 0.01;
  return config;
}

EndpointConfig server_config() {
  EndpointConfig config;
  config.addr = net::IpAddress::v4(198, 18, 0, 1);
  config.port = 443;
  config.is_client = false;
  config.isn = 90000;
  config.response_size = 1000;
  return config;
}

net::Packet packet_from(const net::IpAddress& src, std::uint16_t sport,
                        const net::IpAddress& dst, std::uint16_t dport,
                        std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                        std::vector<std::uint8_t> payload = {}) {
  return net::make_tcp_packet(src, sport, dst, dport, flags, seq, ack,
                              std::move(payload));
}

TEST(ClientEndpoint, StartEmitsSynWithOptions) {
  TcpEndpoint client(client_config(), common::Rng(1));
  client.set_peer(net::IpAddress::v4(198, 18, 0, 1), 443);
  const auto actions = client.start(0.0);
  ASSERT_EQ(actions.packets.size(), 1u);
  const net::Packet& syn = actions.packets[0];
  EXPECT_EQ(syn.tcp.flags, kSyn);
  EXPECT_EQ(syn.tcp.seq, 5000u);
  EXPECT_TRUE(syn.tcp.mss().has_value());
  EXPECT_TRUE(syn.tcp.sack_permitted());
  EXPECT_EQ(client.state(), TcpState::kSynSent);
  EXPECT_FALSE(actions.timers.empty());  // SYN retransmit armed
}

TEST(ClientEndpoint, HandshakeThenThinkTimer) {
  auto config = client_config();
  TcpEndpoint client(config, common::Rng(1));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  const auto actions = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 90000, 5001),
      0.05);
  ASSERT_EQ(actions.packets.size(), 1u);
  EXPECT_EQ(actions.packets[0].tcp.flags, kAck);
  EXPECT_EQ(actions.packets[0].tcp.ack, 90001u);
  EXPECT_EQ(client.state(), TcpState::kEstablished);
  ASSERT_EQ(actions.timers.size(), 1u);
  EXPECT_EQ(actions.timers[0].kind, TimerKind::kThink);
}

TEST(ClientEndpoint, ThinkTimerSendsRequest) {
  auto config = client_config();
  TcpEndpoint client(config, common::Rng(1));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  auto hs = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 90000, 5001),
      0.05);
  const auto& think = hs.timers[0];
  const auto actions = client.on_timer(think.kind, think.generation, 0.06);
  ASSERT_FALSE(actions.packets.empty());
  const net::Packet& data = actions.packets[0];
  EXPECT_EQ(data.tcp.flags, kPsh | kAck);
  EXPECT_EQ(data.tcp.seq, 5001u);
  EXPECT_EQ(data.payload.size(), 3u);
}

TEST(ClientEndpoint, StaleTimerIgnored) {
  TcpEndpoint client(client_config(), common::Rng(1));
  client.set_peer(net::IpAddress::v4(198, 18, 0, 1), 443);
  (void)client.start(0.0);
  // Generation 999 was never issued.
  const auto actions = client.on_timer(TimerKind::kThink, 999, 1.0);
  EXPECT_TRUE(actions.packets.empty());
}

TEST(ClientEndpoint, SynRetransmitThenStop) {
  auto config = client_config();
  config.syn_retries = 2;
  TcpEndpoint client(config, common::Rng(1));
  client.set_peer(net::IpAddress::v4(198, 18, 0, 1), 443);
  auto start = client.start(0.0);
  auto retry1 = client.on_timer(TimerKind::kSynRetransmit,
                                start.timers[0].generation, 1.0);
  ASSERT_EQ(retry1.packets.size(), 1u);
  EXPECT_EQ(retry1.packets[0].tcp.flags, kSyn);
  ASSERT_EQ(retry1.timers.size(), 1u);
  auto retry2 = client.on_timer(TimerKind::kSynRetransmit,
                                retry1.timers[0].generation, 3.0);
  ASSERT_EQ(retry2.packets.size(), 1u);
  EXPECT_TRUE(retry2.timers.empty());  // retries exhausted
}

TEST(ClientEndpoint, RstKillsSession) {
  auto config = client_config();
  TcpEndpoint client(config, common::Rng(1));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  const auto actions = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kRst, 0, 0), 0.1);
  EXPECT_TRUE(actions.packets.empty());
  EXPECT_EQ(client.state(), TcpState::kReset);
  EXPECT_TRUE(client.quiescent());
}

TEST(ClientEndpoint, SynOnlyVanishesImmediately) {
  auto config = client_config();
  config.kind = ClientKind::kSynOnly;
  TcpEndpoint client(config, common::Rng(1));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  const auto start = client.start(0.0);
  ASSERT_EQ(start.packets.size(), 1u);
  EXPECT_TRUE(client.quiescent());
  const auto reply = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 1, 5001), 0.1);
  EXPECT_TRUE(reply.packets.empty());
}

struct CancelCase {
  const char* name;  ///< the ClientKind, for the test name
  ClientKind kind;
  std::uint8_t expected_flags;  // 0 = expects silence
};

// Names each case by its client kind instead of gtest's raw-byte print.
void PrintTo(const CancelCase& c, std::ostream* os) { *os << c.name; }

class SynAckCancelSweep : public ::testing::TestWithParam<CancelCase> {};

TEST_P(SynAckCancelSweep, RespondsAsSpecified) {
  auto config = client_config();
  config.kind = GetParam().kind;
  TcpEndpoint client(config, common::Rng(1));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  const auto actions = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 90000, 5001),
      0.05);
  if (GetParam().expected_flags == 0) {
    EXPECT_TRUE(actions.packets.empty());
  } else {
    ASSERT_EQ(actions.packets.size(), 1u);
    EXPECT_EQ(actions.packets[0].tcp.flags, GetParam().expected_flags);
  }
  EXPECT_TRUE(client.quiescent());
}

INSTANTIATE_TEST_SUITE_P(Kinds, SynAckCancelSweep,
                         ::testing::Values(
                             CancelCase{"RstOnSynAck", ClientKind::kRstOnSynAck, kRst},
                             CancelCase{"RstAckOnSynAck", ClientKind::kRstAckOnSynAck,
                                        kRst | kAck},
                             CancelCase{"VanishOnSynAck", ClientKind::kVanishOnSynAck, 0}));

TEST(ServerEndpoint, SynGetsSynAck) {
  auto config = server_config();
  TcpEndpoint server(config, common::Rng(2));
  (void)server.start(0.0);
  const auto client_ip = net::IpAddress::v4(11, 0, 0, 2);
  const auto actions = server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kSyn, 5000, 0), 0.1);
  ASSERT_EQ(actions.packets.size(), 1u);
  EXPECT_EQ(actions.packets[0].tcp.flags, kSyn | kAck);
  EXPECT_EQ(actions.packets[0].tcp.ack, 5001u);
  EXPECT_EQ(server.state(), TcpState::kSynReceived);
}

TEST(ServerEndpoint, DuplicateSynRepliesAgain) {
  auto config = server_config();
  TcpEndpoint server(config, common::Rng(2));
  (void)server.start(0.0);
  const auto client_ip = net::IpAddress::v4(11, 0, 0, 2);
  const auto syn = packet_from(client_ip, 40000, config.addr, 443, kSyn, 5000, 0);
  (void)server.on_packet(syn, 0.1);
  const auto again = server.on_packet(syn, 1.1);
  ASSERT_EQ(again.packets.size(), 1u);
  EXPECT_EQ(again.packets[0].tcp.flags, kSyn | kAck);
}

TEST(ServerEndpoint, DataArmsServiceTimerAndAcks) {
  auto config = server_config();
  TcpEndpoint server(config, common::Rng(2));
  (void)server.start(0.0);
  const auto client_ip = net::IpAddress::v4(11, 0, 0, 2);
  (void)server.on_packet(packet_from(client_ip, 40000, config.addr, 443, kSyn, 5000, 0),
                         0.1);
  (void)server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kAck, 5001, 90001), 0.2);
  EXPECT_EQ(server.state(), TcpState::kEstablished);
  const auto actions = server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kPsh | kAck, 5001, 90001,
                  {'G', 'E', 'T'}),
      0.3);
  ASSERT_EQ(actions.packets.size(), 1u);
  EXPECT_EQ(actions.packets[0].tcp.flags, kAck);
  EXPECT_EQ(actions.packets[0].tcp.ack, 5004u);
  ASSERT_EQ(actions.timers.size(), 1u);
  EXPECT_EQ(actions.timers[0].kind, TimerKind::kService);
}

TEST(ServerEndpoint, ServiceTimerSendsResponseAndFin) {
  auto config = server_config();
  config.response_size = 3000;  // ~3 segments at MSS 1460
  TcpEndpoint server(config, common::Rng(2));
  (void)server.start(0.0);
  const auto client_ip = net::IpAddress::v4(11, 0, 0, 2);
  (void)server.on_packet(packet_from(client_ip, 40000, config.addr, 443, kSyn, 5000, 0),
                         0.1);
  (void)server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kAck, 5001, 90001), 0.2);
  const auto data = server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kPsh | kAck, 5001, 90001,
                  {'X'}),
      0.3);
  const auto& service = data.timers[0];
  const auto response = server.on_timer(service.kind, service.generation, 0.4);
  ASSERT_EQ(response.packets.size(), 4u);  // 1460+1460+80 data + FIN
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < response.packets.size(); ++i)
    total += response.packets[i].payload.size();
  EXPECT_EQ(total, 3000u);
  EXPECT_EQ(response.packets.back().tcp.flags, kFin | kAck);
  EXPECT_EQ(server.state(), TcpState::kFinWait1);
}

TEST(ServerEndpoint, OutOfOrderDataGetsDuplicateAckOnly) {
  auto config = server_config();
  TcpEndpoint server(config, common::Rng(2));
  (void)server.start(0.0);
  const auto client_ip = net::IpAddress::v4(11, 0, 0, 2);
  (void)server.on_packet(packet_from(client_ip, 40000, config.addr, 443, kSyn, 5000, 0),
                         0.1);
  // Data with a future sequence number: not accepted, ACK repeats rcv_nxt.
  const auto actions = server.on_packet(
      packet_from(client_ip, 40000, config.addr, 443, kPsh | kAck, 9999, 90001, {'A'}),
      0.3);
  ASSERT_EQ(actions.packets.size(), 1u);
  EXPECT_EQ(actions.packets[0].tcp.ack, 5001u);
  EXPECT_TRUE(actions.timers.empty());  // request not seen
}

TEST(ClientEndpoint, AbortMidTransferSendsRstAck) {
  auto config = client_config();
  config.kind = ClientKind::kAbortMidTransfer;
  config.abort_after_response_bytes = 100;
  TcpEndpoint client(config, common::Rng(3));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  (void)client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 90000, 5001),
      0.05);
  const auto actions = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kAck, 90001, 5004,
                  std::vector<std::uint8_t>(200, 'x')),
      0.2);
  ASSERT_FALSE(actions.packets.empty());
  EXPECT_EQ(actions.packets.back().tcp.flags, kRst | kAck);
  EXPECT_TRUE(client.quiescent());
}

TEST(ClientEndpoint, RstAfterFinEmitsBoth) {
  auto config = client_config();
  config.kind = ClientKind::kRstAfterFin;
  config.request_segments.clear();
  TcpEndpoint client(config, common::Rng(3));
  const auto server_ip = net::IpAddress::v4(198, 18, 0, 1);
  client.set_peer(server_ip, 443);
  (void)client.start(0.0);
  (void)client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kSyn | kAck, 90000, 5001),
      0.05);
  // Server FIN arrives.
  const auto actions = client.on_packet(
      packet_from(server_ip, 443, config.addr, config.port, kFin | kAck, 90001, 5001),
      0.2);
  ASSERT_EQ(actions.packets.size(), 2u);
  EXPECT_EQ(actions.packets[0].tcp.flags, kFin | kAck);
  EXPECT_EQ(actions.packets[1].tcp.flags, kRst | kAck);
}

TEST(Endpoint, ZmapStackEmitsMinimalSynOptions) {
  auto config = client_config();
  config.stack = IpStackModel::zmap();
  TcpEndpoint client(config, common::Rng(4));
  client.set_peer(net::IpAddress::v4(198, 18, 0, 1), 443);
  const auto start = client.start(0.0);
  ASSERT_EQ(start.packets.size(), 1u);
  const net::Packet& syn = start.packets[0];
  ASSERT_EQ(syn.tcp.options.size(), 1u);
  EXPECT_EQ(syn.tcp.options[0].kind, net::TcpOptionKind::kMss);
  EXPECT_EQ(syn.ip.ip_id, 54321);
  EXPECT_EQ(syn.ip.ttl, 255);
}

}  // namespace
}  // namespace tamper::tcp

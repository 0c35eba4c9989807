// Ground-truth validation of the censor catalog: every preset, driven
// through a real session, must produce exactly the Table 1 signature it is
// documented to produce — recovered blindly by the classifier.
#include <gtest/gtest.h>

#include "appproto/http.h"
#include "appproto/tls.h"
#include "capture/sample.h"
#include "core/classifier.h"
#include "middlebox/catalog.h"
#include "middlebox/middlebox.h"
#include "tcp/session.h"

namespace tamper::middlebox {
namespace {

using namespace net::tcpflag;

constexpr const char* kBlockedDomain = "blocked-site.example";

struct RunResult {
  capture::ConnectionSample sample;
  core::Classification classification;
  bool triggered = false;
  std::optional<std::string> trigger_domain;
};

RunResult run_preset(const std::string& preset, bool http = false,
                     int request_segments = 1, std::uint64_t seed = 1) {
  tcp::EndpointConfig client_cfg;
  client_cfg.addr = net::IpAddress::v4(11, 0, 0, 2);
  client_cfg.port = 40000;
  client_cfg.is_client = true;
  client_cfg.isn = 5000;
  common::Rng payload_rng(seed);
  for (int i = 0; i < request_segments; ++i) {
    if (http) {
      appproto::HttpRequestSpec spec;
      spec.host = kBlockedDomain;
      spec.path = "/x-blocked/" + std::to_string(i);
      client_cfg.request_segments.push_back(appproto::build_http_request(spec));
    } else if (i == 0) {
      appproto::ClientHelloSpec spec;
      spec.sni = kBlockedDomain;
      client_cfg.request_segments.push_back(
          appproto::build_client_hello(spec, payload_rng));
    } else {
      std::vector<std::uint8_t> opaque(120, 0x17);
      client_cfg.request_segments.push_back(std::move(opaque));
    }
  }

  tcp::EndpointConfig server_cfg;
  server_cfg.addr = net::IpAddress::v4(198, 18, 0, 1);
  server_cfg.port = http ? 80 : 443;
  server_cfg.is_client = false;
  server_cfg.isn = 90000;
  server_cfg.response_size = 2000;

  tcp::SessionConfig session;
  session.start_time = 1'673'500'000.0;

  Behavior behavior = catalog::by_name(preset);
  TriggerSet triggers;
  if (behavior.trigger_point != TriggerPoint::kClientData) {
    triggers.match_everything();
  } else if (behavior.min_data_packets > 1) {
    triggers.match_everything();
  } else {
    triggers.add_exact_domain(kBlockedDomain);
  }
  Middlebox box(std::move(behavior), std::move(triggers), session.geometry,
                common::Rng(seed ^ 0xb0));

  tcp::TcpEndpoint client(client_cfg, common::Rng(seed));
  tcp::TcpEndpoint server(server_cfg, common::Rng(seed ^ 1));
  client.set_peer(server_cfg.addr, server_cfg.port);
  server.set_peer(client_cfg.addr, client_cfg.port);
  common::Rng rng(seed ^ 2);
  const tcp::SessionResult result = tcp::simulate_session(client, server, &box, session, rng);

  RunResult out;
  out.sample.client_ip = client_cfg.addr;
  out.sample.server_ip = server_cfg.addr;
  out.sample.client_port = client_cfg.port;
  out.sample.server_port = server_cfg.port;
  for (const auto& traced : result.server_inbound) {
    if (out.sample.packets.size() >= 10) break;
    out.sample.packets.push_back(capture::observe(traced.pkt));
  }
  out.sample.observation_end_sec = static_cast<std::int64_t>(result.end_time);
  out.classification = core::SignatureClassifier{}.classify(out.sample);
  out.triggered = box.triggered();
  out.trigger_domain = box.trigger_domain();
  return out;
}

struct PresetCase {
  const char* preset;
  core::Signature expected;
  bool http = false;
  int segments = 1;
};

// Without this gtest prints the case as raw bytes, the preset pointer
// included, and the ctest name of each case changes from build to build.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.preset; }

class CatalogGroundTruth : public ::testing::TestWithParam<PresetCase> {};

TEST_P(CatalogGroundTruth, ProducesDocumentedSignature) {
  const auto& param = GetParam();
  // Several seeds: the signature must be stable, not a timing accident.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RunResult result = run_preset(param.preset, param.http, param.segments, seed);
    ASSERT_TRUE(result.triggered) << param.preset << " seed " << seed;
    ASSERT_TRUE(result.classification.possibly_tampered) << param.preset;
    ASSERT_EQ(result.classification.signature, param.expected)
        << param.preset << " seed " << seed << " got "
        << (result.classification.signature
                ? core::name(*result.classification.signature)
                : "none");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, CatalogGroundTruth,
    ::testing::Values(
        PresetCase{"syn_blackhole", core::Signature::kSynNone},
        PresetCase{"syn_rst", core::Signature::kSynRst},
        PresetCase{"syn_rst_ack", core::Signature::kSynRstAck},
        PresetCase{"gfw_syn_burst", core::Signature::kSynRstRstAck},
        PresetCase{"post_ack_blackhole", core::Signature::kAckNone},
        PresetCase{"post_ack_rst", core::Signature::kAckRst},
        PresetCase{"post_ack_rst_burst", core::Signature::kAckRstRst},
        PresetCase{"iran_rst_ack", core::Signature::kAckRstAck},
        PresetCase{"iran_rst_ack_burst", core::Signature::kAckRstAckRstAck},
        PresetCase{"psh_blackhole", core::Signature::kPshNone},
        PresetCase{"single_rst_firewall", core::Signature::kPshRst},
        PresetCase{"single_rst_ack_firewall", core::Signature::kPshRstAck},
        PresetCase{"gfw_mixed_burst", core::Signature::kPshRstRstAck},
        PresetCase{"gfw_double_rst_ack", core::Signature::kPshRstAckRstAck},
        PresetCase{"repeated_rst_same_ack", core::Signature::kPshRstEqRst},
        PresetCase{"ack_guessing_injector", core::Signature::kPshRstNeqRst},
        PresetCase{"zero_ack_injector", core::Signature::kPshRstRst0},
        PresetCase{"korea_random_ttl", core::Signature::kPshRstNeqRst},
        PresetCase{"keyword_firewall_rst", core::Signature::kDataRst, false, 2},
        PresetCase{"keyword_firewall_rst_ack", core::Signature::kDataRstAck, false, 2}));

TEST(Middlebox, NoTriggerOnUnblockedDomain) {
  tcp::SessionConfig session;
  Behavior behavior = catalog::single_rst_firewall();
  TriggerSet triggers;
  triggers.add_exact_domain("not-this-domain.example");
  Middlebox box(std::move(behavior), std::move(triggers), session.geometry,
                common::Rng(9));
  common::Rng payload_rng(5);
  appproto::ClientHelloSpec spec;
  spec.sni = kBlockedDomain;  // client asks for a different domain
  net::Packet data = net::make_tcp_packet(net::IpAddress::v4(11, 0, 0, 2), 40000,
                                          net::IpAddress::v4(198, 18, 0, 1), 443,
                                          kPsh | kAck, 5001, 90001,
                                          appproto::build_client_hello(spec, payload_rng));
  const auto decision = box.on_transit(tcp::Direction::kClientToServer, data, 0.0);
  EXPECT_FALSE(decision.drop);
  EXPECT_TRUE(decision.injections.empty());
  EXPECT_FALSE(box.triggered());
}

TEST(Middlebox, RecordsTriggerDomain) {
  const RunResult result = run_preset("single_rst_firewall");
  ASSERT_TRUE(result.trigger_domain.has_value());
  EXPECT_EQ(*result.trigger_domain, kBlockedDomain);
}

TEST(Middlebox, ByNameThrowsOnUnknownPreset) {
  EXPECT_THROW(catalog::by_name("not_a_preset"), std::out_of_range);
}

TEST(TriggerSet, ExactAndSuffixMatching) {
  TriggerSet triggers;
  triggers.add_exact_domain("exact.example");
  triggers.add_domain_suffix("blocked.org");
  EXPECT_TRUE(triggers.matches_domain("exact.example"));
  EXPECT_FALSE(triggers.matches_domain("sub.exact.example"));
  EXPECT_TRUE(triggers.matches_domain("blocked.org"));
  EXPECT_TRUE(triggers.matches_domain("a.b.blocked.org"));
  EXPECT_FALSE(triggers.matches_domain("notblocked.org"));  // no dot boundary
}

TEST(TriggerSet, SubstringOverblocking) {
  // The Turkmenistan "wn.com" over-blocking rule (§5.5).
  TriggerSet triggers;
  triggers.add_domain_substring("wn.com");
  EXPECT_TRUE(triggers.matches_domain("wn.com"));
  EXPECT_TRUE(triggers.matches_domain("cnn-town.com"));  // contains "wn.com"? no
  EXPECT_TRUE(triggers.matches_domain("dawn.com"));
  EXPECT_FALSE(triggers.matches_domain("example.net"));
}

TEST(TriggerSet, KeywordAndIpMatching) {
  TriggerSet triggers;
  triggers.add_http_keyword("/forbidden");
  triggers.add_ip_prefix(*net::IpPrefix::parse("198.18.0.0/24"));
  EXPECT_TRUE(triggers.matches_keyword("/x/forbidden/page"));
  EXPECT_FALSE(triggers.matches_keyword("/allowed"));
  EXPECT_TRUE(triggers.matches_ip(net::IpAddress::v4(198, 18, 0, 77)));
  EXPECT_FALSE(triggers.matches_ip(net::IpAddress::v4(198, 19, 0, 77)));
}

TEST(TriggerSet, MatchEverything) {
  TriggerSet triggers;
  triggers.match_everything();
  EXPECT_TRUE(triggers.matches_domain("anything.example"));
  EXPECT_TRUE(triggers.matches_keyword(""));
  EXPECT_TRUE(triggers.matches_ip(net::IpAddress::v4(1, 1, 1, 1)));
  EXPECT_FALSE(triggers.empty());
}

TEST(TriggerSet, EmptyMatchesNothing) {
  TriggerSet triggers;
  EXPECT_TRUE(triggers.empty());
  EXPECT_FALSE(triggers.matches_domain("x.example"));
  EXPECT_FALSE(triggers.matches_ip(net::IpAddress::v4(1, 1, 1, 1)));
}

TEST(MiddleboxChain, FirstDropShadowsLaterBoxes) {
  tcp::PathGeometry geometry;
  auto dropping = std::make_unique<Middlebox>(catalog::post_ack_blackhole(),
                                              TriggerSet{}.match_everything(), geometry,
                                              common::Rng(1));
  auto injecting = std::make_unique<Middlebox>(catalog::single_rst_firewall(),
                                               TriggerSet{}.match_everything(), geometry,
                                               common::Rng(2));
  Middlebox* injecting_raw = injecting.get();
  MiddleboxChain chain;
  chain.add(std::move(dropping));
  chain.add(std::move(injecting));

  common::Rng payload_rng(5);
  appproto::ClientHelloSpec spec;
  spec.sni = "anything.example";
  net::Packet data = net::make_tcp_packet(net::IpAddress::v4(11, 0, 0, 2), 40000,
                                          net::IpAddress::v4(198, 18, 0, 1), 443,
                                          kPsh | kAck, 5001, 90001,
                                          appproto::build_client_hello(spec, payload_rng));
  const auto decision = chain.on_transit(tcp::Direction::kClientToServer, data, 0.0);
  EXPECT_TRUE(decision.drop);
  EXPECT_FALSE(injecting_raw->triggered());  // never saw the packet
}

TEST(Middlebox, InjectedTtlReflectsGeometry) {
  const RunResult result = run_preset("single_rst_firewall");
  // Injector initial TTL 64, default geometry hops_to_server = 14 - 5 = 9.
  for (const auto& pkt : result.sample.packets) {
    if (pkt.is_rst()) {
      EXPECT_EQ(pkt.ttl, 64 - 9);
    }
  }
}

TEST(Middlebox, CopyTriggerIpIdMatchesClient) {
  const RunResult result = run_preset("iran_rst_ack");
  // Find the client data... it was dropped; compare RST IP-ID against the
  // handshake ACK instead: kCopyTrigger copies the *trigger* (the dropped
  // PSH), whose IP-ID is one above the ACK's for counter-based stacks.
  const capture::ObservedPacket* ack = nullptr;
  const capture::ObservedPacket* rst = nullptr;
  for (const auto& pkt : result.sample.packets) {
    if (pkt.is_pure_ack()) ack = &pkt;
    if (pkt.is_rst_ack()) rst = &pkt;
  }
  ASSERT_NE(ack, nullptr);
  ASSERT_NE(rst, nullptr);
  EXPECT_LE(rst->ip_id - ack->ip_id, 2u);  // near the client's counter
}

}  // namespace
}  // namespace tamper::middlebox

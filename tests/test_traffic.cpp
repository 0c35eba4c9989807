// End-to-end generator validation: the classifier must blindly recover the
// generator's hidden ground truth.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "core/classifier.h"
#include "core/scanner.h"
#include "world/traffic.h"

namespace tamper::world {
namespace {

const World& shared_world() {
  static const World kWorld{WorldConfig{.domains = {.domain_count = 20'000},
                                        .seed = 0x1ce}};
  return kWorld;
}

TrafficConfig small_config(std::uint64_t seed = 0xf00d) {
  TrafficConfig config;
  config.seed = seed;
  return config;
}

TEST(Traffic, RejectsMaxLoggedPacketsAboveRecordCapacity) {
  TrafficConfig config = small_config();
  config.max_logged_packets = capture::kMaxLoggedPackets + 1;
  EXPECT_THROW(TrafficGenerator(shared_world(), config), std::invalid_argument);
  config.max_logged_packets = capture::kMaxLoggedPackets;
  EXPECT_NO_THROW(TrafficGenerator(shared_world(), config));
}

TEST(Traffic, DeterministicForSameSeed) {
  TrafficGenerator a(shared_world(), small_config());
  TrafficGenerator b(shared_world(), small_config());
  for (int i = 0; i < 50; ++i) {
    const auto ca = a.generate_one();
    const auto cb = b.generate_one();
    ASSERT_EQ(ca.truth.country, cb.truth.country);
    ASSERT_EQ(ca.truth.domain, cb.truth.domain);
    ASSERT_EQ(ca.sample.packets.size(), cb.sample.packets.size());
  }
}

TEST(Traffic, ClassifierRecallOnGroundTruthIsTotal) {
  TrafficGenerator generator(shared_world(), small_config(1));
  core::SignatureClassifier classifier;
  int tampered = 0, flagged = 0;
  generator.generate(4000, [&](LabeledConnection&& conn) {
    if (!conn.truth.tampered) return;
    ++tampered;
    if (classifier.classify(conn.sample).possibly_tampered) ++flagged;
  });
  ASSERT_GT(tampered, 100);
  EXPECT_EQ(flagged, tampered);  // every middlebox firing leaves a visible trace
}

TEST(Traffic, SignatureMatchScoredAgainstGroundTruth) {
  // "A signature matched" scored against GroundTruth::tampered on the
  // default traffic mix, seed 77, 100k connections. Measured: recall 0.998
  // (10 misses of 5,324), normal-client precision 0.988 (57 false
  // positives, all from path loss). All-flow precision is 0.255 by design:
  // a signature means "possibly tampered", and SYN-only floods, Happy
  // Eyeballs cancels and aborted transfers match too (EXPERIMENTS.md).
  TrafficConfig config;
  config.seed = 77;
  TrafficGenerator generator(shared_world(), config);
  core::SignatureClassifier classifier;
  struct Score {
    int true_pos = 0, false_pos = 0, false_neg = 0;
    [[nodiscard]] double precision() const {
      return static_cast<double>(true_pos) / (true_pos + false_pos);
    }
    [[nodiscard]] double recall() const {
      return static_cast<double>(true_pos) / (true_pos + false_neg);
    }
  } all, normal;
  generator.generate(100'000, [&](LabeledConnection&& conn) {
    const bool matched = classifier.classify(conn.sample).signature.has_value();
    const bool tampered = conn.truth.tampered;
    for (Score* score : {&all, &normal}) {
      if (score == &normal && conn.truth.client_kind != tcp::ClientKind::kNormal) continue;
      if (matched && tampered) ++score->true_pos;
      if (matched && !tampered) ++score->false_pos;
      if (!matched && tampered) ++score->false_neg;
    }
  });
  EXPECT_GE(all.recall(), 0.998) << all.false_neg << " misses of "
                                 << all.true_pos + all.false_neg;
  EXPECT_GE(normal.precision(), 0.988) << normal.false_pos << " normal-client false positives";
}

TEST(Traffic, CleanNormalConnectionsRarelyFlagged) {
  TrafficGenerator generator(shared_world(), small_config(2));
  core::SignatureClassifier classifier;
  int clean_normal = 0, false_flagged = 0;
  generator.generate(4000, [&](LabeledConnection&& conn) {
    if (conn.truth.tampered || conn.truth.client_kind != tcp::ClientKind::kNormal) return;
    ++clean_normal;
    if (classifier.classify(conn.sample).signature.has_value()) ++false_flagged;
  });
  ASSERT_GT(clean_normal, 1000);
  // Only path loss can make a clean, normal connection match a signature.
  EXPECT_LT(static_cast<double>(false_flagged) / clean_normal, 0.02);
}

TEST(Traffic, MethodsMapToDocumentedStages) {
  TrafficGenerator generator(shared_world(), small_config(3));
  core::SignatureClassifier classifier;
  std::map<std::string, std::map<core::Stage, int>> stages;
  generator.generate(12000, [&](LabeledConnection&& conn) {
    if (!conn.truth.tampered) return;
    const auto c = classifier.classify(conn.sample);
    if (c.signature) ++stages[conn.truth.method][core::stage_of(*c.signature)];
  });
  auto dominant = [&](const std::string& method) {
    const auto& counts = stages[method];
    core::Stage best = core::Stage::kOther;
    int best_count = -1;
    for (const auto& [stage, count] : counts)
      if (count > best_count) {
        best = stage;
        best_count = count;
      }
    return best;
  };
  EXPECT_EQ(dominant("iran_rst_ack"), core::Stage::kPostAck);
  EXPECT_EQ(dominant("post_ack_blackhole"), core::Stage::kPostAck);
  EXPECT_EQ(dominant("single_rst_firewall"), core::Stage::kPostPsh);
  EXPECT_EQ(dominant("keyword_firewall_rst_ack"), core::Stage::kPostData);
}

TEST(Traffic, ScannersCarryZmapFingerprint) {
  TrafficConfig config = small_config(4);
  config.zmap_rate = 0.05;  // oversample scanners for the test
  TrafficGenerator generator(shared_world(), config);
  int scanners = 0, fingerprinted = 0;
  generator.generate(3000, [&](LabeledConnection&& conn) {
    if (!conn.truth.scanner) return;
    ++scanners;
    if (core::scanner_indicators(conn.sample).likely_zmap()) ++fingerprinted;
  });
  ASSERT_GT(scanners, 50);
  EXPECT_EQ(fingerprinted, scanners);
}

TEST(Traffic, IpVersionShareTracksCountryConfig) {
  TrafficGenerator generator(shared_world(), small_config(5));
  int us_total = 0, us_v6 = 0;
  generator.generate(8000, [&](LabeledConnection&& conn) {
    if (conn.truth.country != "US") return;
    ++us_total;
    if (conn.truth.ipv6) ++us_v6;
  });
  ASSERT_GT(us_total, 500);
  EXPECT_NEAR(static_cast<double>(us_v6) / us_total, 0.48, 0.07);
}

TEST(Traffic, StartTimesStayInWindow) {
  TrafficGenerator generator(shared_world(), small_config(6));
  generator.generate(500, [&](LabeledConnection&& conn) {
    ASSERT_GE(conn.truth.start_time, common::from_civil(2023, 1, 12));
    ASSERT_LE(conn.truth.start_time, common::from_civil(2023, 1, 26));
  });
}

TEST(Traffic, SampleNeverExceedsTenPackets) {
  TrafficGenerator generator(shared_world(), small_config(7));
  generator.generate(2000, [&](LabeledConnection&& conn) {
    ASSERT_LE(conn.sample.packets.size(), 10u);
  });
}

TEST(Traffic, DomainRecoverableViaDpiForCleanTls) {
  TrafficGenerator generator(shared_world(), small_config(8));
  int checked = 0;
  generator.generate(2000, [&](LabeledConnection&& conn) {
    if (conn.truth.tampered || conn.truth.protocol != appproto::AppProtocol::kTls ||
        conn.truth.client_kind != tcp::ClientKind::kNormal)
      return;
    const auto* payload = conn.sample.first_data_payload();
    if (payload == nullptr) return;
    const auto sni = appproto::extract_sni(*payload);
    // Path loss can reorder a retransmitted ClientHello behind the
    // handshake-continuation record; the SNI is then simply unavailable.
    if (!sni.has_value()) return;
    ASSERT_EQ(*sni, conn.truth.domain);
    ++checked;
  });
  EXPECT_GT(checked, 500);
}

TEST(Traffic, PinningOverridesEverything) {
  TrafficGenerator generator(shared_world(), small_config(9));
  const int country = country_index("DE");
  VisitPin pin;
  pin.client_ip = net::IpAddress::v4(11, 3, 0, 99);
  pin.domain_rank = 77;
  pin.protocol = appproto::AppProtocol::kHttp;
  pin.client_kind = tcp::ClientKind::kNormal;
  pin.ipv6 = false;
  const auto conn =
      generator.generate_pinned(country, common::from_civil(2023, 1, 15), pin);
  EXPECT_EQ(conn.sample.client_ip, *pin.client_ip);
  EXPECT_EQ(conn.truth.domain_rank, 77u);
  EXPECT_EQ(conn.truth.protocol, appproto::AppProtocol::kHttp);
  EXPECT_EQ(conn.sample.server_port, 80);
  EXPECT_EQ(conn.truth.client_kind, tcp::ClientKind::kNormal);
}

TEST(Traffic, InterestModifierShiftsTamperRate) {
  TrafficConfig boosted = small_config(10);
  boosted.interest_modifier = [](const CountrySpec&, common::SimTime, double) {
    return 0.9;  // nearly every request targets blocked content
  };
  TrafficConfig muted = small_config(10);
  muted.interest_modifier = [](const CountrySpec&, common::SimTime, double) {
    return 0.0;
  };
  const int ir = country_index("IR");
  auto tamper_rate = [&](TrafficConfig config) {
    TrafficGenerator generator(shared_world(), config);
    int tampered = 0;
    const int n = 1500;
    for (int i = 0; i < n; ++i) {
      if (generator.generate_at(ir, common::from_civil(2023, 1, 17, 12)).truth.tampered)
        ++tampered;
    }
    return static_cast<double>(tampered) / n;
  };
  EXPECT_GT(tamper_rate(boosted), tamper_rate(muted) + 0.2);
}

TEST(Traffic, TamperedImpliesArmed) {
  TrafficGenerator generator(shared_world(), small_config(11));
  generator.generate(3000, [&](LabeledConnection&& conn) {
    if (conn.truth.tampered) {
      ASSERT_TRUE(conn.truth.tamper_armed);
      ASSERT_FALSE(conn.truth.method.empty());
    }
  });
}

}  // namespace
}  // namespace tamper::world

// The heart of the reproduction: hand-built inbound packet sequences for
// every Table 1 signature, plus the classification rules around inactivity,
// retransmission collapse, order reconstruction, and stage precedence.
#include <gtest/gtest.h>

#include <stdexcept>

#include <algorithm>

#include "common/rng.h"
#include "core/classifier.h"

namespace tamper::core {
namespace {

using capture::ConnectionSample;
using capture::ObservedPacket;
using namespace net::tcpflag;

constexpr std::uint32_t kIsn = 1000;
constexpr std::uint32_t kSrvAck = 555000;  // client's ack of the server ISN

ObservedPacket pkt(std::int64_t ts, std::uint8_t flags, std::uint32_t seq,
                   std::uint32_t ack, std::uint16_t payload_len = 0) {
  ObservedPacket p;
  p.ts_sec = ts;
  p.flags = flags;
  p.seq = seq;
  p.ack = ack;
  p.payload_len = payload_len;
  p.ttl = 52;
  p.ip_id = 100;
  p.has_tcp_options = true;
  return p;
}

ObservedPacket syn(std::int64_t ts) { return pkt(ts, kSyn, kIsn, 0); }
ObservedPacket hs_ack(std::int64_t ts) { return pkt(ts, kAck, kIsn + 1, kSrvAck); }
ObservedPacket psh(std::int64_t ts, std::uint16_t len = 200) {
  return pkt(ts, kPsh | kAck, kIsn + 1, kSrvAck, len);
}
ObservedPacket psh2(std::int64_t ts, std::uint16_t len = 150) {
  return pkt(ts, kPsh | kAck, kIsn + 201, kSrvAck, len);
}
ObservedPacket resp_ack(std::int64_t ts, std::uint32_t acked) {
  return pkt(ts, kAck, kIsn + 201, kSrvAck + acked);
}
ObservedPacket fin(std::int64_t ts) {
  return pkt(ts, kFin | kAck, kIsn + 201, kSrvAck + 3000);
}
ObservedPacket rst(std::int64_t ts, std::uint32_t ack = kSrvAck) {
  return pkt(ts, kRst, kIsn + 201, ack);
}
ObservedPacket rst_ack(std::int64_t ts, std::uint32_t ack = kSrvAck) {
  return pkt(ts, kRst | kAck, kIsn + 201, ack);
}

ConnectionSample sample_of(std::vector<ObservedPacket> packets,
                           std::int64_t observation_end = 2000) {
  ConnectionSample s;
  s.client_ip = net::IpAddress::v4(11, 0, 0, 2);
  s.server_ip = net::IpAddress::v4(198, 18, 0, 1);
  s.client_port = 40000;
  s.server_port = 443;
  s.packets.assign(packets.begin(), packets.end());
  s.observation_end_sec = observation_end;
  return s;
}

Classification classify(const ConnectionSample& s) {
  return SignatureClassifier{}.classify(s);
}

// ---- Clean connections ----

TEST(Classifier, GracefulConnectionIsClean) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), resp_ack(1000, 1460), fin(1001)}));
  EXPECT_FALSE(c.possibly_tampered);
  EXPECT_TRUE(c.graceful);
  EXPECT_FALSE(c.signature.has_value());
}

TEST(Classifier, SlowButFinishingConnectionIsClean) {
  // 5 s pause mid-connection but a FIN handshake exists: not flagged.
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), psh(1000), resp_ack(1006, 1460), fin(1007)}));
  EXPECT_FALSE(c.possibly_tampered);
  EXPECT_TRUE(c.graceful);
}

TEST(Classifier, TruncatedBusyConnectionIsClean) {
  // Exactly 10 packets (the cap): trailing silence says nothing.
  std::vector<ObservedPacket> packets = {syn(1000), hs_ack(1000), psh(1000)};
  for (int i = 0; i < 7; ++i)
    packets.push_back(resp_ack(1000, 1460 * (i + 1)));
  const auto c = classify(sample_of(std::move(packets), /*observation_end=*/2000));
  EXPECT_FALSE(c.possibly_tampered);
}

TEST(Classifier, RejectsMaxPacketsAboveRecordCapacity) {
  ClassifierConfig config;
  config.max_packets = capture::kMaxLoggedPackets + 1;
  EXPECT_THROW(SignatureClassifier{config}, std::invalid_argument);
  config.max_packets = capture::kMaxLoggedPackets;
  EXPECT_NO_THROW(SignatureClassifier{config});
}

TEST(Classifier, EmptySampleIsClean) {
  EXPECT_FALSE(classify(sample_of({})).possibly_tampered);
}

// ---- Post-SYN ----

TEST(Classifier, SynToNothing) {
  const auto c = classify(sample_of({syn(1000)}, 1030));
  EXPECT_TRUE(c.possibly_tampered);
  EXPECT_TRUE(c.timeout);
  EXPECT_EQ(c.stage, Stage::kPostSyn);
  EXPECT_EQ(c.signature, Signature::kSynNone);
}

TEST(Classifier, RetransmittedSynStillSingleSyn) {
  const auto c = classify(sample_of({syn(1000), syn(1001), syn(1003)}, 1030));
  EXPECT_EQ(c.signature, Signature::kSynNone);  // duplicates collapse
}

TEST(Classifier, SynToRst) {
  const auto c =
      classify(sample_of({syn(1000), pkt(1000, kRst, kIsn + 1, 0)}, 1030));
  EXPECT_EQ(c.signature, Signature::kSynRst);
  EXPECT_EQ(c.rst_count, 1u);
  EXPECT_EQ(c.rst_ack_count, 0u);
}

TEST(Classifier, SynToMultipleRstsStillSynRst) {
  // "One or more RSTs after a single SYN".
  const auto c = classify(sample_of(
      {syn(1000), pkt(1000, kRst, kIsn + 1, 0), pkt(1000, kRst, kIsn + 1, 7)}, 1030));
  EXPECT_EQ(c.signature, Signature::kSynRst);
  EXPECT_EQ(c.rst_count, 2u);
}

TEST(Classifier, SynToRstAck) {
  const auto c =
      classify(sample_of({syn(1000), pkt(1000, kRst | kAck, kIsn + 1, kSrvAck)}, 1030));
  EXPECT_EQ(c.signature, Signature::kSynRstAck);
}

TEST(Classifier, SynToMixedRstBurst) {
  const auto c = classify(sample_of({syn(1000), pkt(1000, kRst, kIsn + 1, 0),
                                     pkt(1000, kRst | kAck, kIsn + 1, kSrvAck)},
                                    1030));
  EXPECT_EQ(c.signature, Signature::kSynRstRstAck);
}

// ---- Post-ACK ----

TEST(Classifier, AckToNothing) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000)}, 1030));
  EXPECT_EQ(c.stage, Stage::kPostAck);
  EXPECT_EQ(c.signature, Signature::kAckNone);
  EXPECT_TRUE(c.timeout);
}

TEST(Classifier, AckToExactlyOneRst) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), rst(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kAckRst);
}

TEST(Classifier, AckToTwoRsts) {
  const auto c =
      classify(sample_of({syn(1000), hs_ack(1000), rst(1000), rst(1000, kSrvAck + 1)}, 1030));
  EXPECT_EQ(c.signature, Signature::kAckRstRst);
}

TEST(Classifier, AckToOneRstAck) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), rst_ack(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kAckRstAck);
}

TEST(Classifier, AckToTwoRstAcks) {
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), rst_ack(1000), rst_ack(1001)}, 1030));
  EXPECT_EQ(c.signature, Signature::kAckRstAckRstAck);
}

TEST(Classifier, AckWithMixedTeardownIsUnmatched) {
  // Table 1 has no Post-ACK mixed RST/RST+ACK signature.
  const auto c =
      classify(sample_of({syn(1000), hs_ack(1000), rst(1000), rst_ack(1000)}, 1030));
  EXPECT_TRUE(c.possibly_tampered);
  EXPECT_FALSE(c.signature.has_value());
  EXPECT_EQ(c.stage, Stage::kPostAck);
}

TEST(Classifier, TwoDistinctAcksIsOtherStage) {
  // The paper's example of an unclassified sequence: SYN and two ACKs.
  auto second_ack = hs_ack(1000);
  second_ack.ack = kSrvAck + 100;
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), second_ack}, 1030));
  EXPECT_TRUE(c.possibly_tampered);
  EXPECT_EQ(c.stage, Stage::kOther);
  EXPECT_FALSE(c.signature.has_value());
}

// ---- Post-PSH ----

TEST(Classifier, PshToNothing) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), psh(1000)}, 1030));
  EXPECT_EQ(c.stage, Stage::kPostPsh);
  EXPECT_EQ(c.signature, Signature::kPshNone);
}

TEST(Classifier, PshToOneRst) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), psh(1000), rst(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRst);
}

TEST(Classifier, PshToOneRstAck) {
  const auto c =
      classify(sample_of({syn(1000), hs_ack(1000), psh(1000), rst_ack(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstAck);
}

TEST(Classifier, PshToMixedBurst) {
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), psh(1000), rst(1000), rst_ack(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstRstAck);
}

TEST(Classifier, PshToDoubleRstAck) {
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), psh(1000), rst_ack(1000), rst_ack(1000)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstAckRstAck);
}

TEST(Classifier, PshToRepeatedRstSameAck) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 7777), rst(1000, 7777)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstEqRst);
}

TEST(Classifier, PshToRstsWithDifferentAcks) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 7777), rst(1000, 9237)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstNeqRst);
}

TEST(Classifier, PshToRstWithZeroAck) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 7777), rst(1000, 0)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstRst0);
}

TEST(Classifier, ZeroAckTakesPrecedenceOverNeq) {
  // Three RSTs: 0, x, y (x != y). Zero-ack split wins over "different acks".
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), psh(1000), rst(1000, 0),
                                     rst(1000, 100), rst(1000, 200)},
                                    1030));
  EXPECT_EQ(c.signature, Signature::kPshRstRst0);
}

TEST(Classifier, AllZeroAcksAreEqual) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 0), rst(1000, 0)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstEqRst);
}

TEST(Classifier, MixedPrecedenceOverAckSplits) {
  // RST+ACK present alongside multiple RSTs: mixed burst wins.
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), psh(1000), rst(1000, 0),
                                     rst(1000, 1), rst_ack(1000)},
                                    1030));
  EXPECT_EQ(c.signature, Signature::kPshRstRstAck);
}

// ---- Post-Data ----

TEST(Classifier, SecondDataPacketMovesToPostData) {
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), psh(1000), psh2(1000), rst(1001)}, 1030));
  EXPECT_EQ(c.stage, Stage::kPostData);
  EXPECT_EQ(c.signature, Signature::kDataRst);
}

TEST(Classifier, AckAfterPshMovesToPostData) {
  // "Not immediately after the first PSH+ACK": a response ACK intervened.
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), resp_ack(1000, 1460), rst_ack(1001)}, 1030));
  EXPECT_EQ(c.stage, Stage::kPostData);
  EXPECT_EQ(c.signature, Signature::kDataRstAck);
}

TEST(Classifier, PostDataTimeoutIsUnmatched) {
  // No ⟨PSH;Data → ∅⟩ signature exists in Table 1.
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), resp_ack(1000, 1460)}, 1030));
  EXPECT_TRUE(c.possibly_tampered);
  EXPECT_EQ(c.stage, Stage::kPostData);
  EXPECT_FALSE(c.signature.has_value());
}

TEST(Classifier, PostDataMixedUsesFirstTeardownType) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1000), psh(1000), psh2(1000),
                                     rst_ack(1001), rst(1001, 5)},
                                    1030));
  EXPECT_EQ(c.stage, Stage::kPostData);
  EXPECT_EQ(c.signature, Signature::kDataRstAck);
}

// ---- FIN interactions ----

TEST(Classifier, RstAfterFinIsOtherStage) {
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), fin(1000), rst_ack(1000, kSrvAck + 3000)},
      1030));
  EXPECT_TRUE(c.possibly_tampered);  // a RST is present
  EXPECT_EQ(c.stage, Stage::kOther);
  EXPECT_FALSE(c.signature.has_value());
}

// ---- Inactivity semantics ----

TEST(Classifier, GapBelowThresholdIsClean) {
  const auto c = classify(sample_of({syn(1000), hs_ack(1002)}, 1004));
  EXPECT_FALSE(c.possibly_tampered);
}

TEST(Classifier, InternalGapCountsEvenIfTrafficResumes) {
  // SYN, ACK, 5 s silence, then data: the paper flags the inactivity.
  const auto c =
      classify(sample_of({syn(1000), hs_ack(1000), psh(1006), psh2(1006)}, 1007));
  EXPECT_TRUE(c.possibly_tampered);
  EXPECT_EQ(c.stage, Stage::kPostAck);
  EXPECT_EQ(c.signature, Signature::kAckNone);
}

TEST(Classifier, TrailingSilenceUsesObservationEnd) {
  const auto near_end = classify(sample_of({syn(1000), hs_ack(1000)}, 1002));
  EXPECT_FALSE(near_end.possibly_tampered);  // only 2 s of silence so far
  const auto past_end = classify(sample_of({syn(1000), hs_ack(1000)}, 1003));
  EXPECT_TRUE(past_end.possibly_tampered);
}

TEST(Classifier, ConfigurableInactivityThreshold) {
  ClassifierConfig config;
  config.inactivity_seconds = 10;
  SignatureClassifier strict(config);
  const auto c = strict.classify(sample_of({syn(1000), hs_ack(1000)}, 1006));
  EXPECT_FALSE(c.possibly_tampered);
}

// ---- Retransmission collapse ----

TEST(Classifier, DataRetransmissionCollapses) {
  // PSH retransmitted twice then a RST: still Post-PSH, not Post-Data.
  const auto c = classify(
      sample_of({syn(1000), hs_ack(1000), psh(1000), psh(1001), rst(1001)}, 1030));
  EXPECT_EQ(c.stage, Stage::kPostPsh);
  EXPECT_EQ(c.signature, Signature::kPshRst);
}

TEST(Classifier, IdenticalRstsAreNotCollapsed) {
  // Injector bursts repeat byte-identical RSTs; one-vs-many is significant.
  const auto c = classify(sample_of(
      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 7777), rst(1000, 7777)}, 1030));
  EXPECT_EQ(c.signature, Signature::kPshRstEqRst);
  EXPECT_EQ(c.rst_count, 2u);
}

// ---- Order reconstruction ----

TEST(Classifier, OrderPacketsReconstructsHandshakeOrder) {
  const auto s =
      sample_of({psh(1000), syn(1000), hs_ack(1000), resp_ack(1000, 100)}, 1030);
  const auto ordered = order_packets(s);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_TRUE(ordered[0]->is_syn());
  EXPECT_TRUE(ordered[1]->is_pure_ack());
  EXPECT_TRUE(ordered[2]->is_data());
  EXPECT_TRUE(ordered[3]->is_pure_ack());
}

TEST(Classifier, ShuffleInvarianceWithinSecond) {
  // Any within-second permutation of the log yields the same classification.
  std::vector<ObservedPacket> base = {syn(1000),        hs_ack(1000), psh(1000),
                                      rst(1000, 7777),  rst(1000, 0)};
  const auto reference = classify(sample_of(base, 1030));
  ASSERT_EQ(reference.signature, Signature::kPshRstRst0);
  common::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    auto shuffled = base;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const auto c = classify(sample_of(shuffled, 1030));
    ASSERT_EQ(c.signature, reference.signature) << "trial " << trial;
    ASSERT_EQ(c.stage, reference.stage);
  }
}

TEST(Classifier, CrossSecondOrderPreserved) {
  // Packets in different seconds keep timestamp order regardless of input order.
  const auto s = sample_of({rst(1002), psh(1001), hs_ack(1000), syn(1000)}, 1030);
  const auto c = classify(s);
  EXPECT_EQ(c.signature, Signature::kPshRst);
}

// ---- Parameterized: every signature recognized under shuffle ----

struct SignatureCase {
  Signature expected;
  std::vector<ObservedPacket> packets;
};

// Without this gtest prints the case as raw bytes, heap pointers included,
// and the ctest name of each case changes from run to run.
void PrintTo(const SignatureCase& c, std::ostream* os) { *os << ascii_name(c.expected); }

class AllSignatures : public ::testing::TestWithParam<SignatureCase> {};

TEST_P(AllSignatures, RecognizedShuffled) {
  const auto& param = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(param.expected) + 1);
  for (int trial = 0; trial < 20; ++trial) {
    auto shuffled = param.packets;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const auto c = classify(sample_of(shuffled, 1030));
    ASSERT_TRUE(c.possibly_tampered);
    ASSERT_EQ(c.signature, param.expected) << name(param.expected);
    ASSERT_EQ(c.stage, stage_of(param.expected));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, AllSignatures,
    ::testing::Values(
        SignatureCase{Signature::kSynNone, {syn(1000)}},
        SignatureCase{Signature::kSynRst, {syn(1000), pkt(1000, kRst, kIsn + 1, 0)}},
        SignatureCase{Signature::kSynRstAck,
                      {syn(1000), pkt(1000, kRst | kAck, kIsn + 1, kSrvAck)}},
        SignatureCase{Signature::kSynRstRstAck,
                      {syn(1000), pkt(1000, kRst, kIsn + 1, 0),
                       pkt(1000, kRst | kAck, kIsn + 1, kSrvAck)}},
        SignatureCase{Signature::kAckNone, {syn(1000), hs_ack(1000)}},
        SignatureCase{Signature::kAckRst, {syn(1000), hs_ack(1000), rst(1000)}},
        SignatureCase{Signature::kAckRstRst,
                      {syn(1000), hs_ack(1000), rst(1000, 5), rst(1000, 6)}},
        SignatureCase{Signature::kAckRstAck, {syn(1000), hs_ack(1000), rst_ack(1000)}},
        SignatureCase{Signature::kAckRstAckRstAck,
                      {syn(1000), hs_ack(1000), rst_ack(1000), rst_ack(1000)}},
        SignatureCase{Signature::kPshNone, {syn(1000), hs_ack(1000), psh(1000)}},
        SignatureCase{Signature::kPshRst,
                      {syn(1000), hs_ack(1000), psh(1000), rst(1000)}},
        SignatureCase{Signature::kPshRstAck,
                      {syn(1000), hs_ack(1000), psh(1000), rst_ack(1000)}},
        SignatureCase{Signature::kPshRstRstAck,
                      {syn(1000), hs_ack(1000), psh(1000), rst(1000), rst_ack(1000)}},
        SignatureCase{Signature::kPshRstAckRstAck,
                      {syn(1000), hs_ack(1000), psh(1000), rst_ack(1000), rst_ack(1000)}},
        SignatureCase{Signature::kPshRstEqRst,
                      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 9), rst(1000, 9)}},
        SignatureCase{Signature::kPshRstNeqRst,
                      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 9), rst(1000, 10)}},
        SignatureCase{Signature::kPshRstRst0,
                      {syn(1000), hs_ack(1000), psh(1000), rst(1000, 9), rst(1000, 0)}},
        SignatureCase{Signature::kDataRst,
                      {syn(1000), hs_ack(1000), psh(1000), psh2(1000), rst(1001)}},
        SignatureCase{Signature::kDataRstAck,
                      {syn(1000), hs_ack(1000), psh(1000), psh2(1000), rst_ack(1001)}}));

}  // namespace
}  // namespace tamper::core

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/aggregates.h"
#include "analysis/evidence.h"
#include "analysis/pipeline.h"
#include "analysis/testlists.h"
#include "common/rng.h"
#include "obs/timeseries.h"

namespace tamper::analysis {
namespace {

using namespace net::tcpflag;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 20'000}, .seed = 0x90}};
  return kWorld;
}

capture::ObservedPacket obs(std::int64_t ts, std::uint8_t flags, std::uint32_t seq,
                            std::uint32_t ack, std::uint16_t ipid, std::uint8_t ttl,
                            std::uint16_t payload_len = 0) {
  capture::ObservedPacket p;
  p.ts_sec = ts;
  p.flags = flags;
  p.seq = seq;
  p.ack = ack;
  p.ip_id = ipid;
  p.ttl = ttl;
  p.payload_len = payload_len;
  return p;
}

capture::ConnectionSample tampered_sample() {
  capture::ConnectionSample s;
  s.ip_version = net::IpVersion::kV4;
  s.packets = {
      obs(1000, kSyn, 100, 0, 500, 52),
      obs(1000, kAck, 101, 9000, 501, 52),
      obs(1000, kPsh | kAck, 101, 9000, 502, 52, 200),
      obs(1000, kRst, 301, 9000, 30000, 40),  // injected: far IP-ID, other TTL
  };
  s.observation_end_sec = 1030;
  return s;
}

TEST(Evidence, InjectedRstShowsLargeDeltas) {
  const auto sample = tampered_sample();
  const auto classification = core::SignatureClassifier{}.classify(sample);
  ASSERT_EQ(classification.signature, core::Signature::kPshRst);
  const EvidenceDeltas deltas = evidence_deltas(sample, classification);
  ASSERT_TRUE(deltas.max_ipid_delta.has_value());
  EXPECT_EQ(*deltas.max_ipid_delta, 30000u - 502u);
  ASSERT_TRUE(deltas.max_ttl_delta.has_value());
  EXPECT_EQ(*deltas.max_ttl_delta, 12u);
}

TEST(Evidence, CleanConnectionShowsSmallDeltas) {
  capture::ConnectionSample s;
  s.ip_version = net::IpVersion::kV4;
  s.packets = {
      obs(1000, kSyn, 100, 0, 500, 52),
      obs(1000, kAck, 101, 9000, 501, 52),
      obs(1000, kPsh | kAck, 101, 9000, 502, 52, 200),
      obs(1000, kFin | kAck, 301, 9500, 503, 52),
  };
  s.observation_end_sec = 1030;
  const auto classification = core::SignatureClassifier{}.classify(s);
  ASSERT_FALSE(classification.possibly_tampered);
  const EvidenceDeltas deltas = evidence_deltas(s, classification);
  EXPECT_EQ(*deltas.max_ipid_delta, 1u);
  EXPECT_EQ(*deltas.max_ttl_delta, 0u);
}

TEST(Evidence, Ipv6HasNoIpIdDelta) {
  auto sample = tampered_sample();
  sample.ip_version = net::IpVersion::kV6;
  const auto classification = core::SignatureClassifier{}.classify(sample);
  const EvidenceDeltas deltas = evidence_deltas(sample, classification);
  EXPECT_FALSE(deltas.max_ipid_delta.has_value());
  EXPECT_TRUE(deltas.max_ttl_delta.has_value());
}

TEST(Evidence, CollectorCapsPerSignature) {
  EvidenceCollector collector(/*per_signature_cap=*/5);
  const auto sample = tampered_sample();
  ConnectionRecord record;
  record.classification = core::SignatureClassifier{}.classify(sample);
  for (int i = 0; i < 20; ++i) collector.add(sample, record);
  EXPECT_EQ(
      collector.ipid_cdf(static_cast<std::size_t>(core::Signature::kPshRst)).count(), 5u);
}

TEST(Aggregates, SignatureMatrixTotals) {
  SignatureMatrix matrix;
  ConnectionRecord clean;
  clean.country = "DE";
  matrix.add(clean);
  ConnectionRecord hit;
  hit.country = "CN";
  hit.classification.possibly_tampered = true;
  hit.classification.signature = core::Signature::kPshRstRstAck;
  hit.classification.stage = core::Stage::kPostPsh;
  matrix.add(hit);
  matrix.add(hit);
  EXPECT_EQ(matrix.total_connections(), 3u);
  EXPECT_EQ(matrix.possibly_tampered(), 2u);
  EXPECT_EQ(matrix.matched(), 2u);
  EXPECT_EQ(matrix.count("CN", core::Signature::kPshRstRstAck), 2u);
  EXPECT_EQ(matrix.signature_total(core::Signature::kPshRstRstAck), 2u);
  EXPECT_EQ(matrix.country_matches("CN"), 2u);
  EXPECT_EQ(matrix.country_matches("DE"), 0u);
  EXPECT_EQ(matrix.stage_possibly(core::Stage::kPostPsh), 2u);
}

TEST(Aggregates, AsnTopEightyPercent) {
  AsnAggregator agg;
  auto record_for = [](std::uint32_t asn, bool match) {
    ConnectionRecord r;
    r.country = "RU";
    r.asn = common::AsnId(asn);
    if (match) {
      r.classification.possibly_tampered = true;
      r.classification.signature = core::Signature::kPshRst;
    }
    return r;
  };
  // AS 1: 80 connections, AS 2: 15, AS 3: 5.
  for (int i = 0; i < 80; ++i) agg.add(record_for(1, i < 40));
  for (int i = 0; i < 15; ++i) agg.add(record_for(2, false));
  for (int i = 0; i < 5; ++i) agg.add(record_for(3, true));
  const auto top = agg.top_ases("RU", 0.8);
  ASSERT_EQ(top.size(), 1u);  // AS 1 alone carries 80%
  EXPECT_EQ(top[0].asn, common::AsnId(1));
  EXPECT_NEAR(top[0].match_percent(), 50.0, 1e-9);
  EXPECT_EQ(agg.country_total("RU"), 100u);
}

TEST(Aggregates, TimeSeriesBucketsByHour) {
  TimeSeries series;
  ConnectionRecord r;
  r.country = "IR";
  r.first_ts_sec = 7200 + 100;  // hour 2
  r.classification.possibly_tampered = true;
  r.classification.signature = core::Signature::kAckNone;
  r.classification.stage = core::Stage::kPostAck;
  series.add(r);
  r.first_ts_sec = 7200 + 3599;
  series.add(r);
  r.first_ts_sec = 10800;  // hour 3
  series.add(r);
  const auto& hours = series.country_hours("IR");
  ASSERT_EQ(hours.size(), 2u);
  EXPECT_EQ(hours.at(2).connections, 2u);
  EXPECT_EQ(hours.at(2).post_ack_psh_matches, 2u);
  EXPECT_EQ(hours.at(3).connections, 1u);
}

TEST(Aggregates, VersionProtocolSplit) {
  VersionProtocolAggregator agg;
  ConnectionRecord r;
  r.country = "LK";
  r.ip_version = net::IpVersion::kV6;
  r.protocol = appproto::AppProtocol::kTls;
  r.classification.possibly_tampered = true;
  r.classification.signature = core::Signature::kPshRst;
  r.classification.stage = core::Stage::kPostPsh;
  agg.add(r);
  const auto& split = agg.by_country().at("LK");
  EXPECT_EQ(split.v6_total, 1u);
  EXPECT_EQ(split.v6_matches, 1u);
  EXPECT_EQ(split.v4_total, 0u);
  EXPECT_EQ(split.tls_psh_matches, 1u);
}

TEST(Aggregates, OverlapMatrixTracksPairs) {
  OverlapMatrix overlap;
  ConnectionRecord r;
  r.country = "CN";
  r.client_ip_hash = 42;
  r.domain = "pair.example";
  r.classification.possibly_tampered = true;
  r.classification.signature = core::Signature::kPshRst;
  overlap.add(r);  // first visit: recorded, no transition yet
  EXPECT_EQ(overlap.row_total(static_cast<std::size_t>(core::Signature::kPshRst)), 0u);
  overlap.add(r);  // second visit: diagonal transition
  EXPECT_EQ(overlap.count(static_cast<std::size_t>(core::Signature::kPshRst),
                          static_cast<std::size_t>(core::Signature::kPshRst)),
            1u);
  r.classification.signature = core::Signature::kPshRstEqRst;
  overlap.add(r);  // third visit: off-diagonal from the FIRST state
  EXPECT_EQ(overlap.count(static_cast<std::size_t>(core::Signature::kPshRst),
                          static_cast<std::size_t>(core::Signature::kPshRstEqRst)),
            1u);
  // A different domain is a different pair.
  r.domain = "other.example";
  overlap.add(r);
  EXPECT_EQ(overlap.row_total(static_cast<std::size_t>(core::Signature::kPshRstEqRst)),
            0u);
}

// ---- CategoryAggregator (Table 2) ----

ConnectionRecord category_record(const std::string& domain,
                                 std::optional<core::Signature> sig) {
  ConnectionRecord r;
  r.country = "CN";
  r.domain = domain;
  if (sig) {
    r.classification.possibly_tampered = true;
    r.classification.signature = *sig;
    r.classification.stage = core::stage_of(*sig);
  }
  return r;
}

CategoryAggregator category_aggregator() {
  return CategoryAggregator([](const std::string& domain) -> std::optional<world::Category> {
    if (domain == "chat.example") return world::Category::kChat;
    if (domain == "news.example") return world::Category::kBusiness;
    return std::nullopt;
  });
}

void add_n(CategoryAggregator& agg, int n, const std::string& domain,
           std::optional<core::Signature> sig) {
  for (int i = 0; i < n; ++i) agg.add(category_record(domain, sig));
}

TEST(Aggregates, CategoryDomainThresholdIsOneHundredMatches) {
  CategoryAggregator agg = category_aggregator();
  add_n(agg, 100, "chat.example", core::Signature::kPshRst);
  add_n(agg, 99, "news.example", core::Signature::kPshRst);
  const auto stats = agg.country_stats("CN");
  ASSERT_TRUE(stats.contains(world::Category::kChat));
  EXPECT_EQ(stats.at(world::Category::kChat).tampered_connections, 100u);
  EXPECT_EQ(stats.at(world::Category::kChat).tampered_domains,
            std::set<std::string>{"chat.example"});
  EXPECT_EQ(stats.at(world::Category::kBusiness).tampered_connections, 0u);
  EXPECT_TRUE(stats.at(world::Category::kBusiness).tampered_domains.empty());
  EXPECT_EQ(agg.tampered_domains("CN"), std::vector<std::string>{"chat.example"});
  EXPECT_EQ(agg.tampered_domains("CN", 99),
            (std::vector<std::string>{"chat.example", "news.example"}));
}

TEST(Aggregates, CategoryCountsOnlyPostPshAndPostDataAsTampered) {
  CategoryAggregator agg = category_aggregator();
  add_n(agg, 50, "chat.example", core::Signature::kPshRstAck);  // Post-PSH
  add_n(agg, 50, "chat.example", core::Signature::kDataRst);    // Post-Data
  add_n(agg, 100, "news.example", core::Signature::kSynRst);    // Post-SYN
  add_n(agg, 100, "news.example", core::Signature::kAckRst);    // Post-ACK
  add_n(agg, 100, "news.example", std::nullopt);                // clean
  EXPECT_EQ(agg.tampered_domains("CN", 1), std::vector<std::string>{"chat.example"});
  EXPECT_EQ(agg.country_stats("CN").at(world::Category::kChat).tampered_connections, 100u);
}

TEST(Aggregates, CategorySeenDomainsIncludeUntampered) {
  CategoryAggregator agg = category_aggregator();
  add_n(agg, 1, "news.example", std::nullopt);
  add_n(agg, 1, "unknown.example", std::nullopt);  // no category: never reported
  const auto stats = agg.country_stats("CN");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.at(world::Category::kBusiness).seen_domains,
            std::set<std::string>{"news.example"});
  EXPECT_TRUE(stats.at(world::Category::kBusiness).tampered_domains.empty());
  EXPECT_EQ(agg.countries(), std::vector<std::string>{"CN"});
}

TEST(Aggregates, CategorySnapshotRestoreIsByteStable) {
  CategoryAggregator agg = category_aggregator();
  add_n(agg, 120, "chat.example", core::Signature::kPshRst);
  add_n(agg, 3, "news.example", std::nullopt);
  add_n(agg, 2, "unknown.example", core::Signature::kDataRstAck);
  common::BinWriter first;
  agg.snapshot(first);

  CategoryAggregator restored = category_aggregator();
  common::BinReader reader(first.bytes());
  restored.restore(reader);
  EXPECT_TRUE(reader.exhausted());
  common::BinWriter second;
  restored.snapshot(second);
  EXPECT_EQ(first.bytes(), second.bytes());
  EXPECT_EQ(restored.tampered_domains("CN"), std::vector<std::string>{"chat.example"});
}

TEST(Aggregates, CategoryMergeSumsPerDomain) {
  CategoryAggregator a = category_aggregator();
  CategoryAggregator b = category_aggregator();
  add_n(a, 60, "chat.example", core::Signature::kPshRst);
  add_n(b, 60, "chat.example", core::Signature::kPshRst);
  add_n(b, 5, "news.example", std::nullopt);
  EXPECT_TRUE(a.tampered_domains("CN").empty());  // 60 < 100 on each side
  a.merge(b);
  EXPECT_EQ(a.tampered_domains("CN"), std::vector<std::string>{"chat.example"});
  const auto stats = a.country_stats("CN");
  EXPECT_EQ(stats.at(world::Category::kChat).tampered_connections, 120u);
  EXPECT_EQ(stats.at(world::Category::kBusiness).seen_domains,
            std::set<std::string>{"news.example"});
}

// ---- Encode rule: snapshot key order is std::map's ----

// Keys the prefix sort must order exactly as std::string does: shared
// first 8 bytes, prefixes of each other, embedded NULs (also at the
// padding positions of a short key) and bytes >= 0x80.
std::vector<std::string> awkward_keys() {
  using namespace std::string_literals;
  return {"abcdefgh"s,
          "abcdefgh.a"s,
          "abcdefgh.b"s,
          "abcdefghZ"s,
          "abcdefgi"s,
          "abcdefgh\xff"s,
          "abcdefg"s,
          "abcdefg\0"s,
          "abcdefg\0\0x"s,
          "abc"s,
          "abc\0"s,
          "ab\0c"s,
          ""s,
          "\0"s,
          "\0\0\0\0\0\0\0\0\0"s,
          "a\x7f"s,
          "a\x80" "b"s,
          "\x80"s,
          "\xff\xfe"s,
          "\xff\xff\xff\xff\xff\xff\xff\xff"s,
          "\xff\xff\xff\xff\xff\xff\xff\xff\x01"s,
          "zzzzzzzz"s,
          "Zzzzzzzz"s};
}

TEST(Aggregates, CategorySnapshotWritesDomainsInStdMapOrder) {
  CategoryAggregator agg = category_aggregator();
  std::map<std::string, std::uint64_t> reference;
  std::uint64_t n = 1;
  // Enough keys for the radix path, in long runs of equal 8-byte prefixes.
  std::vector<std::string> domains = awkward_keys();
  for (int i = 0; i < 400; ++i) {
    const std::string tail = std::to_string(i * 7919 % 1000);
    domains.push_back((i % 3 == 0 ? "abcdefgh" : i % 3 == 1 ? "ab" : "\xff") + tail);
    if (i % 50 == 0) domains.push_back(std::string("abc\0", 4) + tail);
  }
  for (const std::string& domain : domains) {
    add_n(agg, static_cast<int>(n % 5 + 1), domain, std::nullopt);
    reference[domain] += n++ % 5 + 1;
  }
  common::BinWriter w;
  agg.snapshot(w);

  common::BinReader r(w.bytes());
  ASSERT_EQ(r.u64(), 1u);  // one country
  EXPECT_EQ(r.str(), "CN");
  EXPECT_EQ(r.u64(), 0u);  // tampered_by_domain: nothing matched
  ASSERT_EQ(r.u64(), reference.size());
  for (const auto& [domain, count] : reference) {
    EXPECT_EQ(r.str(), domain);
    EXPECT_EQ(r.u64(), count);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Aggregates, OverlapSnapshotWritesFlowIdsInStdMapOrder) {
  OverlapMatrix overlap;
  std::map<common::FlowId, std::uint64_t> reference;  // orders by the raw u64
  std::size_t top_bit = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    ConnectionRecord r;
    r.client_ip_hash = common::mix64(i);
    r.domain = "d" + std::to_string(i % 7) + ".example";
    if (i % 3 == 0) r.classification.signature = core::Signature::kPshRst;
    overlap.add(r);
    const common::FlowId key(common::mix64(r.client_ip_hash ^ common::fnv1a(*r.domain)));
    reference.try_emplace(key, OverlapMatrix::state_of(r.classification));
    if (key.value() >> 63) ++top_bit;
  }
  ASSERT_GT(top_bit, 0u);
  ASSERT_LT(top_bit, reference.size());
  common::BinWriter w;
  overlap.snapshot(w);

  common::BinReader r(w.bytes());
  ASSERT_EQ(r.u64(), reference.size());
  for (const auto& [key, state] : reference) {
    EXPECT_EQ(r.u64(), key.value());
    EXPECT_EQ(r.u64(), state);
  }
  EXPECT_EQ(r.remaining(), OverlapMatrix::kStates * OverlapMatrix::kStates * 8);
}

// ---- Decode rule: strictly increasing keys at every level ----

enum class KeyOrder { kIncreasing, kRepeated, kDecreasing };

// One hand-written payload per keyed level; `order` picks the second of its
// two keys at that level (a country, an hour, an AS, a domain, an overlap
// pair, a ring series or a ring epoch).
struct DecodeCase {
  const char* name;
  std::function<void(common::BinWriter&, KeyOrder)> write;
  std::function<void(common::BinReader&)> restore;
};

template <class Key>
Key pick(KeyOrder order, Key increasing, Key repeated, Key decreasing) {
  switch (order) {
    case KeyOrder::kIncreasing: return increasing;
    case KeyOrder::kRepeated: return repeated;
    case KeyOrder::kDecreasing: return decreasing;
  }
  return repeated;
}

void write_zeros(common::BinWriter& w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w.u64(0);
}

TEST(Aggregates, RestoreRejectsRepeatedAndOutOfOrderKeys) {
  const std::vector<DecodeCase> cases = {
      {"SignatureMatrix country",
       [](common::BinWriter& w, KeyOrder order) {
         write_zeros(w, 3 + core::kSignatureCount + 5 + 5);  // totals, stages
         w.u64(2);
         for (const std::string& cc : {std::string("CN"), pick<std::string>(order, "DE", "CN", "AA")}) {
           w.str(cc);
           write_zeros(w, 2 + core::kSignatureCount);
         }
       },
       [](common::BinReader& r) { SignatureMatrix().restore(r); }},
      {"AsnAggregator AS",
       [](common::BinWriter& w, KeyOrder order) {
         w.u64(1);
         w.str("RU");
         w.u64(2);
         for (const std::uint32_t asn : {7u, pick(order, 8u, 7u, 6u)}) {
           w.u32(asn);
           write_zeros(w, 2);
         }
       },
       [](common::BinReader& r) { AsnAggregator().restore(r); }},
      {"TimeSeries hour",
       [](common::BinWriter& w, KeyOrder order) {
         w.u64(1);
         w.str("IR");
         w.u64(2);
         for (const std::int64_t hour : {std::int64_t{2}, pick<std::int64_t>(order, 3, 2, 1)}) {
           w.i64(hour);
           write_zeros(w, 2 + core::kSignatureCount);
         }
       },
       [](common::BinReader& r) { TimeSeries().restore(r); }},
      {"VersionProtocolAggregator country",
       [](common::BinWriter& w, KeyOrder order) {
         w.u64(2);
         for (const std::string& cc : {std::string("LK"), pick<std::string>(order, "MM", "LK", "KR")}) {
           w.str(cc);
           write_zeros(w, 8);
         }
       },
       [](common::BinReader& r) { VersionProtocolAggregator().restore(r); }},
      {"CategoryAggregator domain",
       [](common::BinWriter& w, KeyOrder order) {
         w.u64(1);
         w.str("CN");
         w.u64(2);  // tampered_by_domain
         for (const std::string& domain : {std::string("b.example"),
                                           pick<std::string>(order, "c.example", "b.example",
                                                             "a.example")}) {
           w.str(domain);
           w.u64(1);
         }
         w.u64(0);  // seen_by_domain
       },
       [](common::BinReader& r) { category_aggregator().restore(r); }},
      {"OverlapMatrix pair",
       [](common::BinWriter& w, KeyOrder order) {
         w.u64(2);
         for (const std::uint64_t pair : {std::uint64_t{5}, pick<std::uint64_t>(order, 6, 5, 4)}) {
           w.u64(pair);
           w.u64(0);  // first state
         }
         write_zeros(w, OverlapMatrix::kStates * OverlapMatrix::kStates);
       },
       [](common::BinReader& r) { OverlapMatrix().restore(r); }},
      {"EpochRing series",
       [](common::BinWriter& w, KeyOrder order) {
         w.i64(60);  // epoch length
         w.u32(2);
         for (const std::string& family : {std::string("b"), pick<std::string>(order, "c", "b", "a")}) {
           w.str(family);
           w.str("");  // label
           w.u8(0);    // kSum
           w.u32(1);
           w.i64(2);
           w.f64(1.0);
         }
       },
       [](common::BinReader& r) { obs::EpochRing().restore(r); }},
      {"EpochRing epoch",
       [](common::BinWriter& w, KeyOrder order) {
         w.i64(60);
         w.u32(1);
         w.str("connections");
         w.str("");
         w.u8(0);
         w.u32(2);
         for (const std::int64_t epoch : {std::int64_t{2}, pick<std::int64_t>(order, 3, 2, 1)}) {
           w.i64(epoch);
           w.f64(1.0);
         }
       },
       [](common::BinReader& r) { obs::EpochRing().restore(r); }},
  };
  for (const DecodeCase& c : cases) {
    SCOPED_TRACE(c.name);
    common::BinWriter valid;
    c.write(valid, KeyOrder::kIncreasing);
    common::BinReader reader(valid.bytes());
    ASSERT_NO_THROW(c.restore(reader));  // the payload is well formed...
    EXPECT_TRUE(reader.exhausted());
    for (const KeyOrder order : {KeyOrder::kRepeated, KeyOrder::kDecreasing}) {
      common::BinWriter bad;  // ...until its keys stop increasing
      c.write(bad, order);
      common::BinReader bad_reader(bad.bytes());
      EXPECT_THROW(c.restore(bad_reader), std::runtime_error);
    }
  }
}

// ---- Decode rule: values in range, counts the payload can hold ----

// One hand-written payload per rule; `hostile` swaps one value for the
// smallest one the rule refuses.
struct HostileCase {
  const char* name;
  const char* error;  ///< part of the refusal's message
  std::function<void(common::BinWriter&, bool hostile)> write;
  std::function<void(common::BinReader&)> restore;
};

TEST(Aggregates, RestoreRejectsHostileValues) {
  const std::vector<HostileCase> cases = {
      {"overlap state equal to kStates", "value out of range",
       [](common::BinWriter& w, bool hostile) {
         w.u64(1);
         w.u64(5);  // pair
         w.u64(hostile ? OverlapMatrix::kStates : OverlapMatrix::kStates - 1);
         write_zeros(w, OverlapMatrix::kStates * OverlapMatrix::kStates);
       },
       [](common::BinReader& r) { OverlapMatrix().restore(r); }},
      {"ring merge byte 2", "value out of range",
       [](common::BinWriter& w, bool hostile) {
         w.i64(60);
         w.u32(1);
         w.str("overload_level");
         w.str("");
         w.u8(hostile ? 2 : 1);  // 1 is kMax
         w.u32(1);
         w.i64(2);
         w.f64(1.0);
       },
       [](common::BinReader& r) { obs::EpochRing().restore(r); }},
      // The count is refused before the map reserves room for it.
      {"map count 2^40 before 16 bytes", "count exceeds the bytes left",
       [](common::BinWriter& w, bool hostile) {
         w.u64(hostile ? std::uint64_t{1} << 40 : 1);
         w.u64(5);  // one (pair, state) entry: 16 bytes
         w.u64(0);
         if (!hostile) write_zeros(w, OverlapMatrix::kStates * OverlapMatrix::kStates);
       },
       [](common::BinReader& r) { OverlapMatrix().restore(r); }},
  };
  for (const HostileCase& c : cases) {
    SCOPED_TRACE(c.name);
    common::BinWriter valid;
    c.write(valid, false);
    common::BinReader reader(valid.bytes());
    ASSERT_NO_THROW(c.restore(reader));
    EXPECT_TRUE(reader.exhausted());
    common::BinWriter bad;
    c.write(bad, true);
    common::BinReader bad_reader(bad.bytes());
    try {
      c.restore(bad_reader);
      ADD_FAILURE() << "restore accepted the hostile value";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos) << e.what();
    }
  }
}

TEST(TestLists, TrancoTiersAreNestedInSpirit) {
  TestListBuilder builder(shared_world(), 0x11);
  const TestList small = builder.tranco(200, "small");
  const TestList large = builder.tranco(2000, "large");
  EXPECT_EQ(small.entries.size(), 200u);
  EXPECT_EQ(large.entries.size(), 2000u);
  // The small tier is (noisily) head-biased, so most of it appears in large.
  std::size_t overlap = 0;
  for (const auto& entry : small.entries)
    if (large.contains(entry)) ++overlap;
  EXPECT_GT(overlap, small.entries.size() * 8 / 10);
}

TEST(TestLists, PopularityListsCoverHeadBetterThanTail) {
  TestListBuilder builder(shared_world(), 0x12);
  const TestList list = builder.tranco(2000, "t");
  std::size_t head_hits = 0, tail_hits = 0;
  for (std::size_t rank = 0; rank < 500; ++rank)
    if (list.contains(shared_world().domains().by_rank(rank).name)) ++head_hits;
  for (std::size_t rank = 15000; rank < 15500; ++rank)
    if (list.contains(shared_world().domains().by_rank(rank).name)) ++tail_hits;
  EXPECT_GT(head_hits, tail_hits * 5 + 10);
}

TEST(TestLists, CuratedListsSmallerThanPopularityTiers) {
  TestListBuilder builder(shared_world(), 0x13);
  const auto battery = builder.standard_battery();
  ASSERT_EQ(battery.size(), 12u);
  const auto& tranco_1m = battery[3];
  const auto& citizenlab_global = battery[11];
  EXPECT_GT(tranco_1m.entries.size(), citizenlab_global.entries.size() * 20);
}

TEST(TestLists, CoverageAuditCounts) {
  TestList list;
  list.name = "t";
  list.entries = {"alpha.example", "beta.example"};
  list.lookup.insert(list.entries.begin(), list.entries.end());
  const Coverage coverage =
      audit_coverage(list, {"alpha.example", "gamma.example", "beta.exampl"});
  EXPECT_EQ(coverage.observed, 3u);
  EXPECT_EQ(coverage.exact, 1u);
  // "beta.exampl" is a substring of "beta.example".
  EXPECT_EQ(coverage.substring, 2u);
  EXPECT_NEAR(coverage.exact_pct(), 33.33, 0.1);
  EXPECT_NEAR(coverage.substring_pct(), 66.67, 0.1);
}

TEST(TestLists, UnionDeduplicates) {
  TestList a;
  a.entries = {"x.example", "y.example"};
  a.lookup.insert(a.entries.begin(), a.entries.end());
  TestList b;
  b.entries = {"y.example", "z.example"};
  b.lookup.insert(b.entries.begin(), b.entries.end());
  const TestList u = TestListBuilder::union_of("u", {&a, &b});
  EXPECT_EQ(u.entries.size(), 3u);
  EXPECT_TRUE(u.contains("z.example"));
}

TEST(TestLists, CitizenlabCountryOnlyContainsBlocked) {
  TestListBuilder builder(shared_world(), 0x14);
  const TestList list = builder.citizenlab_country("CN");
  const int cn = world::country_index("CN");
  ASSERT_GT(list.entries.size(), 0u);
  std::size_t exact_entries = 0;
  for (const auto& entry : list.entries) {
    // Curated entries are often host variants ("www.x", "m.x"); resolve the
    // ones that are clean eTLD+1 names and check they are genuinely blocked.
    const auto rank = shared_world().domains().rank_of(entry);
    if (!rank) continue;
    ++exact_entries;
    EXPECT_TRUE(shared_world().is_blocked(cn, *rank));
  }
  EXPECT_GT(exact_entries, 0u);
  EXPECT_TRUE(builder.citizenlab_country("ZZ").entries.empty());
}

TEST(Pipeline, IngestRoutesToAllAggregators) {
  Pipeline pipeline(shared_world());
  world::TrafficConfig config;
  config.seed = 0x7777;
  world::TrafficGenerator generator(shared_world(), config);
  pipeline.run(generator, 2000);
  EXPECT_GE(pipeline.signatures().total_connections(), 1990u);  // minus lost-SYN flows
  EXPECT_GT(pipeline.signatures().possibly_tampered(), 100u);
  EXPECT_FALSE(pipeline.signatures().countries().empty());
  EXPECT_GT(pipeline.scanner_stats().connections, 0u);
  EXPECT_GT(
      pipeline.evidence().ipid_cdf(analysis::EvidenceCollector::clean_bucket()).count(),
      100u);
}

TEST(Record, AttributionFromSample) {
  const auto& geo = shared_world().geo();
  const auto& as_info = geo.ases().front();
  common::Rng rng(1);
  capture::ConnectionSample sample;
  sample.client_ip = geo.sample_client_ip(as_info, false, rng);
  sample.server_port = 443;
  sample.ip_version = net::IpVersion::kV4;
  sample.packets = {obs(1000, kSyn, 1, 0, 5, 50)};
  sample.observation_end_sec = 1030;
  core::SignatureClassifier classifier;
  const ConnectionRecord record = analyze(sample, geo, classifier);
  EXPECT_EQ(record.country, as_info.country);
  EXPECT_EQ(record.asn, as_info.asn);
  EXPECT_EQ(record.protocol, appproto::AppProtocol::kTls);  // port heuristic
  EXPECT_EQ(record.first_ts_sec, 1000);
  EXPECT_EQ(record.classification.signature, core::Signature::kSynNone);
}

}  // namespace
}  // namespace tamper::analysis

// Strong ID suite: TaggedId laws (explicit construction, comparison, hash),
// the one "prefix:<n>" rendering, strict parse grammar (parse_id /
// parse_scope), the emap-style Inventory interner, the canonical country
// inventory, and the byte-identity proof that strong ids at the API surface
// left the partial-envelope and snapshot encodings untouched: the v3
// envelope is reconstructed field-by-field with raw writers and compared
// byte-for-byte against encode_partial().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "common/binio.h"
#include "common/ids.h"
#include "fleet/partial.h"
#include "obs/timeseries.h"
#include "service/checkpoint.h"
#include "world/countries.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper {
namespace {

using common::AsnId;
using common::CountryId;
using common::DomainId;
using common::EpochId;
using common::FlowId;
using common::PopId;

TEST(TaggedIdTest, ComparisonDelegatesToRep) {
  const PopId a(3), b(7), c(3);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LE(a, c);
  EXPECT_GT(b, a);
  EXPECT_GE(c, a);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(PopId{}.value(), 0u);  // default is the zero id
}

TEST(TaggedIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_convertible_v<PopId, CountryId>);  // same Rep, other tag
  static_assert(!std::is_convertible_v<std::uint32_t, PopId>);
  static_assert(!std::is_convertible_v<PopId, std::uint32_t>);
  static_assert(sizeof(PopId) == sizeof(std::uint32_t));  // zero overhead
  static_assert(sizeof(EpochId) == sizeof(std::uint64_t));
}

TEST(TaggedIdTest, HashMatchesRepAndFeedsUnorderedContainers) {
  EXPECT_EQ(std::hash<FlowId>{}(FlowId(99)), std::hash<std::uint64_t>{}(99));
  std::unordered_set<AsnId> set;
  set.insert(AsnId(13335));
  set.insert(AsnId(13335));
  set.insert(AsnId(15169));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(AsnId(13335)));
  EXPECT_FALSE(set.contains(AsnId(1)));
}

TEST(TaggedIdTest, FormatAndStreamAgree) {
  EXPECT_EQ(common::format(PopId(3)), "pop:3");
  EXPECT_EQ(common::format(AsnId(13335)), "asn:13335");
  EXPECT_EQ(common::format(EpochId(0)), "epoch:0");
  EXPECT_EQ(common::format(CountryId(12)), "country:12");
  EXPECT_EQ(common::format(DomainId(5)), "domain:5");
  EXPECT_EQ(common::format(FlowId(1)), "flow:1");
  std::ostringstream out;
  out << PopId(3) << ' ' << EpochId(17);
  EXPECT_EQ(out.str(), "pop:3 epoch:17");
}

TEST(ParseIdTest, AcceptsBareAndRenderedForms) {
  EXPECT_EQ(common::parse_id<PopId>("3"), PopId(3));
  EXPECT_EQ(common::parse_id<PopId>("pop:3"), PopId(3));
  EXPECT_EQ(common::parse_id<EpochId>("epoch:17"), EpochId(17));
  EXPECT_EQ(common::parse_id<EpochId>("18446744073709551615"),
            EpochId(~std::uint64_t{0}));
}

TEST(ParseIdTest, RejectsJunkSignsOverflowAndForeignPrefixes) {
  EXPECT_FALSE(common::parse_id<PopId>(""));
  EXPECT_FALSE(common::parse_id<PopId>("pop:"));
  EXPECT_FALSE(common::parse_id<PopId>("pop:x7"));
  EXPECT_FALSE(common::parse_id<PopId>("-1"));
  EXPECT_FALSE(common::parse_id<PopId>("+3"));
  EXPECT_FALSE(common::parse_id<PopId>("3 "));
  EXPECT_FALSE(common::parse_id<PopId>("0x10"));
  EXPECT_FALSE(common::parse_id<PopId>("asn:3"));     // wrong taxonomy word
  EXPECT_FALSE(common::parse_id<PopId>("4294967296"));  // > u32 rep
  EXPECT_FALSE(common::parse_id<EpochId>("18446744073709551616"));  // > u64
  EXPECT_FALSE(common::parse_id<EpochId>("184467440737095516150"));  // 21 digits
}

TEST(ParseScopeTest, GrammarIsExactlyLocalFleetPop) {
  const auto local = common::parse_scope("local");
  ASSERT_TRUE(local);
  EXPECT_EQ(local->kind, common::ScopeName::Kind::kLocal);
  EXPECT_EQ(local->str(), "local");

  const auto fleet = common::parse_scope("fleet");
  ASSERT_TRUE(fleet);
  EXPECT_EQ(fleet->kind, common::ScopeName::Kind::kFleet);
  EXPECT_EQ(fleet->str(), "fleet");

  const auto pop = common::parse_scope("pop:7");
  ASSERT_TRUE(pop);
  EXPECT_EQ(pop->kind, common::ScopeName::Kind::kPop);
  EXPECT_EQ(pop->pop, PopId(7));
  EXPECT_EQ(pop->str(), "pop:7");  // round-trips through str()
  EXPECT_EQ(*common::parse_scope(pop->str()), *pop);

  EXPECT_FALSE(common::parse_scope(""));
  EXPECT_FALSE(common::parse_scope("Local"));
  EXPECT_FALSE(common::parse_scope("pop:"));
  EXPECT_FALSE(common::parse_scope("pop:abc"));
  EXPECT_FALSE(common::parse_scope("pop7"));
  EXPECT_FALSE(common::parse_scope("shard:7"));
}

TEST(InventoryTest, InternHandsOutDenseIdsInOrder) {
  common::DomainInventory inv;
  EXPECT_TRUE(inv.empty());
  const DomainId a = inv.intern("example.com");
  const DomainId b = inv.intern("blocked.example");
  EXPECT_EQ(a, DomainId(0));
  EXPECT_EQ(b, DomainId(1));
  EXPECT_EQ(inv.intern("example.com"), a);  // idempotent
  EXPECT_EQ(inv.size(), 2u);
  EXPECT_EQ(inv.names(), (std::vector<std::string>{"example.com", "blocked.example"}));
}

TEST(InventoryTest, ResolvesBothWaysAndRefusesUnknownIds) {
  common::DomainInventory inv({"a.example", "b.example"});
  EXPECT_EQ(inv.try_id("a.example"), DomainId(0));
  EXPECT_EQ(inv.try_id("missing.example"), std::nullopt);
  EXPECT_EQ(inv.size(), 2u);  // try_id never interns
  EXPECT_EQ(inv.name(DomainId(1)), "b.example");
  EXPECT_EQ(inv.try_name(DomainId(1)), "b.example");
  EXPECT_EQ(inv.try_name(DomainId(2)), std::nullopt);
  EXPECT_THROW((void)inv.name(DomainId(2)), std::out_of_range);
}

TEST(InventoryTest, SortedEnumerationIsIndependentOfInternOrder) {
  common::DomainInventory forward, reverse;
  const std::vector<std::string> names = {"zz.example", "aa.example", "mm.example"};
  for (const auto& n : names) forward.intern(n);
  for (auto it = names.rbegin(); it != names.rend(); ++it) reverse.intern(*it);

  const auto fs = forward.sorted();
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].first, "aa.example");
  EXPECT_EQ(fs[1].first, "mm.example");
  EXPECT_EQ(fs[2].first, "zz.example");
  // Same name order either way; ids differ because intern order differs.
  const auto rs = reverse.sorted();
  for (std::size_t i = 0; i < fs.size(); ++i) EXPECT_EQ(fs[i].first, rs[i].first);
  EXPECT_EQ(fs[2].second, DomainId(0));  // zz interned first going forward
  EXPECT_EQ(rs[2].second, DomainId(2));  // ...and last going in reverse
}

TEST(InventoryTest, CountryInventoryMatchesCountryIndex) {
  const common::CountryInventory& inv = world::country_inventory();
  ASSERT_FALSE(inv.empty());
  for (const auto& [code, id] : inv.sorted()) {
    EXPECT_EQ(static_cast<int>(id.value()), world::country_index(code)) << code;
    EXPECT_EQ(inv.name(id), code);
  }
  EXPECT_EQ(inv.try_id("ZZ"), std::nullopt);
}

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 2'000}, .seed = 0x1d5}};
  return kWorld;
}

void load_pipeline(analysis::Pipeline& pipeline) {
  world::TrafficConfig traffic;
  traffic.seed = 0xabcd;
  world::TrafficGenerator generator(shared_world(), traffic);
  generator.generate(400, [&](world::LabeledConnection&& conn) {
    pipeline.ingest(conn.sample);
  });
}

// The byte-identity contract from common/ids.h: strong ids live at the API
// surface only. The v4 envelope written through PartialHeader's PopId /
// EpochId fields must equal the envelope assembled from raw u32/u64 writes,
// sealed by checksum64 over header and payload.
TEST(ByteIdentityTest, PartialEnvelopeV4MatchesRawFieldEncoding) {
  analysis::Pipeline pipeline(shared_world());
  load_pipeline(pipeline);
  fleet::PartialHeader header;
  header.pop = PopId(7);
  header.epoch = EpochId(465'191);
  header.sequence = 400;
  const std::string image = fleet::encode_partial(header, pipeline);

  common::BinWriter payload;
  pipeline.snapshot(payload);
  common::BinWriter raw;
  for (char c : fleet::kPartialMagic) raw.u8(static_cast<std::uint8_t>(c));
  raw.u32(fleet::kPartialVersion);
  raw.u32(7);        // pop, raw — not PopId
  raw.u64(465'191);  // epoch, raw — not EpochId
  raw.u64(400);      // sequence
  raw.u8(0);         // overload level kNormal
  raw.u64(0);        // shed_samples
  raw.i64(0);        // first_shed_ts_sec
  raw.u64(payload.bytes().size());
  std::string expected(raw.bytes().begin(), raw.bytes().end());
  expected.append(reinterpret_cast<const char*>(payload.bytes().data()),
                  payload.bytes().size());
  common::BinWriter checksum;
  checksum.u64(common::checksum64(reinterpret_cast<const std::uint8_t*>(expected.data()),
                                  expected.size()));
  expected.append(reinterpret_cast<const char*>(checksum.bytes().data()),
                  checksum.bytes().size());

  EXPECT_EQ(image, expected);

  // The v3 -> v4 bump changed the checksum only: the payload between the
  // 57-byte header and the checksum is the v3 envelope's, byte for byte
  // (digest recorded from the v3 encoder).
  const std::string body = image.substr(57, image.size() - 57 - 8);
  EXPECT_EQ(std::make_pair(body.size(),
                           common::fnv1a_bytes(reinterpret_cast<const std::uint8_t*>(body.data()),
                                               body.size())),
            std::make_pair(std::size_t{113951}, std::uint64_t{0xd9153570b9259c8eULL}));

  const fleet::DecodeResult peek = fleet::peek_partial(image);
  ASSERT_TRUE(peek.ok) << peek.error;
  EXPECT_EQ(peek.header.pop, PopId(7));
  EXPECT_EQ(peek.header.epoch, EpochId(465'191));
  EXPECT_EQ(peek.header.sequence, 400u);
}

// Snapshot streams (the payload of both partials and checkpoints) key
// aggregates on AsnId / FlowId now; the map ordering delegates to the raw
// rep, so snapshot -> restore -> snapshot is still byte-stable.
TEST(ByteIdentityTest, SnapshotRoundTripIsByteStableUnderStrongKeys) {
  analysis::Pipeline pipeline(shared_world());
  load_pipeline(pipeline);
  common::BinWriter first;
  pipeline.snapshot(first);

  analysis::Pipeline restored(shared_world());
  common::BinReader reader(first.bytes().data(), first.bytes().size());
  restored.restore(reader);
  EXPECT_TRUE(reader.exhausted());

  common::BinWriter second;
  restored.snapshot(second);
  EXPECT_EQ(first.bytes(), second.bytes());
}

// Pins the state bytes across commits, not just within one build: the
// round-trip, monoid-law and fleet-vs-monolith tests compare two runs of
// the same encoder, so they cannot see an encoding that changed the same
// way on both sides. A deliberate format change must bump the checkpoint
// or partial version and re-pin these digests.
TEST(ByteIdentityTest, StateBytesMatchPinnedDigest) {
  using Digest = std::pair<std::size_t, std::uint64_t>;  // size, fnv1a
  const auto digest = [](const std::uint8_t* data, std::size_t size) {
    return Digest{size, common::fnv1a_bytes(data, size)};
  };
  const auto state_digest = [&](const analysis::Pipeline& p) {
    common::BinWriter w;
    p.snapshot(w);
    return digest(w.bytes().data(), w.bytes().size());
  };

  analysis::Pipeline pipeline(shared_world());
  load_pipeline(pipeline);
  pipeline.sample_trends();
  EXPECT_EQ(state_digest(pipeline),
            (Digest{120194, 0xacb6e9c7aa11fc52ULL}));

  // Two shards with disjoint samples (alternating), merged into a fresh
  // pipeline.
  analysis::Pipeline shards[2] = {analysis::Pipeline(shared_world()),
                                  analysis::Pipeline(shared_world())};
  world::TrafficConfig traffic;
  traffic.seed = 0xabcd;
  world::TrafficGenerator generator(shared_world(), traffic);
  std::size_t n = 0;
  generator.generate(400, [&](world::LabeledConnection&& conn) {
    shards[n++ % 2].ingest(conn.sample);
  });
  analysis::Pipeline merged(shared_world());
  merged.merge_from(shards[0]);
  merged.merge_from(shards[1]);
  EXPECT_EQ(state_digest(merged),
            (Digest{113951, 0xd9153570b9259c8eULL}));

  std::ostringstream json;
  analysis::ReportOptions options;
  options.pretty = false;
  options.include_timeseries = true;
  analysis::write_radar_report(json, pipeline, options);
  const std::string report = json.str();
  EXPECT_EQ(digest(reinterpret_cast<const std::uint8_t*>(report.data()), report.size()),
            (Digest{14739, 0x920effb12dfc9f31ULL}));
}

// The bytes the service and the fleet actually ship, pinned like the state
// bytes above: the pretty Radar report (the service default, and the only
// one that exercises indentation), a whole checkpoint file image and a
// whole partial envelope. The state is cut into three trend epochs and the
// report carries anomaly events, so numbers of every shape are formatted.
TEST(ByteIdentityTest, ShippedBytesMatchPinnedDigest) {
  using Digest = std::pair<std::size_t, std::uint64_t>;  // size, fnv1a
  const auto digest = [](const auto& bytes) {
    const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
    return Digest{bytes.size(), common::fnv1a_bytes(data, bytes.size())};
  };

  analysis::Pipeline pipeline(shared_world());
  world::TrafficConfig traffic;
  traffic.seed = 0x5eed;
  world::TrafficGenerator generator(shared_world(), traffic);
  std::size_t n = 0;
  generator.generate(600, [&](world::LabeledConnection&& conn) {
    pipeline.ingest(conn.sample);
    if (++n % 200 == 0) pipeline.sample_trends();
  });

  const std::vector<obs::AnomalyEvent> anomalies = {
      {"tamper_class_matched_total", "", 465'191, 12.5, 3.0, 4.75},
      {"tamper_class_country_matches_total", "CN\t\"q\"", -1, -0.0, 1e-310, 123456789.0},
  };
  std::ostringstream json;
  analysis::ReportOptions options;  // pretty, daily time series and trends on
  options.trend_anomalies = &anomalies;
  analysis::write_radar_report(json, pipeline, options);
  EXPECT_EQ(digest(json.str()), (Digest{39692, 0xcfc20bb6d58ccce0ULL}));

  const service::CheckpointMeta meta{.samples_ingested = 600, .sequence = 3};
  EXPECT_EQ(digest(service::encode_checkpoint(pipeline, meta)),
            (Digest{169211, 0x74e7274fd876604aULL}));

  fleet::PartialHeader header;
  header.pop = PopId(9);
  header.epoch = EpochId(465'192);
  header.sequence = 600;
  header.overload = {control::Level::kShedding, 17, 1'674'000'123};
  EXPECT_EQ(digest(fleet::encode_partial(header, pipeline)),
            (Digest{169232, 0x49c21a26deff2394ULL}));
}

}  // namespace
}  // namespace tamper

// Fleet suite: anycast routing laws, the partial wire codec, the monoid
// laws every aggregator must obey (associativity / commutativity /
// identity — the reason shard count and arrival order can never change the
// merged bytes), merger idempotence and coverage accounting, fleet-vs-
// monolith equivalence, checkpoint resume with no duplicate and no gap,
// and the >= 50-seed chaos campaigns pinning the two fleet invariants:
// byte-identical output when the surviving coverage set is identical,
// explicit degradation when it is not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "common/ids.h"
#include "capture/sample.h"
#include "control/overload.h"
#include "fault/chaos.h"
#include "fleet/campaign.h"
#include "fleet/fleet.h"
#include "fleet/merger.h"
#include "fleet/partial.h"
#include "net/ip_address.h"
#include "service/checkpoint.h"
#include "world/anycast.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper {
namespace {

namespace fs = std::filesystem;

using common::EpochId;
using common::PopId;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 10'000}, .seed = 0x5e44}};
  return kWorld;
}

/// Samples sorted by observation time, so each PoP's epoch (derived from
/// its latest observed timestamp) advances monotonically.
std::vector<capture::ConnectionSample> generate_samples(std::size_t n,
                                                        std::uint64_t seed = 0xfeed) {
  world::TrafficConfig traffic;
  traffic.seed = seed;
  world::TrafficGenerator generator(shared_world(), traffic);
  std::vector<capture::ConnectionSample> out;
  out.reserve(n);
  generator.generate(n, [&](world::LabeledConnection&& conn) {
    out.push_back(std::move(conn.sample));
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const capture::ConnectionSample& a,
                      const capture::ConnectionSample& b) {
                     return a.observation_end_sec < b.observation_end_sec;
                   });
  return out;
}

/// Unique scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("tamper_fleet_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

/// Canonical byte image of a pipeline's aggregate state (zeroed meta) —
/// the equality relation all monoid-law tests use.
std::vector<std::uint8_t> state_bytes(const analysis::Pipeline& pipeline) {
  return service::encode_checkpoint(pipeline, service::CheckpointMeta{});
}

/// The same image with the trends ring normalized to empty. Fleet-vs-
/// monolith equivalence is about the fold of the sample multiset; ring
/// points are sampled at per-PoP report cadence — a property of the
/// deployment shape, not of the data. Ring merge laws are pinned by the
/// federated-trends tests instead.
std::vector<std::uint8_t> without_trends(const std::vector<std::uint8_t>& image) {
  analysis::Pipeline scratch(shared_world());
  const service::LoadResult load = service::decode_checkpoint(image, scratch);
  EXPECT_TRUE(load.ok) << load.error;
  scratch.set_trends_config(scratch.trends().config());
  return service::encode_checkpoint(scratch, {});
}

// ---------------------------------------------------------------------------
// Anycast routing
// ---------------------------------------------------------------------------

TEST(Anycast, SameSeedRoutesIdentically) {
  const auto samples = generate_samples(300);
  world::AnycastMap a(5, 99), b(5, 99);
  for (const auto& s : samples) EXPECT_EQ(a.route(s.client_ip), b.route(s.client_ip));
}

TEST(Anycast, ClientPrefixIsSticky) {
  world::AnycastMap map(7, 42);
  // Every address in one /16 shares the routing key, hence the PoP.
  const auto base = map.route(net::IpAddress::v4(10, 7, 0, 1));
  ASSERT_TRUE(base.has_value());
  for (std::uint8_t c = 0; c < 200; c += 13)
    for (std::uint8_t d = 1; d < 200; d += 17)
      EXPECT_EQ(map.route(net::IpAddress::v4(10, 7, c, d)), base);
  // A different /16 is allowed to (and with 7 PoPs, some will) go elsewhere.
  std::size_t moved = 0;
  for (int b = 0; b < 50; ++b)
    if (map.route(net::IpAddress::v4(10, static_cast<std::uint8_t>(b + 8), 0, 1)) !=
        base)
      ++moved;
  EXPECT_GT(moved, 0u);
}

TEST(Anycast, FailoverMovesOnlyTheDeadPopsClients) {
  const auto samples = generate_samples(400);
  world::AnycastMap map(4, 7);
  std::vector<std::optional<PopId>> before;
  before.reserve(samples.size());
  for (const auto& s : samples) before.push_back(map.route(s.client_ip));

  map.set_alive(PopId(2), false);
  std::size_t failed_over = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto after = map.route(samples[i].client_ip);
    ASSERT_TRUE(after.has_value());
    if (before[i] == PopId(2)) {
      EXPECT_NE(*after, PopId(2));  // dead PoP's clients moved...
      ++failed_over;
    } else {
      EXPECT_EQ(after, before[i]);  // ...and nobody else did (rendezvous)
    }
  }
  EXPECT_GT(failed_over, 0u);

  // Re-announcing restores the original assignment exactly.
  map.set_alive(PopId(2), true);
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(map.route(samples[i].client_ip), before[i]);
}

TEST(Anycast, FullyWithdrawnFleetObservesNothing) {
  world::AnycastMap map(3, 1);
  for (std::uint32_t pop = 0; pop < 3; ++pop) map.set_alive(PopId(pop), false);
  EXPECT_EQ(map.alive_count(), 0u);
  EXPECT_FALSE(map.route(net::IpAddress::v4(192, 0, 2, 1)).has_value());
}

TEST(Anycast, PrefixKeySeparatesFamilies) {
  // A v4 /16 and a v6 /32 with the same leading bits must not collide.
  const auto v4 = world::AnycastMap::prefix_key(net::IpAddress::v4(32, 1, 13, 184));
  const auto v6 = world::AnycastMap::prefix_key(
      net::IpAddress::v6(0x2001'0db8'0000'0000ULL, 1));
  EXPECT_NE(v4, v6);
}

// ---------------------------------------------------------------------------
// Partial codec
// ---------------------------------------------------------------------------

TEST(Partial, RoundTripsHeaderAndState) {
  const auto samples = generate_samples(150);
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : samples) pipeline.ingest(s);

  fleet::PartialHeader header;
  header.pop = PopId(2);
  header.epoch = EpochId(465'191);
  header.sequence = 150;
  const std::string wire = fleet::encode_partial(header, pipeline);

  const fleet::DecodeResult peek = fleet::peek_partial(wire);
  ASSERT_TRUE(peek.ok) << peek.error;
  EXPECT_EQ(peek.header.pop, PopId(2));
  EXPECT_EQ(peek.header.epoch, EpochId(465'191));
  EXPECT_EQ(peek.header.sequence, 150u);

  analysis::Pipeline restored(shared_world());
  const fleet::DecodeResult full = fleet::decode_partial(wire, restored);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(state_bytes(restored), state_bytes(pipeline));
}

TEST(Partial, CorruptionIsRefusedNeverTrusted) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(40)) pipeline.ingest(s);
  const std::string wire =
      fleet::encode_partial({PopId(1), EpochId(7), 40, {}}, pipeline);

  // Any single flipped payload byte must fail the checksum (the fixed
  // header is 57 bytes: magic + version + pop + epoch + sequence + the
  // overload level, shed count and first-shed time + size).
  std::string flipped = wire;
  flipped[57 + 25] ^= 0x01;
  EXPECT_FALSE(fleet::peek_partial(flipped).ok);

  // Truncation at every interesting boundary is a refusal, not a crash.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                                std::size_t{20}, wire.size() / 2, wire.size() - 1}) {
    analysis::Pipeline scratch(shared_world());
    EXPECT_FALSE(fleet::decode_partial(wire.substr(0, cut), scratch).ok)
        << "cut=" << cut;
  }

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(fleet::peek_partial(bad_magic).ok);

  std::string bad_version = wire;
  bad_version[8] = static_cast<char>(fleet::kPartialVersion + 1);
  EXPECT_FALSE(fleet::peek_partial(bad_version).ok);
}

// The checksum covers the whole image: a flip at any offset, header fields
// included, is refused by the peek and by the full decode alike.
TEST(Partial, BitFlipAtEveryOffsetIsRefused) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(20)) pipeline.ingest(s);
  std::string wire = fleet::encode_partial({PopId(3), EpochId(9), 20, {}}, pipeline);
  analysis::Pipeline scratch(shared_world());
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    const auto flip = static_cast<char>(1u << (offset % 8));
    wire[offset] ^= flip;
    EXPECT_FALSE(fleet::peek_partial(wire).ok) << "peek accepted a flip at " << offset;
    EXPECT_FALSE(fleet::decode_partial(wire, scratch).ok)
        << "decode accepted a flip at " << offset;
    wire[offset] ^= flip;
  }
  EXPECT_TRUE(fleet::decode_partial(wire, scratch).ok);
}

TEST(Partial, V2CarriesOverloadStateInTheEnvelope) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(30)) pipeline.ingest(s);

  fleet::PartialHeader header;
  header.pop = PopId(4);
  header.epoch = EpochId(12);
  header.sequence = 30;
  header.overload.level = control::Level::kEvidenceOnly;
  header.overload.shed_samples = 1234;
  header.overload.first_shed_ts_sec = 41'000;
  const std::string wire = fleet::encode_partial(header, pipeline);

  const fleet::DecodeResult peek = fleet::peek_partial(wire);
  ASSERT_TRUE(peek.ok) << peek.error;
  EXPECT_EQ(peek.header.overload.level, control::Level::kEvidenceOnly);
  EXPECT_EQ(peek.header.overload.shed_samples, 1234u);
  EXPECT_EQ(peek.header.overload.first_shed_ts_sec, 41'000);

  // A v1 envelope (no overload state) is refused like an old checkpoint:
  // partials are operational state, not an archival format.
  std::string v1 = wire;
  v1[8] = 1;
  const auto refused = fleet::peek_partial(v1);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("version"), std::string::npos);

  // The ladder level is range-checked: 5 names no rung.
  // Envelope layout: magic(8) + version(4) + pop(4) + epoch(8) +
  // sequence(8) puts the level byte at offset 32.
  std::string bad_level = wire;
  bad_level[32] = 5;
  EXPECT_FALSE(fleet::peek_partial(bad_level).ok);
}


// ---------------------------------------------------------------------------
// Monoid laws — the algebra that makes the fleet correct by construction
// ---------------------------------------------------------------------------

class MonoidLaws : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto samples = generate_samples(600, 0xabc);
    // Three shards with disjoint sample sets (round-robin split).
    for (std::size_t i = 0; i < samples.size(); ++i)
      shards_[i % 3].push_back(samples[i]);
  }

  std::unique_ptr<analysis::Pipeline> pipeline_of(int shard) const {
    auto p = std::make_unique<analysis::Pipeline>(shared_world());
    for (const auto& s : shards_[shard]) p->ingest(s);
    return p;
  }

  std::vector<capture::ConnectionSample> shards_[3];
};

TEST_F(MonoidLaws, MergeIsCommutative) {
  const auto a = pipeline_of(0), b = pipeline_of(1), c = pipeline_of(2);
  std::vector<std::vector<std::uint8_t>> images;
  for (const auto& order : std::vector<std::vector<const analysis::Pipeline*>>{
           {a.get(), b.get(), c.get()},
           {c.get(), a.get(), b.get()},
           {b.get(), c.get(), a.get()},
           {c.get(), b.get(), a.get()}}) {
    analysis::Pipeline merged(shared_world());
    for (const analysis::Pipeline* p : order) merged.merge_from(*p);
    images.push_back(state_bytes(merged));
  }
  for (std::size_t i = 1; i < images.size(); ++i) EXPECT_EQ(images[0], images[i]);
}

TEST_F(MonoidLaws, MergeIsAssociative) {
  // (A + B) + C == A + (B + C), evaluated as serialized bytes.
  analysis::Pipeline left(shared_world());
  left.merge_from(*pipeline_of(0));
  left.merge_from(*pipeline_of(1));
  left.merge_from(*pipeline_of(2));

  analysis::Pipeline bc(shared_world());
  bc.merge_from(*pipeline_of(1));
  bc.merge_from(*pipeline_of(2));
  analysis::Pipeline right(shared_world());
  right.merge_from(*pipeline_of(0));
  right.merge_from(bc);

  EXPECT_EQ(state_bytes(left), state_bytes(right));
}

TEST_F(MonoidLaws, FreshPipelineIsTheIdentity) {
  const auto a = pipeline_of(0);
  const auto before = state_bytes(*a);

  // Right identity: merging an empty pipeline changes nothing.
  analysis::Pipeline identity(shared_world());
  a->merge_from(identity);
  EXPECT_EQ(state_bytes(*a), before);

  // Left identity: an empty pipeline absorbing A becomes A.
  analysis::Pipeline fresh(shared_world());
  fresh.merge_from(*a);
  EXPECT_EQ(state_bytes(fresh), before);
}

// ---------------------------------------------------------------------------
// Merger: idempotence, straggler classification, coverage
// ---------------------------------------------------------------------------

class MergerTest : public ::testing::Test {
 protected:
  std::string partial(std::uint32_t pop, std::uint64_t epoch, std::uint64_t sequence,
                      std::size_t samples) {
    analysis::Pipeline p(shared_world());
    for (const auto& s : generate_samples(samples, 0x9000 + pop)) p.ingest(s);
    return fleet::encode_partial({PopId(pop), EpochId(epoch), sequence, {}}, p);
  }
};

TEST_F(MergerTest, SheddingPopMarksItsEpochsDegradedNeverSilentlyComplete) {
  fleet::MergerConfig mc;
  mc.pops_expected = 2;
  mc.grace_epochs = 1;
  mc.epoch_length_sec = 3600;
  fleet::Merger merger(shared_world(), mc);

  // PoP 0: healthy. PoP 1: reporting, but admission control began
  // shedding in epoch 10 (first shed at 10h + 5min of capture time).
  EXPECT_TRUE(merger.deliver(partial(0, 11, 200, 60)));
  analysis::Pipeline p1(shared_world());
  for (const auto& s : generate_samples(60, 0x9100)) p1.ingest(s);
  fleet::PartialHeader h1;
  h1.pop = PopId(1);
  h1.epoch = EpochId(11);
  h1.sequence = 180;
  h1.overload.level = control::Level::kEmbryonicShed;
  h1.overload.shed_samples = 20;
  h1.overload.first_shed_ts_sec = 10 * 3600 + 300;
  EXPECT_TRUE(merger.deliver(fleet::encode_partial(h1, p1)));

  const auto c = merger.coverage();
  EXPECT_EQ(c.pops_reporting, 2u);
  EXPECT_TRUE(c.degraded);
  bool saw_shedding_epoch = false;
  for (const auto& e : c.epochs) {
    EXPECT_EQ(e.pops_reporting, 2u);
    if (e.epoch >= EpochId(10)) {
      // Both PoPs reported, but one was shedding: the epoch must say so
      // rather than pass as complete.
      EXPECT_EQ(e.pops_shedding, 1u);
      EXPECT_TRUE(e.degraded());
      saw_shedding_epoch = true;
    } else {
      EXPECT_EQ(e.pops_shedding, 0u);
      EXPECT_FALSE(e.degraded());
    }
  }
  EXPECT_TRUE(saw_shedding_epoch);

  // The merged report names the shed: coverage JSON plus the per-PoP
  // overload state.
  const std::string json = merger.merged_report({.min_country_connections = 0});
  EXPECT_NE(json.find("\"pops_shedding\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("embryonic_shed"), std::string::npos);
}

TEST_F(MergerTest, SheddingCoverageIgnoresArrivalOrder) {
  fleet::MergerConfig mc;
  mc.pops_expected = 2;
  mc.epoch_length_sec = 3600;

  analysis::Pipeline p1(shared_world());
  for (const auto& s : generate_samples(40, 0x9200)) p1.ingest(s);
  fleet::PartialHeader h1{PopId(1), EpochId(9), 40, {}};
  h1.overload.level = control::Level::kShedding;
  h1.overload.shed_samples = 7;
  h1.overload.first_shed_ts_sec = 8 * 3600;
  const std::string shed_wire = fleet::encode_partial(h1, p1);
  const std::string ok_wire = partial(0, 9, 120, 50);

  fleet::Merger forward(shared_world(), mc);
  EXPECT_TRUE(forward.deliver(ok_wire));
  EXPECT_TRUE(forward.deliver(shed_wire));
  fleet::Merger reverse(shared_world(), mc);
  EXPECT_TRUE(reverse.deliver(shed_wire));
  EXPECT_TRUE(reverse.deliver(ok_wire));

  EXPECT_EQ(forward.merged_report({.min_country_connections = 0}),
            reverse.merged_report({.min_country_connections = 0}));
}

TEST_F(MergerTest, ExactReplayIsADuplicate) {
  fleet::Merger merger(shared_world(), {.pops_expected = 2});
  const std::string wire = partial(0, 10, 100, 50);
  EXPECT_TRUE(merger.deliver(wire));
  EXPECT_TRUE(merger.deliver(wire));  // acknowledged, not re-merged
  const auto s = merger.stats();
  EXPECT_EQ(s.received, 2u);
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.duplicates, 1u);
}

TEST_F(MergerTest, OlderSequenceIsStaleNotRegressing) {
  fleet::Merger merger(shared_world(), {.pops_expected = 2});
  EXPECT_TRUE(merger.deliver(partial(0, 10, 100, 50)));
  // A spool replay arriving after fresher cumulative state: superseded.
  EXPECT_TRUE(merger.deliver(partial(0, 9, 60, 30)));
  const auto s = merger.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.stale, 1u);
  // The retained state is still the newer partial.
  const auto coverage = merger.coverage();
  EXPECT_EQ(coverage.pops[0].samples, 100u);
  EXPECT_EQ(coverage.pops[0].last_epoch, EpochId(10));
}

TEST_F(MergerTest, LatePartialIsCountedButStillMerged) {
  fleet::Merger merger(shared_world(),
                       {.pops_expected = 2, .grace_epochs = 1});
  EXPECT_TRUE(merger.deliver(partial(1, 20, 200, 50)));  // watermark -> 19
  EXPECT_TRUE(merger.deliver(partial(0, 10, 100, 50)));  // behind it
  const auto s = merger.stats();
  EXPECT_EQ(s.late, 1u);
  EXPECT_EQ(s.accepted, 2u);  // late data still counts — never dropped
  EXPECT_EQ(merger.coverage().pops[0].samples, 100u);
}

TEST_F(MergerTest, CorruptPartialIsRejectedAndAcknowledged) {
  fleet::Merger merger(shared_world(), {.pops_expected = 1});
  // Acknowledged (true) so the sender's spool is never wedged on bad bytes.
  EXPECT_TRUE(merger.deliver("not a partial"));
  std::string wire = partial(0, 1, 10, 20);
  wire[wire.size() - 3] ^= 0x40;
  EXPECT_TRUE(merger.deliver(wire));
  const auto s = merger.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.accepted, 0u);
}

// A flipped bit in a header field used to pass the payload-only checksum:
// a sequence of 200 read as 288230376151711944 was accepted, and every
// genuine partial from that PoP was dropped as stale after it.
TEST_F(MergerTest, FlippedSequenceBitIsRejectedNotStale) {
  fleet::Merger merger(shared_world(), {.pops_expected = 1});
  EXPECT_TRUE(merger.deliver(partial(0, 10, 100, 40)));
  std::string wire = partial(0, 11, 200, 50);
  // sequence is the u64 at offset 24 (magic 8 + version 4 + pop 4 + epoch 8).
  wire[24 + 7] ^= 0x04;
  EXPECT_TRUE(merger.deliver(wire));
  const std::string genuine = partial(0, 12, 300, 60);
  EXPECT_TRUE(merger.deliver(genuine));
  const auto s = merger.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.stale, 0u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(merger.coverage().pops[0].samples, 300u);
}

TEST_F(MergerTest, BoundedSkewGuardTrips) {
  fleet::Merger merger(shared_world(),
                       {.pops_expected = 3,
                        .grace_epochs = 1,
                        .epoch_length_sec = 1,
                        .max_skew_sec = 3});  // bound = 3 + 1 grace = 4 epochs
  EXPECT_TRUE(merger.deliver(partial(0, 100, 10, 20)));
  EXPECT_TRUE(merger.deliver(partial(1, 101, 10, 20)));
  EXPECT_EQ(merger.stats().skew_detected, 0u);
  // PoP 2's clock is minutes out: 80 epochs from the fleet median.
  EXPECT_TRUE(merger.deliver(partial(2, 180, 10, 20)));
  EXPECT_EQ(merger.stats().skew_detected, 1u);
}

TEST_F(MergerTest, CoverageFlagsSilentAndLaggingPops) {
  fleet::Merger merger(shared_world(),
                       {.pops_expected = 3,
                        .grace_epochs = 1,
                        .heartbeat_timeout_epochs = 3,
                        .coverage_window_epochs = 4});
  EXPECT_TRUE(merger.deliver(partial(0, 20, 300, 60)));
  EXPECT_TRUE(merger.deliver(partial(1, 18, 120, 40)));  // behind watermark 19
  const auto c = merger.coverage();
  EXPECT_EQ(c.pops_expected, 3u);
  EXPECT_EQ(c.pops_reporting, 2u);
  EXPECT_EQ(c.max_epoch, 20u);
  EXPECT_EQ(c.watermark, 19u);
  ASSERT_EQ(c.pops.size(), 3u);
  EXPECT_EQ(c.pops[0].status, "live");
  EXPECT_EQ(c.pops[1].status, "lagging");
  EXPECT_EQ(c.pops[2].status, "silent");
  EXPECT_TRUE(c.degraded);
  // Epoch rows: 18 has both reporters (cumulative partials), 19 only PoP 0,
  // and every row is missing the silent PoP.
  ASSERT_EQ(c.epochs.size(), 4u);
  EXPECT_EQ(c.epochs[2].epoch, EpochId(18));
  EXPECT_EQ(c.epochs[2].pops_reporting, 2u);
  EXPECT_EQ(c.epochs[3].epoch, EpochId(19));
  EXPECT_EQ(c.epochs[3].pops_reporting, 1u);
  for (const auto& e : c.epochs) EXPECT_TRUE(e.degraded());
}

TEST_F(MergerTest, DeadPopIsDeclaredAfterHeartbeatTimeout) {
  fleet::Merger merger(shared_world(),
                       {.pops_expected = 2,
                        .grace_epochs = 1,
                        .heartbeat_timeout_epochs = 3});
  EXPECT_TRUE(merger.deliver(partial(0, 30, 500, 60)));
  EXPECT_TRUE(merger.deliver(partial(1, 26, 200, 40)));  // 4 epochs behind
  const auto c = merger.coverage();
  EXPECT_EQ(c.pops[0].status, "live");
  EXPECT_EQ(c.pops[1].status, "dead");
}

TEST_F(MergerTest, MergedReportCarriesTheFleetSection) {
  fleet::Merger merger(shared_world(), {.pops_expected = 2});
  EXPECT_TRUE(merger.deliver(partial(0, 5, 100, 50)));
  const std::string json = merger.merged_report();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"pops_expected\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"pops_reporting\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"silent\""), std::string::npos);
}

TEST_F(MergerTest, MergedBytesIgnoreArrivalOrder) {
  const std::string p0 = partial(0, 8, 100, 60);
  const std::string p1 = partial(1, 8, 90, 50);
  const std::string p2 = partial(2, 9, 110, 70);
  fleet::MergerConfig config{.pops_expected = 3};

  fleet::Merger forward(shared_world(), config);
  EXPECT_TRUE(forward.deliver(p0));
  EXPECT_TRUE(forward.deliver(p1));
  EXPECT_TRUE(forward.deliver(p2));

  fleet::Merger backward(shared_world(), config);
  EXPECT_TRUE(backward.deliver(p2));
  EXPECT_TRUE(backward.deliver(p1));
  EXPECT_TRUE(backward.deliver(p0));
  EXPECT_TRUE(backward.deliver(p1));  // plus a replay for good measure

  EXPECT_EQ(forward.merged_state_image(), backward.merged_state_image());
  EXPECT_EQ(forward.merged_report(), backward.merged_report());
}

// ---------------------------------------------------------------------------
// Federated trends: the merged epoch ring obeys the same monoid laws as
// the scalar aggregates, so the `tamper-timeseries/1` dump is a pure
// function of the partial set — arrival order, replays, and checkpoint
// round trips can never change a byte.
// ---------------------------------------------------------------------------

/// A partial whose pipeline carries a populated trends ring: samples are
/// ingested in observation order with periodic sample_trends() calls, the
/// way the service worker rolls up at checkpoint/report boundaries.
std::string trends_partial(std::uint32_t pop, std::uint64_t epoch,
                           std::uint64_t sequence, std::size_t samples,
                           std::uint64_t seed) {
  analysis::Pipeline p(shared_world());
  std::size_t ingested = 0;
  for (const auto& s : generate_samples(samples, seed)) {
    p.ingest(s);
    if (++ingested % 50 == 0) p.sample_trends();
  }
  p.sample_trends();
  return fleet::encode_partial({PopId(pop), EpochId(epoch), sequence, {}}, p);
}

TEST_F(MergerTest, TimeseriesDumpIgnoresArrivalOrderAndReplays) {
  const std::string p0 = trends_partial(0, 8, 200, 180, 0xa000);
  const std::string p1 = trends_partial(1, 8, 190, 160, 0xa001);
  const std::string p2 = trends_partial(2, 9, 210, 200, 0xa002);
  fleet::MergerConfig config{.pops_expected = 3};

  fleet::Merger forward(shared_world(), config);
  EXPECT_TRUE(forward.deliver(p0));
  EXPECT_TRUE(forward.deliver(p1));
  EXPECT_TRUE(forward.deliver(p2));

  fleet::Merger shuffled(shared_world(), config);
  EXPECT_TRUE(shuffled.deliver(p2));
  EXPECT_TRUE(shuffled.deliver(p0));
  EXPECT_TRUE(shuffled.deliver(p1));
  EXPECT_TRUE(shuffled.deliver(p0));  // replay: idempotent on (pop, epoch, seq)
  EXPECT_EQ(shuffled.stats().duplicates, 1u);

  const std::string dump = forward.timeseries_dump();
  EXPECT_EQ(dump, shuffled.timeseries_dump());
  EXPECT_EQ(forward.merged_report(), shuffled.merged_report());

  // The dump carries the fleet scope plus one scope per reporting PoP.
  EXPECT_NE(dump.find("tamper-timeseries/1"), std::string::npos);
  EXPECT_NE(dump.find("\"fleet\""), std::string::npos);
  EXPECT_NE(dump.find("\"pop:0\""), std::string::npos);
  EXPECT_NE(dump.find("\"pop:1\""), std::string::npos);
  EXPECT_NE(dump.find("\"pop:2\""), std::string::npos);

  // And the fleet-scope trends view is populated, identically, on both.
  const fleet::Merger::FleetTrends a = forward.fleet_trends();
  const fleet::Merger::FleetTrends b = shuffled.fleet_trends();
  EXPECT_FALSE(a.epochs.empty());
  EXPECT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_EQ(a.scan.points_scanned, b.scan.points_scanned);
  EXPECT_EQ(a.scan.events.size(), b.scan.events.size());
}

TEST_F(MergerTest, TrendsRingSurvivesTheCheckpointRoundTripByteStably) {
  // A pipeline with a non-empty ring: save -> restore -> save must be
  // byte-identical, and the restored ring must serve the same series.
  analysis::Pipeline pipeline(shared_world());
  std::size_t ingested = 0;
  for (const auto& s : generate_samples(300, 0xa100)) {
    pipeline.ingest(s);
    if (++ingested % 50 == 0) pipeline.sample_trends();
  }
  pipeline.sample_trends();
  ASSERT_FALSE(pipeline.trends().series().empty());

  const auto first = state_bytes(pipeline);
  analysis::Pipeline restored(shared_world());
  const service::LoadResult load = service::decode_checkpoint(first, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(state_bytes(restored), first);
  EXPECT_EQ(restored.trends().series().size(), pipeline.trends().series().size());
  EXPECT_EQ(restored.trends().max_epoch(), pipeline.trends().max_epoch());
}

// ---------------------------------------------------------------------------
// Fleet end-to-end
// ---------------------------------------------------------------------------

fleet::FleetConfig fleet_config(const ScratchDir& scratch, std::uint32_t pops = 3) {
  fleet::FleetConfig fc;
  fc.pops = pops;
  fc.seed = 11;
  fc.state_dir = (scratch.path / "fleet").string();
  fc.report_every_samples = 200;
  fc.checkpoint_every_samples = 100;
  return fc;
}

TEST(Fleet, MergedFleetEqualsMonolith) {
  // Below the evidence per-bucket cap (1000): the cap is per-vantage, so a
  // monolith that truncated where shards did not would legitimately differ.
  const auto samples = generate_samples(800);
  analysis::Pipeline monolith(shared_world());
  for (const auto& s : samples) monolith.ingest(s);

  ScratchDir scratch("monolith");
  fleet::Fleet fleet(shared_world(), fleet_config(scratch));
  for (const auto& s : samples) EXPECT_TRUE(fleet.submit(s).has_value());
  fleet.stop();

  // Sharding by anycast must be invisible in the merged aggregate bytes
  // (the trends ring is sampled at per-PoP cadence, so it is normalized).
  EXPECT_EQ(without_trends(fleet.merger().merged_state_image()),
            without_trends(state_bytes(monolith)));
  const auto c = fleet.merger().coverage();
  EXPECT_EQ(c.pops_reporting, c.pops_expected);
  EXPECT_FALSE(c.degraded);
  std::uint64_t merged_samples = 0;
  for (const auto& pop : c.pops) merged_samples += pop.samples;
  EXPECT_EQ(merged_samples, samples.size());
}

TEST(Fleet, ResumeFromCheckpointHasNoDuplicateAndNoGap) {
  const auto samples = generate_samples(800);

  ScratchDir baseline_dir("resume_baseline");
  fleet::Fleet baseline(shared_world(), fleet_config(baseline_dir));
  for (const auto& s : samples) baseline.submit(s);
  baseline.stop();

  ScratchDir chaos_dir("resume_chaos");
  fleet::Fleet fleet(shared_world(), fleet_config(chaos_dir));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == samples.size() / 3) {
      // kill -9 mid-epoch, past at least one checkpoint, then restart: the
      // PoP resumes from its checkpoint and re-feeds the dropped tail.
      fleet.kill_pop(PopId(1));
      ASSERT_TRUE(fleet.restart_pop(PopId(1)));
    }
    fleet.submit(samples[i]);
  }
  fleet.stop();

  // No gap and no duplicate: per-PoP cumulative sequences add up to exactly
  // the fed stream, and the merged bytes match the undisturbed run.
  std::uint64_t merged_samples = 0;
  for (const auto& pop : fleet.merger().coverage().pops) merged_samples += pop.samples;
  EXPECT_EQ(merged_samples, samples.size());
  EXPECT_EQ(fleet.merger().merged_state_image(), baseline.merger().merged_state_image());
  EXPECT_FALSE(fleet.merger().coverage().degraded);
}

TEST(Fleet, PartitionSpoolsAndHealsWithoutLoss) {
  const auto samples = generate_samples(600);

  ScratchDir baseline_dir("partition_baseline");
  fleet::Fleet baseline(shared_world(), fleet_config(baseline_dir));
  for (const auto& s : samples) baseline.submit(s);
  baseline.stop();

  ScratchDir chaos_dir("partition_chaos");
  fleet::Fleet fleet(shared_world(), fleet_config(chaos_dir));
  fleet.set_pop_partitioned(PopId(0), true);  // cut PoP 0 <-> merger at start
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == (2 * samples.size()) / 3) fleet.set_pop_partitioned(PopId(0), false);
    fleet.submit(samples[i]);
  }
  fleet.stop();

  EXPECT_EQ(fleet.merger().merged_state_image(), baseline.merger().merged_state_image());
  // The partial emitted inside the partition window spooled, then replayed.
  EXPECT_GT(fleet.merger().stats().received, 0u);
}

TEST(Fleet, PerPopMetricsSurviveRestart) {
  const auto samples = generate_samples(400);
  ScratchDir scratch("metrics");
  fleet::Fleet fleet(shared_world(), fleet_config(scratch));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == samples.size() / 2) {
      fleet.kill_pop(PopId(0));
      ASSERT_TRUE(fleet.restart_pop(PopId(0)));
    }
    fleet.submit(samples[i]);
  }
  const auto summaries = fleet.stop();
  ASSERT_EQ(summaries.size(), 3u);
  // The registry is owned by the fleet, not the service: the rebuilt PoP
  // kept appending to the same metric families without re-registration.
  const std::string prom = fleet.pop_metrics(PopId(0)).prometheus_text();
  EXPECT_NE(prom.find("tamper_reports_emitted_total"), std::string::npos);
  EXPECT_NE(prom.find("tamper_emitter_delivered_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chaos campaigns (>= 50 seeds across the two modes)
// ---------------------------------------------------------------------------

fleet::CampaignOptions campaign_options(std::uint64_t seed, const ScratchDir& scratch,
                                        fleet::CampaignMode mode) {
  fleet::CampaignOptions options;
  options.seed = seed;
  options.pops = 3;
  options.mode = mode;
  options.state_dir = (scratch.path / ("c" + std::to_string(seed))).string();
  options.report_every_samples = 120;
  options.checkpoint_every_samples = 60;
  return options;
}

TEST(FleetCampaign, DeliveryChaosNeverChangesTheMergedBytes) {
  // Crashes with resume, partitions that heal, stragglers, spool replays
  // and skewed clocks: the surviving coverage set is the full fleet, so the
  // merged aggregate image must be byte-identical to the chaos-free run.
  const auto samples = generate_samples(700);
  ScratchDir scratch("delivery_chaos");
  fleet::CampaignEvents total;
  std::uint64_t absorbed = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto baseline_options =
        campaign_options(seed, scratch, fleet::CampaignMode::kDeliveryChaos);
    baseline_options.state_dir += "-baseline";
    const auto baseline = run_campaign(shared_world(), samples, baseline_options);

    auto chaos_options =
        campaign_options(seed, scratch, fleet::CampaignMode::kDeliveryChaos);
    chaos_options.chaos.fleet.pop_crash_probability = 0.6;
    chaos_options.chaos.fleet.partition_probability = 0.35;
    chaos_options.chaos.fleet.straggler_probability = 0.25;
    chaos_options.chaos.fleet.skew_probability = 0.4;
    chaos_options.chaos.fleet.max_skew_sec = 7200;
    const auto result = run_campaign(shared_world(), samples, chaos_options);

    EXPECT_EQ(result.merged_image, baseline.merged_image) << "seed=" << seed;
    EXPECT_EQ(result.events.restarts, result.events.kills) << "seed=" << seed;
    // Epoch-level coverage may shift when a clock is skewed — that is the
    // guard doing its job (the skewed PoP's epoch tags stray), and the
    // bytes above prove no data was actually lost. Without skew the entire
    // report — aggregates AND the fleet coverage section — must match the
    // chaos-free run (a routing seed can make one PoP's clients go quiet
    // early, but then the baseline shows the very same coverage).
    if (result.events.skewed_pops == 0) {
      EXPECT_EQ(result.merged_json, baseline.merged_json) << "seed=" << seed;
    }
    total.kills += result.events.kills;
    total.restarts += result.events.restarts;
    total.partition_windows += result.events.partition_windows;
    total.straggler_windows += result.events.straggler_windows;
    total.skewed_pops += result.events.skewed_pops;
    absorbed += result.merger_stats.duplicates + result.merger_stats.stale;
  }
  // The campaign set must actually have exercised every chaos class.
  EXPECT_GT(total.kills, 0u);
  EXPECT_GT(total.partition_windows, 0u);
  EXPECT_GT(total.straggler_windows, 0u);
  EXPECT_GT(total.skewed_pops, 0u);
  EXPECT_GT(absorbed, 0u);  // idempotence did real work, not vacuous truth
}

TEST(FleetCampaign, PopLossIsExplicitlyDegradedNeverSilentlyWrong) {
  const auto samples = generate_samples(700);
  ScratchDir scratch("pop_loss");
  std::uint64_t total_kills = 0, degraded_runs = 0;
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    auto baseline_options =
        campaign_options(seed, scratch, fleet::CampaignMode::kPopLoss);
    baseline_options.state_dir += "-baseline";
    const auto baseline = run_campaign(shared_world(), samples, baseline_options);

    auto loss_options = campaign_options(seed, scratch, fleet::CampaignMode::kPopLoss);
    // Large report interval: a killed PoP dies before its first partial, so
    // the loss is visible as a silent PoP, not merely a short tail.
    loss_options.report_every_samples = 100'000;
    loss_options.chaos.fleet.pop_crash_probability = 0.5;
    const auto result = run_campaign(shared_world(), samples, loss_options);

    total_kills += result.events.kills;
    if (result.events.kills == 0) {
      EXPECT_FALSE(result.coverage.degraded) << "seed=" << seed;
      continue;
    }
    // Data died with the PoP — and the output says so instead of passing
    // itself off as the full fleet.
    EXPECT_EQ(result.events.withdrawals, result.events.kills) << "seed=" << seed;
    EXPECT_LT(result.coverage.pops_reporting, result.coverage.pops_expected)
        << "seed=" << seed;
    EXPECT_TRUE(result.coverage.degraded) << "seed=" << seed;
    EXPECT_NE(result.merged_image, baseline.merged_image) << "seed=" << seed;
    EXPECT_NE(result.merged_json.find("\"degraded\": true"), std::string::npos)
        << "seed=" << seed;
    ++degraded_runs;
  }
  // With p=0.5 over 3 PoPs x 20 seeds, a chaos drought means a seeding bug.
  EXPECT_GE(total_kills, 5u);
  EXPECT_GE(degraded_runs, 5u);
}

}  // namespace
}  // namespace tamper

// Supervised-service suite: bounded-queue backpressure, checkpoint
// round-trips (byte-stable, version-skewed, truncated at every offset),
// report-sink retry/spool behaviour, and chaos campaigns proving the
// service-level contract — kill at any point loses at most one checkpoint
// interval and never corrupts aggregate state.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "common/bounded_queue.h"
#include "fault/chaos.h"
#include "obs/metrics.h"
#include "service/checkpoint.h"
#include "service/shutdown.h"
#include "service/sink.h"
#include "service/supervisor.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper {
namespace {

namespace fs = std::filesystem;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 10'000}, .seed = 0x5e44}};
  return kWorld;
}

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
  return out;
}

/// Unique scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("tamper_service_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
  fs::path path;
};

/// A checkpoint image with the trends ring normalized to empty. The
/// stitched-vs-uninterrupted contract is about the fold of the sample
/// multiset; ring points are sampled at checkpoint/report cadence, which a
/// plain golden pipeline does not share. Ring durability has its own tests
/// (obs suite + fleet round-trip).
std::vector<std::uint8_t> without_trends(const std::vector<std::uint8_t>& image) {
  analysis::Pipeline scratch(shared_world());
  const service::LoadResult load = service::decode_checkpoint(image, scratch);
  EXPECT_TRUE(load.ok) << load.error;
  scratch.set_trends_config(scratch.trends().config());
  return service::encode_checkpoint(scratch, {});
}

// ---------------------------------------------------------------- queue --

TEST(BoundedQueue, BlockPolicyDeliversEverythingInOrder) {
  common::BoundedQueue<int> q(4, common::QueuePolicy::kBlock);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  // Hold off popping until the producer is blocked on a full queue, so the
  // push_waits assertion below is deterministic.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  int expect = 0;
  std::deque<int> batch;
  while (q.pop_batch(batch, std::chrono::seconds(1)) > 0) {
    for (const int item : batch) EXPECT_EQ(item, expect++);
    batch.clear();
  }
  producer.join();
  EXPECT_EQ(expect, 100);
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushed, 100u);
  EXPECT_EQ(stats.popped, 100u);
  EXPECT_EQ(stats.shed_total(), 0u);
  // Capacity 4 with a never-popping consumer at first: some pushes waited.
  EXPECT_GT(stats.push_waits, 0u);
}

TEST(BoundedQueue, PopBatchMovesAtMostTheLimitInOrder) {
  using Queue = common::BoundedQueue<int>;
  constexpr int kTotal = static_cast<int>(Queue::kMaxBatch) + 10;
  Queue q(2 * Queue::kMaxBatch, common::QueuePolicy::kBlock);
  for (int i = 0; i < kTotal; ++i) ASSERT_TRUE(q.push(i));

  std::deque<int> out{-1};  // pop_batch appends; what the caller held stays
  EXPECT_EQ(q.pop_batch(out, std::chrono::seconds(0)), Queue::kMaxBatch);
  EXPECT_EQ(q.stats().popped, Queue::kMaxBatch);
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.pop_batch(out, std::chrono::seconds(0), 3), 3u);
  EXPECT_EQ(q.pop_batch(out, std::chrono::seconds(0), 5 * Queue::kMaxBatch), 7u);
  EXPECT_EQ(q.pop_batch(out, std::chrono::milliseconds(1)), 0u);  // empty: timeout

  ASSERT_EQ(out.size(), static_cast<std::size_t>(kTotal) + 1);
  for (int i = -1; i < kTotal; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i + 1)], i);
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.popped, stats.pushed);
}

TEST(BoundedQueue, BlockedProducersAllResumeAfterADrain) {
  // Four producers block on a full queue before the consumer pops anything.
  // The consumer then drains in batches; each crossing of the wake watermark
  // must wake every blocked producer, or a producer that pushes its last few
  // items leaves the others asleep beside an empty queue.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1001;  // not a multiple of the capacity
  common::BoundedQueue<int> q(16, common::QueuePolicy::kBlock);
  std::atomic<int> finished{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &finished, p] {
      for (int i = 0; i < kPerProducer; ++i)
        if (!q.push(p * kPerProducer + i)) break;
      finished.fetch_add(1);
    });
  }
  // With nobody popping, each producer's push_wait is one blocked producer.
  const auto bound = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (q.stats().push_waits < kProducers && std::chrono::steady_clock::now() < bound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(q.stats().push_waits, static_cast<std::uint64_t>(kProducers));

  std::vector<int> next(kProducers, 0);  // per-producer FIFO cursor
  std::size_t received = 0;
  std::deque<int> batch;
  while (received < kProducers * kPerProducer && std::chrono::steady_clock::now() < bound) {
    q.pop_batch(batch, std::chrono::milliseconds(20));
    for (const int item : batch) {
      const int p = item / kPerProducer;
      ASSERT_GE(p, 0);
      ASSERT_LT(p, kProducers);
      EXPECT_EQ(item % kPerProducer, next[static_cast<std::size_t>(p)]++)
          << "producer " << p << " out of order or duplicated";
    }
    received += batch.size();
    batch.clear();
  }
  while (finished.load() < kProducers && std::chrono::steady_clock::now() < bound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int stuck = kProducers - finished.load();
  q.close();  // frees a stuck producer so the joins below return either way
  for (auto& t : producers) t.join();

  EXPECT_EQ(stuck, 0) << "producers left blocked after the drain";
  EXPECT_EQ(received, static_cast<std::size_t>(kProducers * kPerProducer));
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushed, stats.popped);
  EXPECT_EQ(stats.pushed, static_cast<std::uint64_t>(kProducers * kPerProducer));
}

TEST(BoundedQueue, ClosedQueueRejectsPushAndDrains) {
  common::BoundedQueue<int> q(4, common::QueuePolicy::kBlock);
  ASSERT_TRUE(q.push(1));
  q.close();
  EXPECT_FALSE(q.push(2));
  auto item = q.try_pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 1);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, ShedPolicyPrefersLowValueItems) {
  // Low-value = negative numbers; the queue should sacrifice them first.
  common::BoundedQueue<int> q(3, common::QueuePolicy::kShed,
                              [](const int& v) { return v < 0; });
  ASSERT_TRUE(q.push(-1));
  ASSERT_TRUE(q.push(10));
  ASSERT_TRUE(q.push(11));
  ASSERT_TRUE(q.push(12));  // full: sheds the queued -1
  const auto stats = q.stats();
  EXPECT_EQ(stats.shed_low_value, 1u);
  EXPECT_EQ(stats.shed_other, 0u);
  std::vector<int> drained;
  while (auto item = q.try_pop()) drained.push_back(*item);
  EXPECT_EQ(drained, (std::vector<int>{10, 11, 12}));
}

TEST(BoundedQueue, ShedPolicyDropsLowValueIncoming) {
  common::BoundedQueue<int> q(2, common::QueuePolicy::kShed,
                              [](const int& v) { return v < 0; });
  ASSERT_TRUE(q.push(10));
  ASSERT_TRUE(q.push(11));
  ASSERT_TRUE(q.push(-5));  // full, incoming itself low-value: dropped
  EXPECT_EQ(q.stats().shed_low_value, 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, ShedPolicyFallsBackToOldest) {
  common::BoundedQueue<int> q(2, common::QueuePolicy::kShed,
                              [](const int& v) { return v < 0; });
  ASSERT_TRUE(q.push(10));
  ASSERT_TRUE(q.push(11));
  ASSERT_TRUE(q.push(12));  // nothing low-value: oldest (10) goes
  EXPECT_EQ(q.stats().shed_other, 1u);
  std::vector<int> drained;
  while (auto item = q.try_pop()) drained.push_back(*item);
  EXPECT_EQ(drained, (std::vector<int>{11, 12}));
}

// -------------------------------------------- idempotent stat recording --

TEST(PipelineStats, RecordingSameSnapshotTwiceCountsOnce) {
  analysis::Pipeline pipeline(shared_world());
  net::PcapReader::Stats rs;
  rs.skipped_unparseable = 7;
  rs.skipped_oversize = 3;
  rs.skipped_truncated = 2;
  pipeline.record_reader_stats(rs);
  pipeline.record_reader_stats(rs);  // periodic re-poll of the same source
  pipeline.record_reader_stats(rs);
  EXPECT_EQ(pipeline.degraded().unparseable_frames, 7u);
  EXPECT_EQ(pipeline.degraded().oversize_frames, 3u);
  EXPECT_EQ(pipeline.degraded().truncated_frames, 2u);

  capture::ConnectionSampler::Stats ss;
  ss.packets_malformed = 5;
  ss.flows_evicted_overload = 4;
  pipeline.record_sampler_stats(ss);
  pipeline.record_sampler_stats(ss);
  EXPECT_EQ(pipeline.degraded().malformed_packets, 5u);
  EXPECT_EQ(pipeline.degraded().overload_evicted, 4u);
}

TEST(PipelineStats, RecordingAddsOnlyTheDelta) {
  analysis::Pipeline pipeline(shared_world());
  net::PcapReader::Stats rs;
  rs.skipped_unparseable = 10;
  pipeline.record_reader_stats(rs);
  rs.skipped_unparseable = 25;  // source progressed
  pipeline.record_reader_stats(rs);
  EXPECT_EQ(pipeline.degraded().unparseable_frames, 25u);
}

TEST(PipelineStats, BackwardsCounterMeansFreshSource) {
  analysis::Pipeline pipeline(shared_world());
  net::PcapReader::Stats rs;
  rs.skipped_unparseable = 10;
  pipeline.record_reader_stats(rs);
  rs.skipped_unparseable = 4;  // a new reader started from zero
  pipeline.record_reader_stats(rs);
  EXPECT_EQ(pipeline.degraded().unparseable_frames, 14u);
}

TEST(PipelineStats, QueueShedsLandInDegradedStats) {
  analysis::Pipeline pipeline(shared_world());
  common::BoundedQueueStats qs;
  qs.shed_low_value = 6;
  qs.shed_other = 2;
  pipeline.record_queue_stats(qs);
  pipeline.record_queue_stats(qs);
  EXPECT_EQ(pipeline.degraded().queue_shed_embryonic, 6u);
  EXPECT_EQ(pipeline.degraded().queue_shed_other, 2u);
  EXPECT_GE(pipeline.degraded().total(), 8u);
}

// ----------------------------------------------------------- checkpoint --

TEST(Checkpoint, SaveRestoreSaveIsByteStable) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(2000)) pipeline.ingest(s);
  service::CheckpointMeta meta;
  meta.samples_ingested = 2000;
  meta.sequence = 3;

  const auto first = service::encode_checkpoint(pipeline, meta);
  analysis::Pipeline restored(shared_world());
  const auto load = service::decode_checkpoint(first, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.meta.samples_ingested, 2000u);
  EXPECT_EQ(load.meta.sequence, 3u);
  const auto second = service::encode_checkpoint(restored, meta);
  EXPECT_EQ(first, second);  // golden: serialization is a pure state image
}

TEST(Checkpoint, RestoredPipelineMatchesUninterruptedRun) {
  const auto samples = generate_samples(3000);
  analysis::Pipeline uninterrupted(shared_world());
  for (const auto& s : samples) uninterrupted.ingest(s);

  // Same stream, but checkpointed + restored halfway through.
  analysis::Pipeline first_half(shared_world());
  for (std::size_t i = 0; i < 1500; ++i) first_half.ingest(samples[i]);
  const auto image = service::encode_checkpoint(first_half, {});
  analysis::Pipeline resumed(shared_world());
  ASSERT_TRUE(service::decode_checkpoint(image, resumed).ok);
  for (std::size_t i = 1500; i < samples.size(); ++i) resumed.ingest(samples[i]);

  const auto full = service::encode_checkpoint(uninterrupted, {});
  const auto stitched = service::encode_checkpoint(resumed, {});
  EXPECT_EQ(full, stitched);
  EXPECT_EQ(resumed.signatures().total_connections(),
            uninterrupted.signatures().total_connections());
}

TEST(Checkpoint, FutureVersionIsCleanlyRefused) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(50)) pipeline.ingest(s);
  auto image = service::encode_checkpoint(pipeline, {});
  image[8] = static_cast<std::uint8_t>(service::kCheckpointVersion + 1);  // LE u32 at offset 8
  analysis::Pipeline target(shared_world());
  const auto load = service::decode_checkpoint(image, target);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("version"), std::string::npos) << load.error;
}

TEST(Checkpoint, BadMagicIsCleanlyRefused) {
  analysis::Pipeline pipeline(shared_world());
  auto image = service::encode_checkpoint(pipeline, {});
  image[0] ^= 0xff;
  analysis::Pipeline target(shared_world());
  EXPECT_FALSE(service::decode_checkpoint(image, target).ok);
}

TEST(Checkpoint, TruncationAtEveryOffsetIsCleanlyRefused) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(40)) pipeline.ingest(s);
  const auto image = service::encode_checkpoint(pipeline, {});
  ASSERT_GT(image.size(), 28u);
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    const auto broken = fault::truncated_prefix(image, keep);
    analysis::Pipeline target(shared_world());
    const auto load = service::decode_checkpoint(broken, target);
    EXPECT_FALSE(load.ok) << "accepted a checkpoint truncated to " << keep << " bytes";
    EXPECT_FALSE(load.error.empty());
  }
  analysis::Pipeline target(shared_world());
  EXPECT_TRUE(service::decode_checkpoint(image, target).ok);  // intact still loads
}

TEST(Checkpoint, BitFlipsAreCleanlyRefused) {
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(40)) pipeline.ingest(s);
  auto image = service::encode_checkpoint(pipeline, {});
  // A flip at every offset, magic, version, size and checksum included:
  // the checksum covers the whole image, so each one is refused before the
  // restore writes anything.
  analysis::Pipeline target(shared_world());
  for (std::size_t offset = 0; offset < image.size(); ++offset) {
    image[offset] ^= 0x40;
    EXPECT_FALSE(service::decode_checkpoint(image, target).ok)
        << "accepted a bit-flip at offset " << offset;
    image[offset] ^= 0x40;
  }
  EXPECT_TRUE(service::decode_checkpoint(image, target).ok);
}

TEST(Checkpoint, MissingFileReportsNoCheckpoint) {
  ScratchDir dir("missing");
  analysis::Pipeline pipeline(shared_world());
  const auto load = service::load_checkpoint(dir.file("absent.ckpt"), pipeline);
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(load.error.rfind("no checkpoint", 0), 0u) << load.error;
}

TEST(Checkpoint, UnreadablePathReportsReadError) {
  // A directory opens as a stream but is no checkpoint file.
  ScratchDir dir("unreadable");
  analysis::Pipeline pipeline(shared_world());
  const auto load = service::load_checkpoint(dir.path.string(), pipeline);
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(load.error.rfind("read error", 0), 0u) << load.error;
}

TEST(Checkpoint, SaveLoadRoundTripsThroughDisk) {
  ScratchDir dir("roundtrip");
  analysis::Pipeline pipeline(shared_world());
  for (const auto& s : generate_samples(500)) pipeline.ingest(s);
  service::CheckpointMeta meta;
  meta.samples_ingested = 500;
  ASSERT_EQ(service::save_checkpoint(dir.file("state.ckpt"), pipeline, meta), "");
  analysis::Pipeline restored(shared_world());
  const auto load = service::load_checkpoint(dir.file("state.ckpt"), restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.meta.samples_ingested, 500u);
  EXPECT_EQ(service::encode_checkpoint(restored, meta),
            service::encode_checkpoint(pipeline, meta));
}

// ------------------------------------------------------------ sink/emit --

TEST(ReportEmitter, RetriesWithBackoffUntilDelivery) {
  service::MemorySink sink;
  int failures_left = 2;
  sink.fail_next = [&] { return failures_left-- > 0; };
  std::vector<double> delays;
  service::ReportEmitter emitter(sink, {}, /*spool_dir=*/"", /*seed=*/7,
                                 [&](double s) { delays.push_back(s); });
  EXPECT_TRUE(emitter.emit("payload"));
  EXPECT_EQ(sink.delivered().size(), 1u);
  EXPECT_EQ(emitter.stats().retries, 2u);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_GT(delays[1], delays[0]);  // exponential growth despite jitter
}

TEST(ReportEmitter, ExhaustedRetriesSpoolThenReplay) {
  ScratchDir dir("spool");
  service::MemorySink sink;
  bool down = true;
  sink.fail_next = [&] { return down; };
  service::ReportEmitter emitter(sink, {}, dir.file("spool"), 7, [](double) {});
  EXPECT_FALSE(emitter.emit("report-a"));
  EXPECT_FALSE(emitter.emit("report-b"));
  EXPECT_EQ(emitter.spool_depth(), 2u);
  EXPECT_EQ(emitter.stats().spooled, 2u);

  down = false;  // sink recovers; the next emit also replays the backlog
  EXPECT_TRUE(emitter.emit("report-c"));
  EXPECT_EQ(emitter.spool_depth(), 0u);
  EXPECT_EQ(emitter.stats().spool_replayed, 2u);
  ASSERT_EQ(sink.delivered().size(), 3u);
  EXPECT_EQ(sink.delivered()[0], "report-c");
  EXPECT_EQ(sink.delivered()[1], "report-a");  // replay is oldest-first
  EXPECT_EQ(sink.delivered()[2], "report-b");
}

TEST(ReportEmitter, SpoolSurvivesEmitterRestart) {
  ScratchDir dir("spool_restart");
  service::MemorySink sink;
  bool down = true;
  sink.fail_next = [&] { return down; };
  {
    service::ReportEmitter first(sink, {}, dir.file("spool"), 7, [](double) {});
    EXPECT_FALSE(first.emit("from-run-one"));
  }
  down = false;
  service::ReportEmitter second(sink, {}, dir.file("spool"), 8, [](double) {});
  EXPECT_EQ(second.spool_depth(), 1u);
  EXPECT_TRUE(second.emit("from-run-two"));
  ASSERT_EQ(sink.delivered().size(), 2u);
  EXPECT_EQ(sink.delivered()[1], "from-run-one");
}

TEST(ReportEmitter, SpoolReplayOrderIsNumericNotLexical) {
  ScratchDir dir("spool_order");
  const std::string spool = dir.file("spool");
  fs::create_directories(spool);
  // A foreign (or overflowed-width) spool feeds unpadded names, where the
  // lexical order would replay 10 before 2.
  std::ofstream(spool + "/report-10") << "ten";
  std::ofstream(spool + "/report-2") << "two";

  service::MemorySink sink;
  service::ReportEmitter emitter(sink, {}, spool, 7, [](double) {});
  EXPECT_TRUE(emitter.emit("fresh"));
  ASSERT_EQ(sink.delivered().size(), 3u);
  EXPECT_EQ(sink.delivered()[1], "two");  // oldest sequence first
  EXPECT_EQ(sink.delivered()[2], "ten");
  // And the resumed sequence counter starts past the highest replayed one.
  sink.fail_next = [] { return true; };
  EXPECT_FALSE(emitter.emit("doomed"));
  EXPECT_TRUE(fs::exists(spool + "/report-000000000011"));
}

TEST(ReportEmitter, UnreadableSpoolEntryIsCountedAndQuarantined) {
  ScratchDir dir("spool_bad");
  const std::string spool = dir.file("spool");
  fs::create_directories(spool);
  // A directory wearing a spool-entry name can never be read as a report —
  // the replay must count the loss and quarantine it rather than silently
  // skipping it (or stalling on it) forever.
  fs::create_directories(spool + "/report-000000000003");
  std::ofstream(spool + "/report-000000000007") << "survivor";

  service::MemorySink sink;
  service::ReportEmitter emitter(sink, {}, spool, 7, [](double) {});
  EXPECT_TRUE(emitter.emit("fresh"));

  EXPECT_EQ(emitter.stats().spool_replay_failures, 1u);
  EXPECT_FALSE(fs::exists(spool + "/report-000000000003"));
  EXPECT_TRUE(fs::exists(spool + "/bad-report-000000000003"));
  // The poisoned entry did not block the rest of the backlog.
  ASSERT_EQ(sink.delivered().size(), 2u);
  EXPECT_EQ(sink.delivered()[1], "survivor");
  EXPECT_EQ(emitter.spool_depth(), 0u);
}

TEST(ReportEmitter, LeftoverTempEntryIsDroppedNotReplayed) {
  ScratchDir dir("spool_tmp");
  const std::string spool = dir.file("spool");
  fs::create_directories(spool);
  // A process that died mid-write left its temp entry behind.
  const std::string garbage("\x00\xff\x13torn", 7);
  std::ofstream(spool + "/tmp-report-000000000004", std::ios::binary) << garbage;
  std::ofstream(spool + "/report-000000000002") << "whole";

  service::MemorySink sink;
  service::ReportEmitter emitter(sink, {}, spool, 7, [](double) {});
  EXPECT_FALSE(fs::exists(spool + "/tmp-report-000000000004"));
  // One written while this emitter runs is not a report either.
  std::ofstream(spool + "/tmp-report-000000000005", std::ios::binary) << garbage;
  EXPECT_EQ(emitter.spool_depth(), 1u);

  EXPECT_TRUE(emitter.emit("fresh"));
  ASSERT_EQ(sink.delivered().size(), 2u);
  EXPECT_EQ(sink.delivered()[1], "whole");
  EXPECT_EQ(emitter.stats().spool_replayed, 1u);
  EXPECT_EQ(emitter.stats().spool_replay_failures, 0u);
  EXPECT_EQ(emitter.spool_depth(), 0u);
}

TEST(ReportEmitter, FailedSpoolWriteLeavesNoTornEntry) {
  ScratchDir dir("spool_torn");
  service::MemorySink sink;
  bool down = true;
  sink.fail_next = [&] { return down; };
  service::ReportEmitter emitter(sink, {}, dir.file("spool"), 7, [](double) {});

  // Cap this process's file size below the payload so the spool write fails
  // partway through. With SIGXFSZ ignored the write returns EFBIG instead of
  // killing the process; both are restored before any assertion.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = std::min<rlim_t>(4096, saved.rlim_max);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const bool capped_ok = setrlimit(RLIMIT_FSIZE, &capped) == 0;
  const bool delivered = emitter.emit(std::string(64 * 1024, 'x'));
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(capped_ok);

  EXPECT_FALSE(delivered);
  EXPECT_EQ(emitter.stats().lost, 1u);
  EXPECT_EQ(emitter.stats().spooled, 0u);
  EXPECT_EQ(emitter.spool_depth(), 0u) << "a torn report was left in the spool";

  // The sink recovers: only the new report goes out, nothing is replayed.
  down = false;
  EXPECT_TRUE(emitter.emit("after"));
  ASSERT_EQ(sink.delivered().size(), 1u);
  EXPECT_EQ(sink.delivered()[0], "after");
  EXPECT_EQ(emitter.stats().spool_replayed, 0u);
}

TEST(PipelineStats, SinkReplayFailuresLandInDegradedStats) {
  analysis::Pipeline pipeline(shared_world());
  pipeline.record_sink_stats(3, 7);
  EXPECT_EQ(pipeline.degraded().spool_replay_failures, 3u);
  pipeline.record_sink_stats(3, 7);  // same snapshot twice counts once
  EXPECT_EQ(pipeline.degraded().spool_replay_failures, 3u);
  EXPECT_EQ(pipeline.degraded().spool_dropped, 7u);
  pipeline.record_sink_stats(5, 7);  // only the delta is added
  EXPECT_EQ(pipeline.degraded().spool_replay_failures, 5u);
  EXPECT_EQ(pipeline.degraded().spool_dropped, 7u);
  EXPECT_GE(pipeline.degraded().total(), 12u);

  std::ostringstream out;
  analysis::write_radar_report(out, pipeline);
  EXPECT_NE(out.str().find("\"spool_replay_failures\": 5"), std::string::npos);
}

TEST(ReportEmitter, NoSpoolDirMeansAccountedLoss) {
  service::MemorySink sink;
  sink.fail_next = [] { return true; };
  service::ReportEmitter emitter(sink, {}, "", 7, [](double) {});
  EXPECT_FALSE(emitter.emit("doomed"));
  EXPECT_EQ(emitter.stats().lost, 1u);
}

TEST(FileSink, WritesAtomically) {
  ScratchDir dir("filesink");
  service::FileSink sink(dir.file("report.json"));
  EXPECT_TRUE(sink.deliver("{\"v\":1}"));
  EXPECT_TRUE(sink.deliver("{\"v\":2}"));
  std::ifstream in(dir.file("report.json"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"v\":2}");
  EXPECT_FALSE(fs::exists(dir.file("report.json") + ".tmp"));
}

// ------------------------------------------------------------ supervisor --

service::ServiceConfig fast_config() {
  service::ServiceConfig cfg;
  cfg.queue_capacity = 256;
  cfg.checkpoint_every_samples = 0;
  cfg.watchdog_poll = std::chrono::milliseconds(2);
  cfg.stall_timeout = std::chrono::milliseconds(200);
  cfg.pop_timeout = std::chrono::milliseconds(5);
  return cfg;
}

TEST(SupervisedService, GracefulRunIngestsEverything) {
  const auto samples = generate_samples(1000);
  analysis::Pipeline reference(shared_world());
  for (const auto& s : samples) reference.ingest(s);

  service::SupervisedService svc(shared_world(), fast_config(), nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  EXPECT_EQ(summary.ingested, samples.size());
  EXPECT_EQ(summary.worker_crashes, 0u);
  EXPECT_FALSE(summary.failed);
  // The streamed pipeline must match a direct synchronous run exactly
  // (degraded zero-packet samples and all).
  EXPECT_EQ(svc.pipeline().signatures().total_connections(),
            reference.signatures().total_connections());
  EXPECT_EQ(service::encode_checkpoint(svc.pipeline(), {}),
            service::encode_checkpoint(reference, {}));
}

TEST(SupervisedService, InjectedCrashesAreRestartedWithoutSampleLoss) {
  const auto samples = generate_samples(800);
  auto cfg = fast_config();
  std::atomic<int> crashes{0};
  cfg.ingest_hook = [&](std::uint64_t tick) {
    if (tick == 100 || tick == 300 || tick == 500) {
      crashes.fetch_add(1);
      throw fault::InjectedCrash{};
    }
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  EXPECT_EQ(crashes.load(), 3);
  EXPECT_EQ(summary.worker_crashes, 3u);
  EXPECT_EQ(summary.worker_restarts, 3u);
  EXPECT_EQ(summary.ingested, samples.size());  // the hook fires pre-pop
  EXPECT_FALSE(summary.failed);
}

/// Holds the worker at its first tick until `ready` is set, so the first
/// batch the worker drains holds every sample submitted before that.
void wait_until_ready(const std::atomic<bool>& ready) {
  const auto bound = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready.load() && std::chrono::steady_clock::now() < bound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/// Samples the worker has drained from the queue but not yet ingested.
double held_in_inbox(obs::Registry& metrics) {
  double popped = 0.0;
  double ingested = 0.0;
  metrics.refresh();
  EXPECT_TRUE(metrics.read_family_total("tamper_queue_popped_total", &popped));
  EXPECT_TRUE(metrics.read_family_total("tamper_ingest_samples_total", &ingested));
  return popped - ingested;
}

TEST(SupervisedService, CrashInsideADrainedBatchLosesNoSample) {
  const auto samples = generate_samples(800);
  analysis::Pipeline reference(shared_world());
  for (const auto& s : samples) reference.ingest(s);

  obs::Registry metrics;
  auto cfg = fast_config();
  cfg.queue_capacity = 1024;  // every sample fits: no submit blocks
  cfg.metrics = &metrics;
  std::atomic<bool> ready{false};
  std::atomic<double> held_at_crash{0.0};
  cfg.ingest_hook = [&](std::uint64_t tick) {
    if (tick == 0) wait_until_ready(ready);
    if (tick == 100) {
      held_at_crash.store(held_in_inbox(metrics));
      throw fault::InjectedCrash{};
    }
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  ready.store(true);
  const auto summary = svc.stop();

  // The first drain took a full batch, so the crash hit mid-batch.
  EXPECT_EQ(held_at_crash.load(),
            static_cast<double>(common::BoundedQueue<int>::kMaxBatch - 100));
  EXPECT_EQ(summary.worker_crashes, 1u);
  EXPECT_EQ(summary.worker_restarts, 1u);
  EXPECT_EQ(summary.ingested, samples.size());
  EXPECT_EQ(summary.queue.popped, samples.size());
  EXPECT_EQ(service::encode_checkpoint(svc.pipeline(), {}),
            service::encode_checkpoint(reference, {}));
}

TEST(SupervisedService, StallWithWorkOnlyInTheInboxIsDetected) {
  const auto samples = generate_samples(50);  // fewer than one batch
  obs::Registry metrics;
  auto cfg = fast_config();
  cfg.stall_timeout = std::chrono::milliseconds(50);
  cfg.metrics = &metrics;
  std::atomic<bool> ready{false};
  std::atomic<double> queued_at_stall{-1.0};
  std::atomic<double> held_at_stall{0.0};
  cfg.ingest_hook = [&](std::uint64_t tick) {
    if (tick == 0) wait_until_ready(ready);
    if (tick == 10) {
      double queued = -1.0;
      metrics.refresh();
      EXPECT_TRUE(metrics.read_family_total("tamper_queue_depth", &queued));
      held_at_stall.store(held_in_inbox(metrics));
      queued_at_stall.store(queued - held_at_stall.load());
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  ready.store(true);
  const auto summary = svc.stop();

  EXPECT_EQ(queued_at_stall.load(), 0.0) << "the queue was not empty at the stall";
  EXPECT_EQ(held_at_stall.load(), 40.0);
  EXPECT_GE(summary.stalls_detected, 1u);
  EXPECT_EQ(summary.ingested, samples.size());
  EXPECT_FALSE(summary.failed);
}

TEST(SupervisedService, RestartBudgetExhaustionFailsCleanly) {
  auto cfg = fast_config();
  cfg.max_worker_restarts = 2;
  cfg.ingest_hook = [](std::uint64_t) { throw fault::InjectedCrash{}; };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!svc.failed() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(svc.failed());
  EXPECT_FALSE(svc.submit(capture::ConnectionSample{}));  // queue is closed
  const auto summary = svc.stop();
  EXPECT_TRUE(summary.failed);
  EXPECT_NE(summary.failure.find("restart budget"), std::string::npos);
  EXPECT_EQ(summary.worker_restarts, 2u);
}

TEST(SupervisedService, StallIsDetectedAndRecovered) {
  const auto samples = generate_samples(300);
  auto cfg = fast_config();
  cfg.stall_timeout = std::chrono::milliseconds(50);
  std::atomic<bool> stalled_once{false};
  cfg.ingest_hook = [&](std::uint64_t tick) {
    if (tick == 20 && !stalled_once.exchange(true))
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  EXPECT_GE(summary.stalls_detected, 1u);
  EXPECT_EQ(summary.ingested, samples.size());
  EXPECT_FALSE(summary.failed);
}

TEST(SupervisedService, ShedPolicyAccountsDropsInDegradedStats) {
  const auto samples = generate_samples(600);
  auto cfg = fast_config();
  cfg.queue_capacity = 4;
  cfg.queue_policy = common::QueuePolicy::kShed;
  cfg.ingest_hook = [](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  };
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  ASSERT_TRUE(svc.start());
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();
  ASSERT_GT(summary.queue.shed_total(), 0u) << "campaign produced no sheds";
  EXPECT_EQ(svc.pipeline().degraded().queue_shed_embryonic +
                svc.pipeline().degraded().queue_shed_other,
            summary.queue.shed_total());
  EXPECT_EQ(summary.ingested + summary.queue.shed_total(), samples.size());
}

TEST(SupervisedService, KillAtAnyPointLosesAtMostOneInterval) {
  constexpr std::uint64_t kInterval = 250;
  const auto samples = generate_samples(2000);

  analysis::Pipeline uninterrupted(shared_world());
  for (const auto& s : samples) uninterrupted.ingest(s);
  const auto golden = service::encode_checkpoint(uninterrupted, {});

  for (const std::size_t kill_after : {260u, 777u, 1499u}) {
    ScratchDir dir("kill_" + std::to_string(kill_after));
    auto cfg = fast_config();
    cfg.checkpoint_path = dir.file("state.ckpt");
    cfg.checkpoint_every_samples = kInterval;

    service::SupervisedService first(shared_world(), cfg, nullptr);
    ASSERT_TRUE(first.start(service::SupervisedService::Resume::kFresh));
    for (std::size_t i = 0; i < kill_after; ++i) ASSERT_TRUE(first.submit(samples[i]));
    // Let the worker make some progress, then yank the floor out.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto killed = first.kill();

    service::SupervisedService second(shared_world(), cfg, nullptr);
    ASSERT_TRUE(second.start());
    const auto resumed_from = second.stop().restored_samples;

    // The durability contract: everything up to the last checkpoint
    // interval boundary before the kill survived.
    EXPECT_LE(killed.ingested - resumed_from, kInterval + cfg.queue_capacity);
    EXPECT_EQ(resumed_from % kInterval, 0u);
    EXPECT_LE(resumed_from, killed.ingested);

    // Re-feed exactly the samples the checkpoint had not yet covered; the
    // stitched state must be byte-identical to the uninterrupted run.
    service::SupervisedService third(shared_world(), cfg, nullptr);
    ASSERT_TRUE(third.start());
    for (std::size_t i = resumed_from; i < samples.size(); ++i)
      ASSERT_TRUE(third.submit(samples[i]));
    const auto final_summary = third.stop();
    EXPECT_EQ(final_summary.ingested, samples.size());
    // Aggregate state modulo the trends ring: the golden pipeline never
    // crossed a checkpoint boundary, so it sampled no ring points.
    EXPECT_EQ(without_trends(service::encode_checkpoint(third.pipeline(), {})),
              without_trends(golden));
  }
}

TEST(SupervisedService, CorruptCheckpointRefusesToStart) {
  ScratchDir dir("corrupt_start");
  auto cfg = fast_config();
  cfg.checkpoint_path = dir.file("state.ckpt");
  cfg.checkpoint_every_samples = 100;
  {
    service::SupervisedService svc(shared_world(), cfg, nullptr);
    ASSERT_TRUE(svc.start());
    for (const auto& s : generate_samples(300)) ASSERT_TRUE(svc.submit(s));
    svc.stop();
  }
  // Truncate the file in place (the no-atomic-rename disaster).
  {
    std::ifstream in(cfg.checkpoint_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(cfg.checkpoint_path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  service::SupervisedService refused(shared_world(), cfg, nullptr);
  EXPECT_FALSE(refused.start());  // corruption must never be silently dropped
  EXPECT_FALSE(refused.error().empty());
  service::SupervisedService fresh(shared_world(), cfg, nullptr);
  EXPECT_TRUE(fresh.start(service::SupervisedService::Resume::kFresh));
  fresh.stop();
}

TEST(SupervisedService, RequireResumeRefusesWithoutCheckpoint) {
  ScratchDir dir("require");
  auto cfg = fast_config();
  cfg.checkpoint_path = dir.file("absent.ckpt");
  service::SupervisedService svc(shared_world(), cfg, nullptr);
  EXPECT_FALSE(svc.start(service::SupervisedService::Resume::kRequire));
}

TEST(SupervisedService, ChaosCampaignNeverCorruptsState) {
  // The headline campaign: seeded crashes + stalls + sink outages +
  // checkpoint write failures, all at once, and the service still ingests
  // every sample with consistent accounting.
  const auto samples = generate_samples(1500);
  ScratchDir dir("chaos");

  fault::ChaosSchedule::Config chaos_cfg;
  chaos_cfg.crash_probability = 0.003;
  chaos_cfg.stall_probability = 0.001;
  chaos_cfg.stall_seconds = 0.02;
  chaos_cfg.sink_failure_probability = 0.3;
  chaos_cfg.sink_outage_length = 2;
  chaos_cfg.checkpoint_failure_probability = 0.25;
  fault::ChaosSchedule chaos(0xbad5eed, chaos_cfg);

  service::MemorySink sink;
  sink.fail_next = [&] { return chaos.sink_should_fail(); };
  service::RetryPolicy retry;
  retry.max_attempts = 2;
  service::ReportEmitter emitter(sink, retry, dir.file("spool"), 1, [](double) {});

  auto cfg = fast_config();
  cfg.checkpoint_path = dir.file("state.ckpt");
  cfg.checkpoint_every_samples = 200;
  cfg.report_every_samples = 300;
  cfg.max_worker_restarts = 64;
  cfg.ingest_hook = [&](std::uint64_t tick) { chaos.ingest_tick(tick); };
  cfg.checkpoint_fault_hook = [&] { return chaos.checkpoint_should_fail(); };

  service::SupervisedService svc(shared_world(), cfg, &emitter);
  ASSERT_TRUE(svc.start(service::SupervisedService::Resume::kFresh));
  for (const auto& s : samples) ASSERT_TRUE(svc.submit(s));
  const auto summary = svc.stop();

  analysis::Pipeline reference(shared_world());
  for (const auto& s : samples) reference.ingest(s);

  EXPECT_FALSE(summary.failed) << summary.failure;
  EXPECT_EQ(summary.ingested, samples.size());
  EXPECT_EQ(svc.pipeline().signatures().total_connections(),
            reference.signatures().total_connections());
  EXPECT_GT(summary.worker_crashes, 0u) << "campaign too tame: no crashes injected";
  EXPECT_EQ(summary.worker_crashes, chaos.stats().crashes_injected);
  EXPECT_GT(summary.checkpoint_failures, 0u);

  // Whatever the chaos did, the on-disk checkpoint must still be loadable
  // and internally consistent.
  analysis::Pipeline restored(shared_world());
  const auto load = service::load_checkpoint(cfg.checkpoint_path, restored);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_LE(load.meta.samples_ingested, samples.size());

  // Report accounting: every emit ended as delivered, spooled, or lost.
  const auto& es = emitter.stats();
  EXPECT_EQ(summary.reports_emitted, es.reports);
  EXPECT_EQ(es.reports, (es.delivered - es.spool_replayed) + es.spooled + es.lost);
}

// ------------------------------------------------------- shutdown guard --

TEST(ShutdownGuard, FirstSignalRequestsDrainAndInstallRearms) {
  service::ShutdownGuard::install();
  EXPECT_FALSE(service::ShutdownGuard::requested());
  EXPECT_EQ(service::ShutdownGuard::pending(), 0);

  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(service::ShutdownGuard::requested());
  EXPECT_EQ(service::ShutdownGuard::pending(), SIGTERM);
  EXPECT_EQ(service::ShutdownGuard::exit_code(), 128 + SIGTERM);

  // install() is the re-arm: a fresh first strike, no stale state.
  service::ShutdownGuard::install();
  EXPECT_FALSE(service::ShutdownGuard::requested());
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(ShutdownGuardDeathTest, SecondSignalForceExitsWith128PlusSig) {
  // Regression for `tamperscope watch`: a second SIGINT during the drain
  // must not wait for the drain — it force-exits with the conventional
  // fatal-signal code (128 + SIGINT = 130), destructors be damned.
  EXPECT_EXIT(
      {
        service::ShutdownGuard::install();
        std::raise(SIGINT);  // first strike: recorded, handler returns
        std::raise(SIGINT);  // second strike: _Exit(130)
        std::_Exit(0);       // unreachable if the guard works
      },
      ::testing::ExitedWithCode(128 + SIGINT), "");
}

TEST(ShutdownGuardDeathTest, SecondStrikeKeepsTheFirstSignalsDrainSemantics) {
  // SIGTERM then SIGINT: the drain was requested by SIGTERM, but the
  // impatient second strike exits with ITS OWN signal's code.
  EXPECT_EXIT(
      {
        service::ShutdownGuard::install();
        std::raise(SIGTERM);
        if (service::ShutdownGuard::pending() != SIGTERM) std::_Exit(99);
        std::raise(SIGINT);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(128 + SIGINT), "");
}

}  // namespace
}  // namespace tamper

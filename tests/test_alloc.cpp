// Allocation budget of the pcap path. This binary replaces the global
// operator new with a counting one, so it holds only these tests: the read
// and sample loop must not allocate for every frame, and the lenient
// reader's resync must not allocate for every corrupt record it skips. The
// replacement forwards to malloc, so it also runs under ASan, whose malloc
// hooks see every allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "capture/sampler.h"
#include "fault/corruptor.h"
#include "net/pcap.h"
#include "world/traffic.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tamper {
namespace {

/// Counts global operator new calls while alive.
class AllocationCount {
 public:
  AllocationCount() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~AllocationCount() { g_counting.store(false); }
  [[nodiscard]] std::uint64_t stop() {
    g_counting.store(false);
    return g_allocations.load();
  }
};

/// The inbound frames of `flows` generated connections, in timestamp order.
std::vector<net::Packet> generated_frames(std::size_t flows) {
  static const world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0xa110c;
  traffic.keep_raw_inbound = true;
  world::TrafficGenerator generator(world, traffic);
  std::vector<net::Packet> packets;
  generator.generate(flows, [&](world::LabeledConnection&& conn) {
    for (auto& pkt : conn.raw_inbound) packets.push_back(std::move(pkt));
  });
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return packets;
}

std::string to_pcap(std::span<const net::Packet> frames) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  for (const auto& pkt : frames) writer.write(pkt);
  return std::move(out).str();
}

TEST(Allocations, ReadAndSampleAllocateLessThanOncePerFrame) {
  const auto packets = generated_frames(2000);
  const std::uint64_t frames = packets.size();
  std::istringstream in(to_pcap(packets), std::ios::binary);
  net::PcapReader reader(in, net::PcapReadMode::kLenient);
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  capture::ConnectionSampler sampler(config);
  std::size_t surfaced = 0;

  AllocationCount count;
  double next_drain = -1.0;
  double last_ts = 0.0;
  while (auto pkt = reader.next()) {
    const double ts = pkt->timestamp;
    if (next_drain < 0.0) next_drain = ts + 30.0;
    while (ts >= next_drain) {
      surfaced += sampler.drain_idle(next_drain).size();
      next_drain += 30.0;
    }
    sampler.on_packet(*pkt, ts);
    last_ts = std::max(last_ts, ts);
  }
  surfaced += sampler.flush_all(last_ts + 60.0).size();
  const std::uint64_t allocations = count.stop();

  std::printf("frames %llu, flows %zu, allocations %llu\n",
              static_cast<unsigned long long>(frames), surfaced,
              static_cast<unsigned long long>(allocations));
  ASSERT_EQ(reader.frames_read(), frames);
  EXPECT_EQ(surfaced, 2000u);
  EXPECT_LT(allocations, frames);
}

TEST(Allocations, ResyncDoesNotAllocatePerSkip) {
  // The corruptor places an absurd incl_len only before the first record it
  // cannot walk past, so one call yields a handful. Corrupt 40 slices of the
  // capture one record each and splice their records back together.
  const auto packets = generated_frames(2000);
  fault::PcapCorruptor::Config only_lengths;
  only_lengths.mutations = 1;
  only_lengths.weight_truncate_global_header = 0.0;
  only_lengths.weight_truncate_tail = 0.0;
  only_lengths.weight_flip_bytes = 0.0;
  only_lengths.weight_insert_garbage = 0.0;
  constexpr std::size_t kSlices = 40;
  constexpr std::ptrdiff_t kGlobalHeader = 24;
  std::string bytes;
  for (std::size_t i = 0; i < kSlices; ++i) {
    const std::size_t lo = packets.size() * i / kSlices;
    const std::size_t hi = packets.size() * (i + 1) / kSlices;
    const std::string slice = to_pcap({packets.data() + lo, hi - lo});
    fault::PcapCorruptor corruptor(i, only_lengths);
    const auto corrupted = corruptor.corrupt({slice.begin(), slice.end()});
    bytes.append(corrupted.begin() + (i == 0 ? 0 : kGlobalHeader), corrupted.end());
  }
  std::istringstream in(bytes, std::ios::binary);
  net::PcapReader reader(in, net::PcapReadMode::kLenient);

  AllocationCount count;
  std::uint64_t read = 0;
  while (reader.next()) ++read;
  const std::uint64_t allocations = count.stop();

  const auto& stats = reader.stats();
  std::printf("skipped_oversize %llu, resyncs %llu, frames %llu, allocations %llu\n",
              static_cast<unsigned long long>(stats.skipped_oversize),
              static_cast<unsigned long long>(stats.resyncs),
              static_cast<unsigned long long>(read),
              static_cast<unsigned long long>(allocations));
  ASSERT_GE(stats.skipped_oversize, 20u);
  EXPECT_EQ(stats.resyncs, stats.skipped_oversize);
  // One growth of the reused buffer to the resync window, at most.
  EXPECT_LE(allocations, 1u);
}

}  // namespace
}  // namespace tamper

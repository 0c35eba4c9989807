// Pins the bytes the pcap path produces, end to end: capture bytes →
// PcapReader → ConnectionSampler (with a drain_idle cadence) → Pipeline →
// Radar JSON and checkpoint image, plus the reader's and sampler's
// counters. A change to the reader, the sampler or the ordering must
// reproduce them unchanged. Three inputs: a LINKTYPE_RAW capture, the same
// frames behind Ethernet headers, and a corrupted copy read in lenient mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "capture/sampler.h"
#include "common/binio.h"
#include "fault/corruptor.h"
#include "net/pcap.h"
#include "service/checkpoint.h"
#include "world/traffic.h"

namespace tamper {
namespace {

constexpr std::size_t kFlows = 3000;
constexpr double kDrainEverySec = 30.0;

const world::World& shared_world() {
  static const world::World world;
  return world;
}

/// Every generated inbound frame, in capture (timestamp) order.
std::vector<net::Packet> capture_frames() {
  world::TrafficConfig traffic;
  traffic.seed = 0x9ca95;
  traffic.keep_raw_inbound = true;
  world::TrafficGenerator generator(shared_world(), traffic);
  std::vector<net::Packet> frames;
  generator.generate(kFlows, [&](world::LabeledConnection&& conn) {
    for (auto& pkt : conn.raw_inbound) frames.push_back(std::move(pkt));
  });
  std::stable_sort(frames.begin(), frames.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return frames;
}

std::string raw_capture(const std::vector<net::Packet>& frames) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  for (const auto& pkt : frames) writer.write(pkt);
  return std::move(out).str();
}

std::string ethernet_capture(const std::vector<net::Packet>& frames) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out, net::kLinktypeEthernet);
  for (const auto& pkt : frames) {
    std::vector<std::uint8_t> frame(14, 0x02);
    frame[12] = pkt.src.is_v4() ? 0x08 : 0x86;
    frame[13] = pkt.src.is_v4() ? 0x00 : 0xdd;
    const auto ip = net::serialize(pkt);
    frame.insert(frame.end(), ip.begin(), ip.end());
    writer.write_raw(pkt.timestamp, frame);
  }
  return std::move(out).str();
}

using Digest = std::pair<std::size_t, std::uint64_t>;  // size, fnv1a

Digest digest_of(const std::uint8_t* data, std::size_t size) {
  return {size, common::fnv1a_bytes(data, size)};
}

struct PathOutput {
  Digest report;
  Digest checkpoint;
  std::vector<std::uint64_t> reader;   ///< every PcapReader::Stats field
  std::vector<std::uint64_t> sampler;  ///< every ConnectionSampler::Stats field
};

PathOutput run_path(const std::string& bytes, net::PcapReadMode mode) {
  std::istringstream in(bytes, std::ios::binary);
  net::PcapReader reader(in, mode);
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  capture::ConnectionSampler sampler(config);
  analysis::Pipeline pipeline(shared_world());
  const auto ingest = [&](std::vector<capture::ConnectionSample>&& closed) {
    for (const auto& s : closed) pipeline.ingest(s);
  };
  bool first = true;
  double next_drain = 0.0;
  double last_ts = 0.0;
  while (true) {
    auto pkt = reader.next();
    if (!pkt) break;
    const double ts = pkt->timestamp;
    if (first) {
      next_drain = ts + kDrainEverySec;
      first = false;
    }
    while (ts >= next_drain) {
      ingest(sampler.drain_idle(next_drain));
      next_drain += kDrainEverySec;
    }
    sampler.on_packet(*pkt, ts);
    last_ts = std::max(last_ts, ts);
  }
  ingest(sampler.flush_all(last_ts + 60.0));
  pipeline.record_reader_stats(reader.stats());
  pipeline.record_sampler_stats(sampler.stats());
  pipeline.sample_trends();

  PathOutput out;
  std::ostringstream json;
  analysis::ReportOptions options;
  options.pretty = false;
  options.min_country_connections = 10;
  analysis::write_radar_report(json, pipeline, options);
  const std::string report = json.str();
  out.report =
      digest_of(reinterpret_cast<const std::uint8_t*>(report.data()), report.size());
  const auto image = service::encode_checkpoint(pipeline, {});
  out.checkpoint = digest_of(image.data(), image.size());
  const auto& r = reader.stats();
  out.reader = {r.frames_read,      r.skipped_unparseable, r.skipped_oversize,
                r.skipped_truncated, r.resyncs,            r.resync_failures};
  const auto& s = sampler.stats();
  out.sampler = {s.packets_seen,        s.packets_scrubbed,   s.connections_seen,
                 s.connections_sampled, s.packets_malformed, s.flows_evicted_overload};
  return out;
}

TEST(PcapPath, OutputBytesPinned) {
  const auto frames = capture_frames();
  const std::string raw = raw_capture(frames);
  const bool has_v6 = std::any_of(frames.begin(), frames.end(),
                                  [](const net::Packet& p) { return !p.src.is_v4(); });
  ASSERT_TRUE(has_v6);

  const PathOutput from_raw = run_path(raw, net::PcapReadMode::kStrict);
  const PathOutput from_ethernet =
      run_path(ethernet_capture(frames), net::PcapReadMode::kStrict);
  fault::PcapCorruptor::Config corrupt;
  corrupt.mutations = 24;
  // Keep the file readable to its end, so the corruptions land mid-stream.
  corrupt.weight_truncate_global_header = 0.0;
  corrupt.weight_truncate_tail = 0.0;
  fault::PcapCorruptor corruptor(0xbadcab1e, corrupt);
  const auto corrupted = corruptor.corrupt({raw.begin(), raw.end()});
  const PathOutput from_corrupt = run_path(
      std::string(corrupted.begin(), corrupted.end()), net::PcapReadMode::kLenient);

  EXPECT_EQ(from_raw.report, (Digest{74304, 0x612feb2a58e38104ULL}));
  EXPECT_EQ(from_raw.checkpoint, (Digest{616030, 0xd12a613d4c502256ULL}));
  EXPECT_EQ(from_raw.reader, (std::vector<std::uint64_t>{20949, 0, 0, 0, 0, 0}));
  EXPECT_EQ(from_raw.sampler, (std::vector<std::uint64_t>{20949, 0, 3000, 3000, 0, 0}));

  // The Ethernet framing changes nothing the pipeline sees.
  EXPECT_EQ(from_ethernet.report, from_raw.report);
  EXPECT_EQ(from_ethernet.checkpoint, from_raw.checkpoint);
  EXPECT_EQ(from_ethernet.reader, from_raw.reader);
  EXPECT_EQ(from_ethernet.sampler, from_raw.sampler);

  EXPECT_EQ(from_corrupt.report, (Digest{74336, 0x843b1000cb6f3b3bULL}));
  EXPECT_EQ(from_corrupt.checkpoint, (Digest{615382, 0x37a4ced0d7cfcd79ULL}));
  EXPECT_EQ(from_corrupt.reader, (std::vector<std::uint64_t>{20942, 7, 15, 0, 15, 0}));
  EXPECT_EQ(from_corrupt.sampler, (std::vector<std::uint64_t>{20935, 0, 2997, 2997, 0, 0}));
}

}  // namespace
}  // namespace tamper

// Hostile-input property suite: seeded corruption campaigns driven through
// PcapReader -> ConnectionSampler -> SignatureClassifier, asserting the
// robustness contract: no crash on any input, flow-table memory stays
// bounded, and flows the faults did not touch classify exactly as in a
// fault-free run. A last campaign feeds the checkpoint and partial
// decoders mutated payloads behind a resealed, valid envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "capture/sampler.h"
#include "common/binio.h"
#include "common/rng.h"
#include "core/classifier.h"
#include "fault/corruptor.h"
#include "fault/injector.h"
#include "fleet/partial.h"
#include "net/pcap.h"
#include "service/checkpoint.h"
#include "world/traffic.h"
#include "world/world.h"

namespace tamper {
namespace {

using namespace net::tcpflag;

constexpr double kStreamStart = 1'700'000'000.25;
constexpr std::size_t kConnections = 66;

const net::IpAddress kServer = net::IpAddress::v4(198, 18, 0, 1);

/// Deterministic clean traffic: graceful, RST-tampered and lone-SYN flows
/// with unique 4-tuples, each connection's packets contiguous in time.
std::vector<net::Packet> build_stream() {
  std::vector<net::Packet> out;
  double t = kStreamStart;
  std::uint16_t ip_id = 100;
  for (std::size_t i = 0; i < kConnections; ++i) {
    const auto client = net::IpAddress::v4(0x0a000000u + static_cast<std::uint32_t>(i));
    const auto sport = static_cast<std::uint16_t>(2000 + i);
    const auto push = [&](std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                          std::size_t payload) {
      net::Packet pkt = net::make_tcp_packet(
          client, sport, kServer, 443, flags, seq, ack,
          std::vector<std::uint8_t>(payload, static_cast<std::uint8_t>('a' + i % 26)));
      pkt.timestamp = t;
      pkt.ip.ttl = 54;
      pkt.ip.ip_id = ip_id++;
      if (flags == kSyn) pkt.tcp.options.push_back(net::TcpOption::mss_opt(1460));
      out.push_back(std::move(pkt));
      t += 0.25;
    };
    switch (i % 3) {
      case 0:  // graceful request/response
        push(kSyn, 1000, 0, 0);
        push(kAck, 1001, 500, 0);
        push(kPsh | kAck, 1001, 500, 40);
        push(kAck, 1041, 700, 0);
        push(kFin | kAck, 1041, 700, 0);
        break;
      case 1:  // injected teardown after the request
        push(kSyn, 2000, 0, 0);
        push(kAck, 2001, 900, 0);
        push(kPsh | kAck, 2001, 900, 30);
        push(kRst, 2031, 0, 0);
        push(kRst, 2031, 0, 0);
        break;
      default:  // lone SYN (SYN -> nothing)
        push(kSyn, 3000, 0, 0);
        break;
    }
    t += 2.0;
  }
  return out;
}

double stream_end(const std::vector<net::Packet>& stream) {
  return stream.back().timestamp + 120.0;
}

std::string to_pcap(const std::vector<fault::TimedFrame>& frames) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  for (const auto& f : frames) writer.write_raw(f.timestamp, f.bytes);
  return out.str();
}

std::vector<fault::TimedFrame> serialize_stream(const std::vector<net::Packet>& stream) {
  std::vector<fault::TimedFrame> frames;
  frames.reserve(stream.size());
  for (const auto& pkt : stream) frames.push_back({pkt.timestamp, net::serialize(pkt)});
  return frames;
}

std::string flow_key(const net::IpAddress& client, std::uint16_t client_port,
                     const net::IpAddress& server, std::uint16_t server_port) {
  return client.to_string() + ":" + std::to_string(client_port) + ">" +
         server.to_string() + ":" + std::to_string(server_port);
}

std::string flow_key(const capture::ConnectionSample& s) {
  return flow_key(s.client_ip, s.client_port, s.server_ip, s.server_port);
}

std::string verdict_of(const core::SignatureClassifier& classifier,
                       const capture::ConnectionSample& s) {
  const core::Classification c = classifier.classify(s);
  std::string v = c.possibly_tampered ? "tampered/" : "clean/";
  v += c.signature ? std::string(core::name(*c.signature)) : "-";
  v += "/";
  v += core::name(c.stage);
  v += c.timeout ? "/timeout" : "";
  v += c.graceful ? "/graceful" : "";
  return v;
}

struct RunResult {
  std::map<std::string, std::string> verdicts;          // flow key -> verdict
  std::map<std::string, std::size_t> packet_counts;     // flow key -> packets
  capture::ConnectionSampler::Stats sampler_stats;
  net::PcapReader::Stats reader_stats;
  std::size_t max_open_flows = 0;
  bool reader_ok = true;
};

/// Drive pcap bytes through the full lenient ingest path.
RunResult run_ingest(const std::string& pcap_bytes, std::size_t max_flows, double end) {
  RunResult result;
  std::istringstream in(pcap_bytes, std::ios::binary);
  net::PcapReader reader(in, net::PcapReadMode::kLenient);
  result.reader_ok = reader.ok();
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  config.flow_idle_timeout = 1e9;  // idle eviction off: overload only
  config.max_flows = max_flows;
  capture::ConnectionSampler sampler(config);
  while (auto pkt = reader.next()) {
    sampler.on_packet(*pkt, pkt->timestamp);
    result.max_open_flows = std::max(result.max_open_flows, sampler.open_flows());
  }
  const core::SignatureClassifier classifier;
  for (const auto& sample : sampler.flush_all(end)) {
    result.verdicts[flow_key(sample)] = verdict_of(classifier, sample);
    result.packet_counts[flow_key(sample)] = sample.packets.size();
  }
  result.sampler_stats = sampler.stats();
  result.reader_stats = reader.stats();
  return result;
}

class FaultCampaigns : public ::testing::Test {
 protected:
  void SetUp() override {
    stream_ = build_stream();
    end_ = stream_end(stream_);
    clean_pcap_ = to_pcap(serialize_stream(stream_));
    baseline_ = run_ingest(clean_pcap_, 1 << 16, end_);
    ASSERT_EQ(baseline_.verdicts.size(), kConnections);
    ASSERT_EQ(baseline_.reader_stats.skipped_unparseable, 0u);
  }

  std::vector<net::Packet> stream_;
  double end_ = 0.0;
  std::string clean_pcap_;
  RunResult baseline_;
};

// ---- Campaign 1: byte-level file corruption (60 seeds) ------------------

TEST_F(FaultCampaigns, CorruptedPcapFilesNeverCrashTheIngestPath) {
  const std::vector<std::uint8_t> clean(clean_pcap_.begin(), clean_pcap_.end());
  std::uint64_t campaigns_with_packets = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    fault::PcapCorruptor corruptor(seed);
    const auto corrupted = corruptor.corrupt(clean);
    RunResult r;
    ASSERT_NO_THROW(r = run_ingest(std::string(corrupted.begin(), corrupted.end()),
                                   /*max_flows=*/256, end_))
        << "campaign seed " << seed;
    EXPECT_LE(r.max_open_flows, 256u) << "campaign seed " << seed;
    if (!r.verdicts.empty()) ++campaigns_with_packets;
  }
  // Most corruptions are local: the lenient reader must keep recovering
  // flows from the rest of the file, not give up wholesale.
  EXPECT_GE(campaigns_with_packets, 40u);
}

TEST_F(FaultCampaigns, CorruptorIsDeterministicPerSeed) {
  const std::vector<std::uint8_t> clean(clean_pcap_.begin(), clean_pcap_.end());
  fault::PcapCorruptor a(7), b(7), c(8);
  EXPECT_EQ(a.corrupt(clean), b.corrupt(clean));
  EXPECT_NE(a.corrupt(clean), c.corrupt(clean));  // overwhelmingly likely
  EXPECT_GT(a.summary().tail_truncations + a.summary().absurd_lengths +
                a.summary().byte_flips + a.summary().garbage_insertions +
                a.summary().global_header_truncations,
            0u);
}

// ---- Campaign 2: stream-level faults, invariance on untouched flows -----

TEST_F(FaultCampaigns, UnfaultedFlowsClassifyIdenticallyUnderStreamFaults) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    fault::FaultInjector::Config config;  // defaults: all frame faults on, no flood
    fault::FaultInjector injector(seed, config);
    const auto frames = injector.run(stream_);
    RunResult r;
    ASSERT_NO_THROW(r = run_ingest(to_pcap(frames), /*max_flows=*/1 << 16, end_))
        << "campaign seed " << seed;
    EXPECT_EQ(r.sampler_stats.flows_evicted_overload, 0u);

    std::size_t unfaulted = 0;
    for (const auto& [key, verdict] : baseline_.verdicts) {
      const net::Packet& opener = *std::find_if(
          stream_.begin(), stream_.end(), [&](const net::Packet& p) {
            return flow_key(p.src, p.tcp.src_port, p.dst, p.tcp.dst_port) == key;
          });
      if (injector.flow_is_faulted(opener.src, opener.tcp.src_port, opener.dst,
                                   opener.tcp.dst_port))
        continue;
      ++unfaulted;
      ASSERT_TRUE(r.verdicts.contains(key)) << "seed " << seed << " lost flow " << key;
      EXPECT_EQ(r.verdicts.at(key), verdict) << "seed " << seed << " flow " << key;
      EXPECT_EQ(r.packet_counts.at(key), baseline_.packet_counts.at(key))
          << "seed " << seed << " flow " << key;
    }
    EXPECT_GT(unfaulted, kConnections / 3) << "seed " << seed;
  }
}

// ---- Campaign 3: SYN floods against the flow table (5 seeds) ------------

TEST_F(FaultCampaigns, SynFloodNeverGrowsTablePastMaxFlows) {
  constexpr std::size_t kMaxFlows = 128;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    fault::FaultInjector::Config config;
    config.flow_fault_fraction = 0.0;  // only the flood, no frame mutations
    config.flood_burst_probability = 0.6;
    config.flood_burst_size = 96;
    fault::FaultInjector injector(seed, config);
    const auto frames = injector.run(stream_);
    ASSERT_GT(injector.stats().flood_syns, kMaxFlows);

    RunResult r;
    ASSERT_NO_THROW(r = run_ingest(to_pcap(frames), kMaxFlows, end_))
        << "campaign seed " << seed;
    EXPECT_LE(r.max_open_flows, kMaxFlows) << "campaign seed " << seed;
    EXPECT_GT(r.sampler_stats.flows_evicted_overload, 0u) << "campaign seed " << seed;

    // Flows that reached two packets are out of the SYN-flood eviction
    // class: the flood must not change what they classify as.
    for (const auto& [key, verdict] : baseline_.verdicts) {
      if (baseline_.packet_counts.at(key) < 2) continue;
      ASSERT_TRUE(r.verdicts.contains(key)) << "seed " << seed << " lost flow " << key;
      EXPECT_EQ(r.verdicts.at(key), verdict) << "seed " << seed << " flow " << key;
    }
  }
}

TEST(SynFloodDirect, BoundedTableAndAccounting) {
  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;
  config.max_flows = 64;
  capture::ConnectionSampler sampler(config);
  const auto flood = fault::make_syn_flood(99, 5000, kServer, 443, 1000.0);
  ASSERT_EQ(flood.size(), 5000u);
  for (const auto& syn : flood) {
    sampler.on_packet(syn, syn.timestamp);
    ASSERT_LE(sampler.open_flows(), 64u);
  }
  EXPECT_EQ(sampler.stats().flows_evicted_overload,
            sampler.stats().connections_sampled - 64);
  const auto samples = sampler.flush_all(2000.0);
  EXPECT_EQ(samples.size(), sampler.stats().connections_sampled);
}

// ---- Reader hardening units ---------------------------------------------

TEST(PcapHardening, HostileInclLenIsSkippedNotAllocated) {
  // header + good record A + record with incl_len 0xFFFFFFFF (frame bytes
  // of a normal packet) + good record C.
  net::Packet pkt = net::make_tcp_packet(net::IpAddress::v4(10, 0, 0, 1), 4000, kServer,
                                         443, kSyn, 7, 0);
  pkt.timestamp = kStreamStart;
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  writer.write(pkt);
  writer.write(pkt);
  writer.write(pkt);
  std::string blob = out.str();
  const std::size_t frame_len = net::serialize(pkt).size();
  const std::size_t record_b = 24 + (16 + frame_len);
  for (std::size_t i = 0; i < 4; ++i) blob[record_b + 8 + i] = '\xff';  // incl_len

  {
    std::istringstream in(blob, std::ios::binary);
    net::PcapReader reader(in, net::PcapReadMode::kLenient);
    EXPECT_TRUE(reader.next().has_value());   // A
    EXPECT_TRUE(reader.next().has_value());   // C, after resync past B
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.stats().skipped_oversize, 1u);
    EXPECT_EQ(reader.stats().resyncs, 1u);
    EXPECT_EQ(reader.frames_read(), 2u);
  }
  {
    std::istringstream in(blob, std::ios::binary);
    net::PcapReader reader(in, net::PcapReadMode::kStrict);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_THROW((void)reader.next(), std::runtime_error);
  }
}

TEST(PcapHardening, ViewCoversOnlyItsOwnFrame) {
  // The reader reuses one buffer for every record. A short frame read after
  // a long one must see only its own bytes, never the long frame's tail.
  net::Packet big =
      net::make_tcp_packet(net::IpAddress::v4(10, 0, 0, 1), 4000, kServer, 443, kAck, 1, 1,
                           std::vector<std::uint8_t>(59960, 'x'));
  big.timestamp = kStreamStart;
  net::Packet small =
      net::make_tcp_packet(net::IpAddress::v4(10, 0, 0, 2), 4001, kServer, 443, kAck, 2, 1);
  small.timestamp = kStreamStart;
  ASSERT_EQ(net::serialize(big).size(), 60000u);
  auto lying = net::serialize(small);
  ASSERT_EQ(lying.size(), 40u);
  lying[2] = 0xea;  // IPv4 total length 40 -> 60000: past this frame's end
  lying[3] = 0x60;
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  writer.write(big);
  writer.write(small);
  writer.write(big);
  writer.write_raw(kStreamStart, lying);

  std::istringstream in(out.str(), std::ios::binary);
  net::PcapReader reader(in, net::PcapReadMode::kLenient);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload.size(), 59960u);
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tcp.seq, 2u);
  EXPECT_TRUE(second->payload.empty());
  EXPECT_TRUE(second->tcp_checksum_ok);
  ASSERT_TRUE(reader.next().has_value());
  // Parsed against the long frame's leftover bytes, the lying header would
  // yield a 59960-byte payload; against its own 40 bytes it is unparseable.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.stats().skipped_unparseable, 1u);
  EXPECT_EQ(reader.frames_read(), 4u);
}

TEST(PcapHardening, LenientReaderReportsBadHeaderInsteadOfThrowing) {
  std::istringstream empty("", std::ios::binary);
  net::PcapReader r1(empty, net::PcapReadMode::kLenient);
  EXPECT_FALSE(r1.ok());
  EXPECT_FALSE(r1.next().has_value());

  std::istringstream junk(std::string("\x00\x01\x02\x03junkjunkjunkjunkjunk", 24),
                          std::ios::binary);
  net::PcapReader r2(junk, net::PcapReadMode::kLenient);
  EXPECT_FALSE(r2.ok());
  EXPECT_FALSE(r2.next().has_value());
  EXPECT_FALSE(r2.error().empty());
}

TEST(PacketHardening, GarbageTcpOptionLengthsRejected) {
  net::Packet pkt = net::make_tcp_packet(net::IpAddress::v4(10, 0, 0, 1), 4000, kServer,
                                         443, kSyn, 1, 0);
  pkt.tcp.options.push_back(net::TcpOption::mss_opt(1460));
  auto bytes = net::serialize(pkt);
  // data offset already covers options; plant a hostile length in the
  // option block and confirm parse() refuses rather than over-reads.
  const std::size_t l4 = static_cast<std::size_t>(bytes[0] & 0x0f) * 4;
  bytes[l4 + 21] = 0xff;  // MSS option length 4 -> 255
  EXPECT_FALSE(net::parse(bytes).has_value());
  bytes[l4 + 21] = 0x01;  // below the 2-byte minimum: must not loop forever
  EXPECT_FALSE(net::parse(bytes).has_value());
}

// ---- Pipeline degradation accounting ------------------------------------

TEST(PipelineDegraded, IngestIsNothrowAndCountsEmptySamples) {
  world::World world;
  analysis::Pipeline pipeline(world);
  capture::ConnectionSample empty;
  pipeline.ingest(empty);  // noexcept; must not crash
  EXPECT_EQ(pipeline.degraded().empty_samples, 1u);
  EXPECT_EQ(pipeline.degraded().ingest_errors, 0u);

  net::PcapReader::Stats rs;
  rs.skipped_oversize = 3;
  rs.skipped_truncated = 2;
  rs.skipped_unparseable = 5;
  pipeline.record_reader_stats(rs);
  capture::ConnectionSampler::Stats ss;
  ss.packets_malformed = 7;
  ss.flows_evicted_overload = 4;
  pipeline.record_sampler_stats(ss);
  EXPECT_EQ(pipeline.degraded().oversize_frames, 3u);
  EXPECT_EQ(pipeline.degraded().truncated_frames, 2u);
  EXPECT_EQ(pipeline.degraded().unparseable_frames, 5u);
  EXPECT_EQ(pipeline.degraded().malformed_packets, 7u);
  EXPECT_EQ(pipeline.degraded().overload_evicted, 4u);
  EXPECT_EQ(pipeline.degraded().total(), 1u + 3 + 2 + 5 + 7 + 4);
}

// ---- Campaign 4: hostile payloads behind a valid envelope ---------------
//
// The whole-image checksum refuses accidental corruption, so the restore
// parsers (sum codec, overlap, evidence, epoch ring) only ever meet crafted
// bytes. Mutate the payload of a checkpoint and of a partial, rewrite the
// size field, reseal the checksum and decode: every mutant must be refused
// or load cleanly, never crash (tools/check.sh runs this under ASan and
// UBSan). Each mutant has its own seed, so a failure names its input.

/// Seeded payload edits: byte flips, inserts, deletions, truncations, and
/// eight bytes overwritten with an edge value (counts, lengths, epochs).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> payload, common::Rng& rng) {
  static constexpr std::uint64_t kEdges[] = {0,
                                             1,
                                             0xffu,
                                             0xffff'ffffu,
                                             std::uint64_t{1} << 32,
                                             0x7fff'ffff'ffff'ffffULL,
                                             0x8000'0000'0000'0000ULL,
                                             ~std::uint64_t{0}};
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits && !payload.empty(); ++e) {
    const auto at = static_cast<std::ptrdiff_t>(rng.below(payload.size()));
    const auto run = static_cast<std::ptrdiff_t>(1 + rng.below(8));
    switch (rng.below(5)) {
      case 0:
        payload[static_cast<std::size_t>(at)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
      case 1:
        for (std::ptrdiff_t i = 0; i < run; ++i)
          payload.insert(payload.begin() + at, static_cast<std::uint8_t>(rng.next()));
        break;
      case 2:
        payload.erase(payload.begin() + at,
                      payload.begin() + std::min(at + run, std::ssize(payload)));
        break;
      case 3:
        payload.resize(static_cast<std::size_t>(at));
        break;
      default: {
        common::BinWriter edge;
        edge.u64(kEdges[rng.below(std::size(kEdges))]);
        const std::size_t n = std::min<std::size_t>(8, payload.size() - static_cast<std::size_t>(at));
        std::copy_n(edge.bytes().begin(), n, payload.begin() + at);
        break;
      }
    }
  }
  return payload;
}

/// An envelope around `payload`: `header` (every byte before the size
/// field), the size, the payload, and checksum64 over all of it.
std::vector<std::uint8_t> reseal(std::span<const std::uint8_t> header,
                                 std::span<const std::uint8_t> payload) {
  common::BinWriter size;
  size.u64(payload.size());
  std::vector<std::uint8_t> image(header.begin(), header.end());
  image.insert(image.end(), size.bytes().begin(), size.bytes().end());
  image.insert(image.end(), payload.begin(), payload.end());
  common::BinWriter checksum;
  checksum.u64(common::checksum64(image.data(), image.size()));
  image.insert(image.end(), checksum.bytes().begin(), checksum.bytes().end());
  return image;
}

struct Envelope {
  std::span<const std::uint8_t> header;   ///< bytes before the size field
  std::span<const std::uint8_t> payload;  ///< between size field and checksum
};

Envelope split(std::span<const std::uint8_t> image, std::size_t header_bytes) {
  return {image.first(header_bytes),
          image.subspan(header_bytes + 8, image.size() - header_bytes - 16)};
}

TEST(EnvelopeMutation, ResealedHostilePayloadsAreRefusedOrLoadCleanly) {
  const world::World world{world::WorldConfig{.domains = {.domain_count = 2'000}, .seed = 0xf5}};
  analysis::Pipeline pipeline(world);
  world::TrafficConfig traffic;
  traffic.seed = 0xbad5eed;
  world::TrafficGenerator generator(world, traffic);
  std::size_t n = 0;
  generator.generate(160, [&](world::LabeledConnection&& conn) {
    pipeline.ingest(conn.sample);
    if (++n % 80 == 0) pipeline.sample_trends();  // the epoch ring holds points
  });

  const std::vector<std::uint8_t> checkpoint = service::encode_checkpoint(pipeline, {160, 2});
  const std::string partial_wire =
      fleet::encode_partial({common::PopId(5), common::EpochId(40), 160, {}}, pipeline);
  const std::vector<std::uint8_t> partial(partial_wire.begin(), partial_wire.end());
  // Checkpoint: magic + version. Partial: magic + version + pop + epoch +
  // sequence + overload level, shed count and first-shed time.
  const Envelope ckpt = split(checkpoint, 8 + 4);
  const Envelope part = split(partial, 8 + 4 + 4 + 8 + 8 + 1 + 8 + 8);
  ASSERT_EQ(reseal(ckpt.header, ckpt.payload), checkpoint);
  ASSERT_EQ(reseal(part.header, part.payload), partial);

  const std::vector<std::uint8_t> ckpt_payload(ckpt.payload.begin(), ckpt.payload.end());
  const std::vector<std::uint8_t> part_payload(part.payload.begin(), part.payload.end());
  std::size_t loaded = 0, refused = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    common::Rng rng(seed);
    {
      const auto mutant = reseal(ckpt.header, mutate(ckpt_payload, rng));
      analysis::Pipeline target(world);
      const service::LoadResult load = service::decode_checkpoint(mutant, target);
      if (load.ok) {
        // What the decoder accepted is a state the encoder writes and the
        // decoder accepts again.
        analysis::Pipeline again(world);
        const auto image = service::encode_checkpoint(target, load.meta);
        EXPECT_TRUE(service::decode_checkpoint(image, again).ok) << "checkpoint seed " << seed;
      }
      ++(load.ok ? loaded : refused);
    }
    {
      const auto bytes = reseal(part.header, mutate(part_payload, rng));
      const std::string mutant(bytes.begin(), bytes.end());
      const fleet::DecodeResult peek = fleet::peek_partial(mutant);
      ASSERT_TRUE(peek.ok) << "partial seed " << seed << ": " << peek.error;
      analysis::Pipeline target(world);
      const fleet::DecodeResult full = fleet::decode_partial(peek, target);
      if (full.ok) {
        analysis::Pipeline again(world);
        const std::string image = fleet::encode_partial(full.header, target);
        EXPECT_TRUE(fleet::decode_partial(image, again).ok) << "partial seed " << seed;
      }
      ++(full.ok ? loaded : refused);
    }
  }
  // Both outcomes occur, so the mutants reach past the first field.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

// Minimised from the campaign's shape: the epoch ring is the snapshot's
// last part, and a point at the lowest i64 epoch made the ring's window
// trim compute max_epoch - max_epochs + 1 below INT64_MIN.
TEST(EnvelopeMutation, RingPointAtTheLowestEpochLoadsCleanly) {
  const world::World world{world::WorldConfig{.domains = {.domain_count = 2'000}, .seed = 0xf5}};
  common::BinWriter payload;
  payload.u64(0);  // checkpoint meta: samples_ingested
  payload.u64(0);  //                  sequence
  analysis::Pipeline(world).snapshot(payload);
  std::vector<std::uint8_t> body = payload.take();
  body.resize(body.size() - 4);  // the empty ring's series count
  common::BinWriter ring;
  ring.u32(1);
  ring.str("tamper_class_matched_total");
  ring.str("");
  ring.u8(0);
  ring.u32(1);
  ring.i64(std::numeric_limits<std::int64_t>::min());
  ring.f64(1.0);
  body.insert(body.end(), ring.bytes().begin(), ring.bytes().end());

  const std::uint8_t header[] = {'T', 'S', 'C', 'K', 'P', 'T', '0', '1',
                                 static_cast<std::uint8_t>(service::kCheckpointVersion), 0, 0, 0};
  analysis::Pipeline target(world);
  const service::LoadResult load = service::decode_checkpoint(reseal(header, body), target);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(target.trends().point_count(), 1u);
}

}  // namespace
}  // namespace tamper

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "analysis/injector.h"
#include "analysis/report.h"
#include "common/binio.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "world/traffic.h"

namespace tamper {
namespace {

using namespace net::tcpflag;

// ---- JsonWriter ----

TEST(Json, ObjectAndArrayShapes) {
  std::ostringstream out;
  common::JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  json.kv("name", "value");
  json.kv("count", std::uint64_t{3});
  json.kv("ratio", 0.5);
  json.kv("flag", true);
  json.key("list");
  json.begin_array();
  json.value(std::uint64_t{1});
  json.value(std::uint64_t{2});
  json.end_array();
  json.key("nothing").null();
  json.end_object();
  EXPECT_EQ(out.str(),
            R"({"name":"value","count":3,"ratio":0.5,"flag":true,"list":[1,2],"nothing":null})");
}

TEST(Json, StringEscaping) {
  std::ostringstream out;
  common::JsonWriter json(out, false);
  json.begin_array();
  json.value("quote\" slash\\ nl\n tab\t ctrl\x01");
  json.end_array();
  EXPECT_EQ(out.str(), "[\"quote\\\" slash\\\\ nl\\n tab\\t ctrl\\u0001\"]");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  common::JsonWriter json(out, false);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(Json, EmptyContainers) {
  std::ostringstream out;
  common::JsonWriter json(out, false);
  json.begin_object();
  json.key("a");
  json.begin_array();
  json.end_array();
  json.key("o");
  json.begin_object();
  json.end_object();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"a":[],"o":{}})");
}

TEST(Json, PrettyPrintingIndents) {
  std::ostringstream out;
  common::JsonWriter json(out, true);
  json.begin_object();
  json.kv("k", std::uint64_t{1});
  json.end_object();
  EXPECT_EQ(out.str(), "{\n  \"k\": 1\n}");
}

TEST(Json, LargeTopLevelArrayReachesTheStreamBeforeItCloses) {
  std::ostringstream out;
  common::JsonWriter json(out, false);
  json.begin_array();
  std::string expected = "[";
  const std::string element(100, 'x');
  for (int i = 0; i < 5000; ++i) {
    json.value(element);
    expected += (i > 0 ? ",\"" : "\"") + element + '"';
    // What the writer holds back stays under one block plus one element.
    ASSERT_LT(expected.size() - out.str().size(),
              common::JsonWriter::kFlushBytes + element.size() + 3);
  }
  EXPECT_GT(out.str().size(), 7 * common::JsonWriter::kFlushBytes);
  json.end_array();
  EXPECT_EQ(out.str(), expected + "]");
}

TEST(Json, DestructionFlushesWhatItHolds) {
  std::ostringstream out;
  {
    common::JsonWriter json(out, true);
    json.begin_object();
    json.kv("k", std::uint64_t{1});
    EXPECT_EQ(out.str(), "");  // nothing complete at the top level yet
  }
  EXPECT_EQ(out.str(), "{\n  \"k\": 1");
}

// Every number goes through std::to_chars; the contract is printf's.
TEST(Json, DoublesFormatExactlyAsPrintfG6) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                1e300,
                                -1e300,
                                1e-300,
                                -1e-300,
                                9007199254740992.0,  // 2^53
                                9007199254740991.0,
                                9007199254740994.0,
                                -9007199254740992.0,
                                0.1,
                                1.0 / 3,
                                123456.5,
                                999999.5,
                                1234567.0,
                                1e-5,
                                0.0001,
                                100.0,
                                2.5e-7};
  std::mt19937_64 rng(0x6a);
  while (values.size() < 20'000) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (int e = -320; e <= 308; ++e) values.push_back(std::pow(10.0, e) * 1.2345675);
  for (const double v : values) {
    std::ostringstream out;
    common::JsonWriter json(out, false);
    json.value(v);
    char want[40];
    std::snprintf(want, sizeof want, "%.6g", v);
    ASSERT_EQ(out.str(), want) << std::hexfloat << v;
  }
}

TEST(Json, IntegerExtremes) {
  std::ostringstream out;
  common::JsonWriter json(out, false);
  json.begin_array();
  json.value(std::numeric_limits<std::int64_t>::min());
  json.value(std::numeric_limits<std::int64_t>::max());
  json.value(std::int64_t{-1});
  json.value(std::numeric_limits<std::uint64_t>::max());
  json.value(std::uint64_t{0});
  json.value(-7);
  json.end_array();
  EXPECT_EQ(out.str(),
            "[-9223372036854775808,9223372036854775807,-1,18446744073709551615,0,-7]");
}

// The escaping rule, one character at a time: the writer copies unescaped
// characters as runs, and must agree with this on every byte.
std::string escaped_one_by_one(std::string_view s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + '"';
}

TEST(Json, EveryByteEscapesAsBefore) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string s = {'a', static_cast<char>(b), 'z'};
    all += s;
    std::ostringstream out;
    common::JsonWriter(out, false).value(s);
    ASSERT_EQ(out.str(), escaped_one_by_one(s)) << "byte " << b;
  }
  std::ostringstream out;
  common::JsonWriter(out, false).value(all);
  EXPECT_EQ(out.str(), escaped_one_by_one(all));
}

// ---- Radar report ----

TEST(RadarReport, ValidShapeAndAggregatesOnly) {
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0x3e9;
  world::TrafficGenerator generator(world, traffic);
  analysis::Pipeline pipeline(world);
  pipeline.run(generator, 4000);

  std::ostringstream out;
  analysis::ReportOptions options;
  options.min_country_connections = 100;
  analysis::write_radar_report(out, pipeline, options);
  const std::string report = out.str();

  EXPECT_NE(report.find("\"schema\": \"tamper-radar/1\""), std::string::npos);
  EXPECT_NE(report.find("\"global\""), std::string::npos);
  EXPECT_NE(report.find("\"degraded_input\""), std::string::npos);
  EXPECT_NE(report.find("\"signatures\""), std::string::npos);
  EXPECT_NE(report.find("\"countries\""), std::string::npos);
  EXPECT_NE(report.find("SYNACK->NONE"), std::string::npos);
  // Privacy posture: no client addresses and no domain names leak.
  // (Client space is 11.0.0.0/8; a dotted-quad string would betray it.)
  for (const char* leak : {"\"11.", "client_ip", ".com\"", ".net\"", ".org\""})
    EXPECT_EQ(report.find(leak), std::string::npos) << leak;
  // Braces balance (cheap well-formedness check).
  EXPECT_EQ(std::count(report.begin(), report.end(), '{'),
            std::count(report.begin(), report.end(), '}'));
  EXPECT_EQ(std::count(report.begin(), report.end(), '['),
            std::count(report.begin(), report.end(), ']'));
}

// Reproducibility gate: two independent runs from the same seed must
// serialize to byte-identical reports. This is what tamperlint rule R2
// protects — any unordered-container iteration leaking into emission
// would show up here as a flaky byte diff.
TEST(RadarReport, ByteStableAcrossIdenticalRuns) {
  auto render = [] {
    world::World world;
    world::TrafficConfig traffic;
    traffic.seed = 0x5eed;
    world::TrafficGenerator generator(world, traffic);
    analysis::Pipeline pipeline(world);
    pipeline.run(generator, 3000);
    std::ostringstream out;
    analysis::ReportOptions options;
    options.min_country_connections = 50;
    options.include_timeseries = true;
    analysis::write_radar_report(out, pipeline, options);
    return out.str();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(RadarReport, AggregationFloorSuppressesSmallCountries) {
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0x3ea;
  world::TrafficGenerator generator(world, traffic);
  analysis::Pipeline pipeline(world);
  pipeline.run(generator, 1500);

  std::ostringstream strict;
  analysis::ReportOptions high_floor;
  high_floor.min_country_connections = 1'000'000;
  high_floor.include_timeseries = false;
  analysis::write_radar_report(strict, pipeline, high_floor);
  EXPECT_NE(strict.str().find("\"countries\": []"), std::string::npos);
}

// ---- Injector distance ----

capture::ObservedPacket obs(std::uint8_t flags, std::uint8_t ttl, std::int64_t ts = 1000) {
  capture::ObservedPacket p;
  p.flags = flags;
  p.ttl = ttl;
  p.seq = flags == kSyn ? 100 : 101;
  p.ts_sec = ts;
  return p;
}

TEST(InjectorDistance, EstimatesFromTtlConstants) {
  capture::ConnectionSample sample;
  // Client: initial TTL 64, 14 hops away -> arrives with 50.
  // Injector: initial TTL 64, 6 hops from the server -> RST arrives with 58.
  sample.packets = {obs(kSyn, 50), obs(kAck, 50), obs(kRst, 58)};
  sample.observation_end_sec = 1030;
  const auto classification = core::SignatureClassifier{}.classify(sample);
  ASSERT_TRUE(classification.possibly_tampered);
  const auto distance = analysis::estimate_injector_distance(sample, classification);
  ASSERT_TRUE(distance.has_value());
  EXPECT_EQ(distance->client_hops, 14);
  EXPECT_EQ(distance->injector_hops, 6);
  EXPECT_NEAR(distance->relative_position(), 6.0 / 14.0, 1e-9);
}

TEST(InjectorDistance, HandlesDifferentInitialConstants) {
  capture::ConnectionSample sample;
  // Windows client (128) 20 hops out; injector stack at 255, 9 hops out.
  sample.packets = {obs(kSyn, 108), obs(kAck, 108), obs(kRst | kAck, 246)};
  sample.observation_end_sec = 1030;
  const auto classification = core::SignatureClassifier{}.classify(sample);
  const auto distance = analysis::estimate_injector_distance(sample, classification);
  ASSERT_TRUE(distance.has_value());
  EXPECT_EQ(distance->client_hops, 20);
  EXPECT_EQ(distance->injector_hops, 9);
}

TEST(InjectorDistance, RejectsImplausibleTtls) {
  capture::ConnectionSample sample;
  // TTL 160 is >31 below the next constant (255): randomized injector.
  sample.packets = {obs(kSyn, 50), obs(kAck, 50), obs(kRst, 160)};
  sample.observation_end_sec = 1030;
  const auto classification = core::SignatureClassifier{}.classify(sample);
  EXPECT_FALSE(analysis::estimate_injector_distance(sample, classification).has_value());
}

TEST(InjectorDistance, NoTeardownNoEstimate) {
  capture::ConnectionSample sample;
  sample.packets = {obs(kSyn, 50)};
  sample.observation_end_sec = 1030;
  const auto classification = core::SignatureClassifier{}.classify(sample);
  ASSERT_TRUE(classification.possibly_tampered);  // SYN -> nothing
  EXPECT_FALSE(analysis::estimate_injector_distance(sample, classification).has_value());
}

TEST(InjectorDistance, HopsFromInitialTtlHelper) {
  EXPECT_EQ(analysis::hops_from_initial_ttl(64), 0);
  EXPECT_EQ(analysis::hops_from_initial_ttl(50), 14);
  EXPECT_EQ(analysis::hops_from_initial_ttl(120), 8);
  EXPECT_EQ(analysis::hops_from_initial_ttl(250), 5);
  EXPECT_EQ(analysis::hops_from_initial_ttl(30), 2);   // 32-based
  EXPECT_FALSE(analysis::hops_from_initial_ttl(180).has_value());
}

TEST(InjectorDistance, OnSimulatedCensoredTraffic) {
  // Middlebox sits at hop 5 of 14 from the client, i.e. 9 hops from the
  // server vs the client's 14: relative position ~0.64.
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0x1d7;
  world::TrafficGenerator generator(world, traffic);
  core::SignatureClassifier classifier;
  int estimates = 0;
  double positions = 0.0;
  generator.generate(6000, [&](world::LabeledConnection&& conn) {
    if (!conn.truth.tampered) return;
    const auto classification = classifier.classify(conn.sample);
    const auto distance = analysis::estimate_injector_distance(conn.sample, classification);
    if (!distance) return;
    ++estimates;
    positions += distance->relative_position();
  });
  ASSERT_GT(estimates, 50);
  const double mean_position = positions / estimates;
  EXPECT_GT(mean_position, 0.3);  // mid-path, not at the server
  EXPECT_LT(mean_position, 1.1);
}

// ---- Degraded-input accounting, pinned byte for byte ----

// A payload whose 15 DegradedStats counters hold 1 << i (field order as
// serialized), followed by an empty pipeline's remaining state. Powers of
// two make every subset sum unique, so total() and coverage_loss() pin
// exactly which counters each one includes.
std::vector<std::uint8_t> degraded_prefix(std::uint64_t scale) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 15; ++i) {
    const std::uint64_t v = (std::uint64_t{1} << i) * scale;
    std::uint8_t raw[8];
    std::memcpy(raw, &v, sizeof raw);
    bytes.insert(bytes.end(), raw, raw + 8);
  }
  return bytes;
}

std::vector<std::uint8_t> snapshot_bytes(const analysis::Pipeline& pipeline) {
  common::BinWriter w;
  pipeline.snapshot(w);
  return w.bytes();
}

TEST(DegradedPin, ReportMetricsTotalsSnapshotAndMergeAreExact) {
  const world::World world;
  std::vector<std::uint8_t> payload = snapshot_bytes(analysis::Pipeline(world));
  const std::vector<std::uint8_t> prefix = degraded_prefix(1);
  ASSERT_GE(payload.size(), prefix.size());
  std::copy(prefix.begin(), prefix.end(), payload.begin());

  obs::Registry registry;  // outlives the pipeline's collector
  analysis::Pipeline pipeline(world);
  pipeline.set_obs(&registry);
  common::BinReader reader(payload);
  pipeline.restore(reader);

  std::ostringstream report;
  analysis::ReportOptions options;
  options.pretty = false;
  analysis::write_radar_report(report, pipeline, options);
  const std::string json = report.str();
  const std::size_t begin = json.find("\"degraded_input\"");
  ASSERT_NE(begin, std::string::npos);
  EXPECT_EQ(json.substr(begin, json.find('}', begin) + 1 - begin),
            
            "\"degraded_input\":{\"empty_samples\":1,\"ingest_errors\":2,"
            "\"malformed_packets\":4,\"overload_evicted_flows\":8,"
            "\"unparseable_frames\":16,\"oversize_frames\":32,"
            "\"truncated_frames\":64,\"queue_shed_embryonic\":128,"
            "\"queue_shed_other\":256,\"spool_replay_failures\":512,"
            "\"spool_dropped\":1024,\"admission_rate_limited\":2048,"
            "\"admission_sampled_down\":4096,\"admission_embryonic_shed\":8192,"
            "\"admission_rejected\":16384,\"total\":32767}");

  std::istringstream prom(registry.prometheus_text());
  std::string lines;
  for (std::string line; std::getline(prom, line);)
    if (line.rfind("tamper_pipeline_degraded_total{", 0) == 0) lines += line + "\n";
  EXPECT_EQ(lines,
            "tamper_pipeline_degraded_total{cause=\"admission_embryonic_shed\"} 8192\n"
            "tamper_pipeline_degraded_total{cause=\"admission_rate_limited\"} 2048\n"
            "tamper_pipeline_degraded_total{cause=\"admission_rejected\"} 16384\n"
            "tamper_pipeline_degraded_total{cause=\"admission_sampled_down\"} 4096\n"
            "tamper_pipeline_degraded_total{cause=\"empty_samples\"} 1\n"
            "tamper_pipeline_degraded_total{cause=\"ingest_errors\"} 2\n"
            "tamper_pipeline_degraded_total{cause=\"malformed_packets\"} 4\n"
            "tamper_pipeline_degraded_total{cause=\"overload_evicted\"} 8\n"
            "tamper_pipeline_degraded_total{cause=\"oversize_frames\"} 32\n"
            "tamper_pipeline_degraded_total{cause=\"queue_shed_embryonic\"} 128\n"
            "tamper_pipeline_degraded_total{cause=\"queue_shed_other\"} 256\n"
            "tamper_pipeline_degraded_total{cause=\"spool_dropped\"} 1024\n"
            "tamper_pipeline_degraded_total{cause=\"spool_replay_failures\"} 512\n"
            "tamper_pipeline_degraded_total{cause=\"truncated_frames\"} 64\n"
            "tamper_pipeline_degraded_total{cause=\"unparseable_frames\"} 16\n");

  const analysis::DegradedStats d = pipeline.degraded();
  EXPECT_EQ(d.total(), 32767u);
  EXPECT_EQ(d.coverage_loss(), 31226u);  // all but empty, malformed, spool_*

  const std::vector<std::uint8_t> again = snapshot_bytes(pipeline);
  ASSERT_GE(again.size(), 120u);
  EXPECT_EQ(std::vector<std::uint8_t>(again.begin(), again.begin() + 120), prefix);

  // Merging a twin restored from the same payload doubles every counter
  // (a twin, because merge_from(*this) would lock stats_mu_ twice).
  analysis::Pipeline twin(world);
  common::BinReader twin_reader(payload);
  twin.restore(twin_reader);
  pipeline.merge_from(twin);
  const std::vector<std::uint8_t> merged = snapshot_bytes(pipeline);
  EXPECT_EQ(std::vector<std::uint8_t>(merged.begin(), merged.begin() + 120),
            degraded_prefix(2));
  EXPECT_EQ(pipeline.degraded().total(), 2 * 32767u);
}

}  // namespace
}  // namespace tamper

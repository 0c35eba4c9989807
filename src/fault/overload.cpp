#include "fault/overload.h"

#include <cmath>
#include <string>

#include "net/headers.h"

namespace tamper::fault {
namespace {

// The HTTP request head is crafted as raw bytes so the analysis side's DPI
// finds a Host without this module depending on appproto.
std::vector<std::uint8_t> http_get_payload(std::uint32_t flow) {
  std::string head = "GET / HTTP/1.1\r\nHost: load-";
  head += std::to_string(flow);
  head += ".test\r\nUser-Agent: overloadgen\r\n\r\n";
  return {head.begin(), head.end()};
}

}  // namespace

const char* name(OverloadScenario scenario) noexcept {
  switch (scenario) {
    case OverloadScenario::kSustainedRate:
      return "sustained_rate";
    case OverloadScenario::kBurstTrain:
      return "burst_train";
    case OverloadScenario::kSynFlood:
      return "syn_flood";
    case OverloadScenario::kSlowSink:
      return "slow_sink";
  }
  return "sustained_rate";
}

OverloadGenerator::OverloadGenerator(std::uint64_t seed, Config config)
    : config_(config), rng_(common::mix64(seed ^ 0x0bea10adf100d5ULL)) {}

double OverloadGenerator::rate_at(common::SimTime t) const noexcept {
  const double base = config_.base_rate_per_sec;
  switch (config_.scenario) {
    case OverloadScenario::kSustainedRate:
    case OverloadScenario::kSynFlood:
      return base * config_.overload_factor;
    case OverloadScenario::kBurstTrain: {
      if (config_.burst_period_sec <= 0) return base;
      const double phase = std::fmod(t, config_.burst_period_sec);
      return phase < config_.burst_length_sec ? base * config_.burst_factor : base;
    }
    case OverloadScenario::kSlowSink:
      return base;
  }
  return base;
}

bool OverloadGenerator::sink_stalled_at(common::SimTime t) const noexcept {
  if (config_.scenario != OverloadScenario::kSlowSink) return false;
  if (config_.stall_period_sec <= 0) return false;
  return std::fmod(t, config_.stall_period_sec) < config_.stall_length_sec;
}

capture::ConnectionSample OverloadGenerator::make_flow_sample(common::SimTime at) {
  const std::uint32_t flow = next_flow_++;
  capture::ConnectionSample s;
  // Clients spread over 10.0.0.0/8, servers over 192.0.2.0/24 (TEST-NET-1),
  // both seeded so distinct flows never collide in the sampler's table.
  s.client_ip = net::IpAddress::v4(0x0a000000u | (rng_.next() & 0x00ffffffu));
  s.server_ip = net::IpAddress::v4(0xc0000200u | static_cast<std::uint32_t>(flow % 256));
  s.client_port = static_cast<std::uint16_t>(49152 + (flow % 16384));
  s.server_port = 80;
  const auto ts = static_cast<std::int64_t>(at);
  const auto seq = static_cast<std::uint32_t>(rng_.next());

  capture::ObservedPacket syn;
  syn.ts_sec = ts;
  syn.flags = net::tcpflag::kSyn;
  syn.seq = seq;
  syn.window = 64240;
  syn.ttl = 57;
  s.packets.push_back(syn);

  capture::ObservedPacket ack;
  ack.ts_sec = ts;
  ack.flags = net::tcpflag::kAck;
  ack.seq = seq + 1;
  ack.ack = 1;
  ack.window = 64240;
  ack.ttl = 57;
  s.packets.push_back(ack);

  capture::ObservedPacket data;
  data.ts_sec = ts + 1;
  data.flags = static_cast<std::uint8_t>(net::tcpflag::kPsh | net::tcpflag::kAck);
  data.seq = seq + 1;
  data.ack = 1;
  data.window = 64240;
  data.ttl = 57;
  const std::vector<std::uint8_t> payload = http_get_payload(flow);
  data.payload_len = static_cast<std::uint16_t>(payload.size());
  s.log(data, payload);

  s.observation_end_sec = ts + 4;
  return s;
}

capture::ConnectionSample OverloadGenerator::make_flood_sample(common::SimTime at) {
  const std::uint32_t decoy = next_decoy_++;
  capture::ConnectionSample s;
  // Decoy sources live in 100.64.0.0/10 like injector.h's SYN floods, so
  // they are recognizably never real flows.
  s.client_ip = net::IpAddress::v4(0x64400000u | ((rng_.next() ^ decoy) & 0x003fffffu));
  s.server_ip = net::IpAddress::v4(0xc0000263u);  // 192.0.2.99
  s.client_port = static_cast<std::uint16_t>(1024 + (decoy % 60000));
  s.server_port = 443;
  const auto ts = static_cast<std::int64_t>(at);

  capture::ObservedPacket syn;
  syn.ts_sec = ts;
  syn.flags = net::tcpflag::kSyn;
  syn.seq = static_cast<std::uint32_t>(rng_.next());
  syn.window = 1024;
  syn.ttl = 244;
  s.packets.push_back(syn);

  s.observation_end_sec = ts + 1;
  return s;
}

std::vector<OverloadEvent> OverloadGenerator::run() {
  std::vector<OverloadEvent> schedule;
  double t = 0.0;
  while (t < config_.duration_sec) {
    const double rate = rate_at(t);
    if (rate <= 0) break;
    OverloadEvent ev;
    ev.at = t;
    ev.flood = config_.scenario == OverloadScenario::kSynFlood &&
               rng_.uniform() < config_.flood_fraction;
    ev.sample = ev.flood ? make_flood_sample(t) : make_flow_sample(t);
    ++stats_.events;
    if (ev.flood) ++stats_.flood_events;
    schedule.push_back(std::move(ev));
    t += 1.0 / rate;
  }
  return schedule;
}

}  // namespace tamper::fault

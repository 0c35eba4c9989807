#include "capture/sampler.h"

#include <cmath>
#include <stdexcept>

namespace tamper::capture {

ConnectionSampler::ConnectionSampler(Config config) : config_(std::move(config)) {
  if (config_.max_packets > kMaxLoggedPackets)
    throw std::invalid_argument("ConnectionSampler: max_packets above kMaxLoggedPackets");
}

bool ConnectionSampler::should_sample(const FlowKey& key) const noexcept {
  if (config_.sample_one_in <= 1) return true;
  // Hash-based uniform sampling: deterministic per flow, unbiased across
  // flows, independent of arrival order.
  const std::uint64_t h = common::mix64(key.hash ^ config_.hash_salt);
  return h % config_.sample_one_in == 0;
}

bool ConnectionSampler::is_malformed(const net::PacketView& pkt) const noexcept {
  if (pkt.tcp.src_port == 0 || pkt.tcp.dst_port == 0) return true;
  // Self-addressed 4-tuple (LAND-style) — no legitimate stack emits this.
  if (pkt.src == pkt.dst && pkt.tcp.src_port == pkt.tcp.dst_port) return true;
  // Deliberately ambiguous flag combinations middleboxes/scanners use to
  // probe DPI behaviour; no meaningful connection state can follow them.
  if (pkt.tcp.has(net::tcpflag::kSyn) &&
      (pkt.tcp.has(net::tcpflag::kFin) || pkt.tcp.has(net::tcpflag::kRst)))
    return true;
  return false;
}

void ConnectionSampler::unlink(FlowState& flow) {
  if (flow.embryonic)
    embryonic_lru_.erase(flow.lru_it);
  else
    established_lru_.erase(flow.lru_it);
}

void ConnectionSampler::evict_for_overload(common::SimTime now) {
  std::list<FlowKey>& lru = embryonic_lru_.empty() ? established_lru_ : embryonic_lru_;
  const FlowKey victim_key = lru.front();
  auto it = flows_.find(victim_key);
  FlowState& victim = it->second;
  victim.sample.observation_end_sec = static_cast<std::int64_t>(std::floor(now));
  evicted_.push_back(std::move(victim.sample));
  lru.pop_front();
  flows_.erase(it);
  ++stats_.flows_evicted_overload;
}

void ConnectionSampler::on_packet(const net::PacketView& pkt, common::SimTime now) {
  ++stats_.packets_seen;
  if (config_.scrub && config_.scrub(pkt)) {
    ++stats_.packets_scrubbed;
    return;
  }
  if (is_malformed(pkt)) {
    ++stats_.packets_malformed;
    return;
  }
  const FlowKey key(pkt);
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    // Only a SYN opens a flow; anything else without flow state is a
    // mid-connection packet of an unsampled (or evicted) flow.
    if (!pkt.tcp.has(net::tcpflag::kSyn) || pkt.tcp.has(net::tcpflag::kAck)) return;
    ++stats_.connections_seen;
    if (!should_sample(key)) return;
    ++stats_.connections_sampled;
    if (config_.max_flows > 0 && flows_.size() >= config_.max_flows)
      evict_for_overload(now);
    it = flows_.try_emplace(key).first;
    FlowState& state = it->second;
    state.sample.client_ip = pkt.src;
    state.sample.server_ip = pkt.dst;
    state.sample.client_port = pkt.tcp.src_port;
    state.sample.server_port = pkt.tcp.dst_port;
    state.sample.ip_version = pkt.src.version();
    state.lru_it = embryonic_lru_.insert(embryonic_lru_.end(), key);
  } else {
    FlowState& flow = it->second;
    if (flow.embryonic) {
      // Second packet: promote out of the SYN-flood eviction class.
      established_lru_.splice(established_lru_.end(), embryonic_lru_, flow.lru_it);
      flow.embryonic = false;
    } else {
      established_lru_.splice(established_lru_.end(), established_lru_, flow.lru_it);
    }
  }
  FlowState& flow = it->second;
  flow.last_seen = now;
  if (flow.full) return;
  flow.sample.log(observe(pkt), config_.keep_payloads ? pkt.payload
                                                       : std::span<const std::uint8_t>{});
  if (flow.sample.packets.size() >= config_.max_packets) flow.full = true;
}

std::vector<ConnectionSample> ConnectionSampler::drain_idle(common::SimTime now) {
  std::vector<ConnectionSample> out = std::move(evicted_);
  evicted_.clear();
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_seen >= config_.flow_idle_timeout) {
      it->second.sample.observation_end_sec = static_cast<std::int64_t>(std::floor(now));
      unlink(it->second);
      out.push_back(std::move(it->second.sample));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<ConnectionSample> ConnectionSampler::flush_all(common::SimTime observation_end) {
  std::vector<ConnectionSample> out = std::move(evicted_);
  evicted_.clear();
  out.reserve(out.size() + flows_.size());
  for (auto& [key, flow] : flows_) {
    flow.sample.observation_end_sec = static_cast<std::int64_t>(std::floor(observation_end));
    out.push_back(std::move(flow.sample));
  }
  flows_.clear();
  embryonic_lru_.clear();
  established_lru_.clear();
  return out;
}

}  // namespace tamper::capture

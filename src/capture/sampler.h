// Server-side connection sampler.
//
// Mirrors the paper's collection pipeline (§3.2): uniformly sample one in N
// *connections* (decided at the SYN, after an optional DDoS-scrub
// predicate), then log the first `max_packets` inbound packets of sampled
// connections with 1-second timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "capture/sample.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "net/packet.h"

namespace tamper::capture {

class ConnectionSampler {
 public:
  struct Config {
    std::uint32_t sample_one_in = 10000;  ///< paper: 1 in 10,000 connections
    std::size_t max_packets = kMaxLoggedPackets;  ///< paper: first 10 packets
    bool keep_payloads = true;
    double flow_idle_timeout = 30.0;      ///< idle eviction horizon
    /// Hard bound on concurrently tracked flows; 0 = unbounded. When full,
    /// a new sampled flow evicts the oldest *embryonic* (single bare-SYN)
    /// flow first — the shape a SYN flood leaves behind — falling back to
    /// the least recently active flow. Evicted flows are closed out and
    /// surface through drain_idle()/flush_all(), so overload degrades
    /// coverage instead of exhausting memory.
    std::size_t max_flows = 1 << 20;
    std::uint64_t hash_salt = 0x7a3d90c1b2e4f586ULL;
    /// DDoS scrubbing executed *before* sampling; return true to discard.
    std::function<bool(const net::PacketView&)> scrub;
  };

  /// Throws std::invalid_argument when max_packets exceeds kMaxLoggedPackets.
  explicit ConnectionSampler(Config config);

  /// Feed one inbound (client->server) packet. Packets that do not open a
  /// new flow and do not belong to a sampled flow are counted and dropped.
  /// Copies what the record keeps; the view need not outlive the call.
  void on_packet(const net::PacketView& pkt, common::SimTime now);

  /// Evict flows idle past the timeout, emitting their samples.
  [[nodiscard]] std::vector<ConnectionSample> drain_idle(common::SimTime now);

  /// Close out every open flow (end of the observation window).
  [[nodiscard]] std::vector<ConnectionSample> flush_all(common::SimTime observation_end);

  struct Stats {
    std::uint64_t packets_seen = 0;
    std::uint64_t packets_scrubbed = 0;
    std::uint64_t connections_seen = 0;
    std::uint64_t connections_sampled = 0;
    /// Hostile/garbage input dropped before flow lookup (port 0, self-
    /// addressed 4-tuples, ambiguous SYN+FIN / SYN+RST flag combos).
    std::uint64_t packets_malformed = 0;
    /// Flows force-closed because the table hit Config::max_flows.
    std::uint64_t flows_evicted_overload = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Currently tracked flows (bounded by Config::max_flows when set).
  [[nodiscard]] std::size_t open_flows() const noexcept { return flows_.size(); }

 private:
  struct FlowKey {
    net::IpAddress client;
    net::IpAddress server;
    std::uint16_t client_port;
    std::uint16_t server_port;
    /// Hash of the four fields above, computed once per packet: the table
    /// lookup, the sampling decision and the insert all reuse it.
    std::uint64_t hash;
    bool operator==(const FlowKey&) const = default;

    explicit FlowKey(const net::PacketView& pkt) noexcept
        : client(pkt.src),
          server(pkt.dst),
          client_port(pkt.tcp.src_port),
          server_port(pkt.tcp.dst_port),
          hash(common::mix64(
              client.hash() ^ common::mix64(server.hash()) ^
              (static_cast<std::uint64_t>(client_port) << 16 | server_port))) {}
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct FlowState {
    ConnectionSample sample;
    common::SimTime last_seen = 0.0;
    bool full = false;
    bool embryonic = true;  ///< has seen only its opening SYN so far
    std::list<FlowKey>::iterator lru_it;
  };

  [[nodiscard]] bool should_sample(const FlowKey& key) const noexcept;
  [[nodiscard]] bool is_malformed(const net::PacketView& pkt) const noexcept;
  /// Make room for one more flow; closes the victim into evicted_.
  void evict_for_overload(common::SimTime now);
  void unlink(FlowState& flow);

  Config config_;
  Stats stats_;
  std::unordered_map<FlowKey, FlowState, FlowKeyHash> flows_;
  // Recency order (front = coldest), embryonic flows tracked separately so
  // a SYN flood cannibalises itself before touching established flows.
  std::list<FlowKey> embryonic_lru_;
  std::list<FlowKey> established_lru_;
  std::vector<ConnectionSample> evicted_;  ///< overload-closed, pending drain
};

}  // namespace tamper::capture

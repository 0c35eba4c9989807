// End-to-end traffic generation: world -> client/server endpoints ->
// middlebox path -> server tap -> ConnectionSample.
//
// Each generated connection carries a GroundTruth record alongside the
// sample. Ground truth exists only for validation and calibration; the
// classifier and the analyses never read it (the analyses re-derive
// country/AS/domain the way the paper does: geo lookup on the source
// address, DPI on the first data payload).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "capture/sample.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "tcp/endpoint.h"
#include "world/world.h"

namespace tamper::world {

struct GroundTruth {
  std::string country;
  common::AsnId asn{};
  std::string domain;
  std::size_t domain_rank = static_cast<std::size_t>(-1);
  Category category = Category::kBusiness;
  appproto::AppProtocol protocol = appproto::AppProtocol::kUnknown;
  bool ipv6 = false;
  tcp::ClientKind client_kind = tcp::ClientKind::kNormal;
  bool scanner = false;       ///< ZMap-style probe
  bool tamper_armed = false;  ///< policy selected a tampering method
  bool tampered = false;      ///< the middlebox actually fired
  std::string method;         ///< catalog preset name when armed
  common::SimTime start_time = 0.0;
};

struct LabeledConnection {
  capture::ConnectionSample sample;
  GroundTruth truth;
  /// Wire packets as they arrived at the server, before capture degradation
  /// (only populated when TrafficConfig::keep_raw_inbound is set).
  std::vector<net::Packet> raw_inbound;
};

struct TrafficConfig {
  common::SimTime window_start = common::from_civil(2023, 1, 12);
  common::SimTime window_end = common::from_civil(2023, 1, 26);

  // Client-population anomaly rates (fractions of all connections). These
  // populate the benign side of the possibly-tampered pool (§4.2).
  double zmap_rate = 0.0006;           ///< scanners (fixed IP-ID 54321, TTL 255)
  double syn_only_rate = 0.085;        ///< spoofed/flood SYNs surviving scrub
  double he_rst_rate = 0.007;          ///< Happy Eyeballs loser, RST cancel
  double he_rst_ack_rate = 0.007;      ///< ... RST+ACK-style cancel
  double he_vanish_rate = 0.007;       ///< ... silent drop (curl)
  double preconnect_rate = 0.022;      ///< speculative connections never used
  double vanish_after_request_rate = 0.003;
  double abort_mid_transfer_rate = 0.062;  ///< user hit stop mid-download
  double rst_after_fin_rate = 0.006;       ///< close() racing data ("other" stage)

  double loss_rate = 0.0015;           ///< independent per-packet path loss
  double http_second_get_prob = 0.45;  ///< pipelined second GET on HTTP
  double tls_continuation_prob = 0.55; ///< client records after ClientHello

  // ---- Capture-pipeline knobs (paper defaults; ablation studies vary them) ----
  /// First-N packets per connection, at most capture::kMaxLoggedPackets
  /// (TrafficGenerator throws std::invalid_argument above it).
  std::size_t max_logged_packets = capture::kMaxLoggedPackets;
  double timestamp_scale = 1.0;          ///< log ticks per second (1 = paper)
  bool keep_raw_inbound = false;         ///< retain wire packets on LabeledConnection

  // ---- Residual censorship (§B): once a (client, domain) pair triggers a
  // censor, follow-up connections are blocked earlier for a while ----
  double residual_block_seconds = 0.0;   ///< 0 disables the mechanism
  double residual_probability = 0.5;     ///< chance a firing arms the state
  std::string residual_preset = "syn_rst";

  /// Scenario hooks: adjust blocked-content demand / enforcement over time
  /// (e.g. the Iran protest ramp in §5.6). Arguments: country spec, start
  /// time, and the policy's base value; return the adjusted value.
  std::function<double(const CountrySpec&, common::SimTime, double)> interest_modifier;
  std::function<double(const CountrySpec&, common::SimTime, double)> enforcement_modifier;

  std::uint64_t seed = 0x7ea7f1c;
};

/// Optional per-connection overrides for targeted workloads (repeat visits
/// by the same client for Fig. 10, forced protocols, case studies).
struct VisitPin {
  std::optional<net::IpAddress> client_ip;
  std::optional<common::AsnId> asn;
  std::optional<std::size_t> domain_rank;
  std::optional<appproto::AppProtocol> protocol;
  std::optional<tcp::ClientKind> client_kind;
  std::optional<bool> ipv6;
};

class TrafficGenerator {
 public:
  TrafficGenerator(const World& world, TrafficConfig config);

  /// One connection at a volume-weighted random (country, time).
  [[nodiscard]] LabeledConnection generate_one();

  /// One connection pinned to a country and start time (case studies).
  [[nodiscard]] LabeledConnection generate_at(int country_index, common::SimTime t) {
    return generate_pinned(country_index, t, VisitPin{});
  }

  /// Fully-pinned generation for targeted workloads.
  [[nodiscard]] LabeledConnection generate_pinned(int country_index, common::SimTime t,
                                                  const VisitPin& pin);

  /// Bulk generation into a sink.
  void generate(std::size_t count,
                const std::function<void(LabeledConnection&&)>& sink);

  [[nodiscard]] const World& world() const noexcept { return world_; }
  [[nodiscard]] const TrafficConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] tcp::ClientKind roll_client_kind(bool& scanner);
  [[nodiscard]] tcp::IpStackModel roll_client_stack(bool scanner);

  const World& world_;
  TrafficConfig config_;
  common::Rng rng_;
  /// Residual-censorship state: (client, domain) pair -> blocked-until time.
  std::unordered_map<std::uint64_t, common::SimTime> residual_until_;
  MethodWeight residual_method_;
};

}  // namespace tamper::world

#include "world/traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "appproto/http.h"
#include "appproto/tls.h"
#include "middlebox/catalog.h"
#include "middlebox/middlebox.h"
#include "tcp/session.h"

namespace tamper::world {

using appproto::AppProtocol;

TrafficGenerator::TrafficGenerator(const World& world, TrafficConfig config)
    : world_(world), config_(config), rng_(config.seed) {
  if (config_.max_logged_packets > capture::kMaxLoggedPackets)
    throw std::invalid_argument(
        "TrafficGenerator: max_logged_packets above kMaxLoggedPackets");
}

tcp::ClientKind TrafficGenerator::roll_client_kind(bool& scanner) {
  double roll = rng_.uniform();
  scanner = false;
  auto take = [&roll](double rate) {
    if (roll < rate) return true;
    roll -= rate;
    return false;
  };
  if (take(config_.zmap_rate)) {
    scanner = true;
    return tcp::ClientKind::kRstOnSynAck;
  }
  if (take(config_.syn_only_rate)) return tcp::ClientKind::kSynOnly;
  if (take(config_.he_rst_rate)) return tcp::ClientKind::kRstOnSynAck;
  if (take(config_.he_rst_ack_rate)) return tcp::ClientKind::kRstAckOnSynAck;
  if (take(config_.he_vanish_rate)) return tcp::ClientKind::kVanishOnSynAck;
  if (take(config_.preconnect_rate)) return tcp::ClientKind::kVanishAfterAck;
  if (take(config_.vanish_after_request_rate)) return tcp::ClientKind::kVanishAfterRequest;
  if (take(config_.abort_mid_transfer_rate)) return tcp::ClientKind::kAbortMidTransfer;
  if (take(config_.rst_after_fin_rate)) return tcp::ClientKind::kRstAfterFin;
  return tcp::ClientKind::kNormal;
}

tcp::IpStackModel TrafficGenerator::roll_client_stack(bool scanner) {
  if (scanner) return tcp::IpStackModel::zmap();
  const double roll = rng_.uniform();
  if (roll < 0.45) return tcp::IpStackModel::linux_like();
  if (roll < 0.78) return tcp::IpStackModel::windows_like();
  return tcp::IpStackModel::zero_ipid();
}

LabeledConnection TrafficGenerator::generate_one() {
  // Volume-weighted (country, time): country by traffic share, then a start
  // time accepted against the country's local diurnal load curve.
  const int country = world_.sample_country(rng_);
  common::SimTime t = 0.0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    t = rng_.uniform(config_.window_start, config_.window_end);
    if (rng_.chance(world_.volume_factor(country, t))) break;
  }
  return generate_at(country, t);
}

LabeledConnection TrafficGenerator::generate_pinned(int country_index, common::SimTime t,
                                                    const VisitPin& pin) {
  const CountrySpec& spec = world_.country(country_index);
  const auto& policy = spec.policy;

  LabeledConnection out;
  GroundTruth& truth = out.truth;
  truth.country = spec.code;
  truth.start_time = t;

  const AsInfo& as_info = pin.asn ? world_.geo().as_by_number(*pin.asn)
                                  : world_.geo().sample_as(spec.code, rng_);
  truth.asn = as_info.asn;
  truth.ipv6 = pin.ipv6 ? *pin.ipv6 : rng_.chance(spec.ipv6_share);
  truth.client_kind = roll_client_kind(truth.scanner);
  // Internet-wide scanners enumerate the IPv4 space; ZMap probes are v4.
  if (truth.scanner && !pin.ipv6) truth.ipv6 = false;
  if (pin.client_kind) {
    truth.client_kind = *pin.client_kind;
    truth.scanner = false;
  }
  truth.protocol = pin.protocol ? *pin.protocol
                                : (rng_.chance(spec.http_share) ? AppProtocol::kHttp
                                                                : AppProtocol::kTls);

  // ---- Domain selection: demand for blocked content is time-modulated ----
  std::size_t rank;
  if (pin.domain_rank) {
    rank = *pin.domain_rank;
  } else if (truth.scanner) {
    rank = world_.domains().sample_uniform(rng_);
  } else {
    double interest = world_.blocked_interest(country_index, t);
    if (config_.interest_modifier)
      interest = std::clamp(config_.interest_modifier(spec, t, interest), 0.0, 0.98);
    if (rng_.chance(interest)) {
      rank = world_.sample_blocked_domain(country_index, rng_);
    } else {
      rank = world_.domains().sample_request(rng_);
    }
  }
  const Domain& domain = world_.domains().by_rank(rank);
  truth.domain = domain.name;
  truth.domain_rank = rank;
  truth.category = domain.category;

  const net::IpAddress client_addr =
      pin.client_ip ? *pin.client_ip
                    : world_.geo().sample_client_ip(as_info, truth.ipv6, rng_);
  const std::uint64_t pair_key =
      common::mix64(client_addr.hash() ^ common::mix64(rank));

  // ---- Policy: is this connection tampered, and how? ----
  // Residual censorship (§B) takes precedence: a pair that recently
  // triggered a censor is already being held by the device and is blocked
  // earlier in the connection than the content-based path would be.
  const MethodWeight* method = nullptr;
  if (config_.residual_block_seconds > 0.0) {
    const auto it = residual_until_.find(pair_key);
    if (it != residual_until_.end() && t < it->second &&
        world_.is_blocked(country_index, rank)) {
      residual_method_ = MethodWeight{config_.residual_preset, 1.0,
                                      appproto::AppProtocol::kUnknown};
      method = &residual_method_;
    }
  }
  if (method == nullptr && world_.is_blocked(country_index, rank)) {
    double effective = policy.enforcement * world_.asn_enforcement(truth.asn);
    effective *= truth.protocol == AppProtocol::kTls ? policy.tls_bias : policy.http_bias;
    if (truth.ipv6) effective *= policy.ipv6_bias;
    if (config_.enforcement_modifier)
      effective = config_.enforcement_modifier(spec, t, effective);
    if (rng_.chance(std::min(effective, 1.0)))
      method = world_.pick_method(country_index, truth.asn, truth.protocol, rng_);
  }


  // ---- Endpoints ----
  const net::IpAddress server_ip = truth.ipv6 ? world_.domains().server_ipv6(rank)
                                              : world_.domains().server_ipv4(rank);
  const std::uint16_t server_port = truth.protocol == AppProtocol::kHttp ? 80 : 443;
  const bool keyword_path = method != nullptr && truth.protocol == AppProtocol::kHttp;

  tcp::EndpointConfig client_cfg;
  client_cfg.addr = client_addr;
  client_cfg.port = static_cast<std::uint16_t>(rng_.range(1025, 65500));
  client_cfg.is_client = true;
  client_cfg.stack = roll_client_stack(truth.scanner);
  client_cfg.isn = static_cast<std::uint32_t>(rng_.next());
  client_cfg.kind = truth.client_kind;
  client_cfg.think_time = rng_.uniform(0.005, 0.08);
  client_cfg.inter_segment_gap = rng_.uniform(0.01, 0.06);
  client_cfg.abort_after_response_bytes = static_cast<std::size_t>(rng_.range(1200, 6000));

  // Request payloads (none for probe-style clients).
  const bool sends_data = truth.client_kind == tcp::ClientKind::kNormal ||
                          truth.client_kind == tcp::ClientKind::kVanishAfterRequest ||
                          truth.client_kind == tcp::ClientKind::kAbortMidTransfer ||
                          truth.client_kind == tcp::ClientKind::kRstAfterFin;
  if (sends_data) {
    if (truth.protocol == AppProtocol::kTls) {
      appproto::ClientHelloSpec hello;
      hello.sni = domain.name;
      client_cfg.request_segments.push_back(appproto::build_client_hello(hello, rng_));
      if (rng_.chance(config_.tls_continuation_prob)) {
        // Handshake continuation + early application data: opaque records.
        std::vector<std::uint8_t> continuation(
            static_cast<std::size_t>(rng_.range(80, 520)));
        for (auto& byte : continuation) byte = static_cast<std::uint8_t>(rng_.below(256));
        continuation[0] = 0x17;  // TLS application-data record type
        client_cfg.request_segments.push_back(std::move(continuation));
      }
    } else {
      appproto::HttpRequestSpec request;
      request.host = domain.name;
      request.path = keyword_path ? "/x-blocked/page" + std::to_string(rng_.below(100))
                                  : "/page/" + std::to_string(rng_.below(1000));
      client_cfg.request_segments.push_back(appproto::build_http_request(request));
      if (rng_.chance(config_.http_second_get_prob)) {
        appproto::HttpRequestSpec second = request;
        second.path += "/more";
        client_cfg.request_segments.push_back(appproto::build_http_request(second));
      }
    }
  }

  tcp::EndpointConfig server_cfg;
  server_cfg.addr = server_ip;
  server_cfg.port = server_port;
  server_cfg.is_client = false;
  server_cfg.stack = tcp::IpStackModel::zero_ipid();
  server_cfg.isn = static_cast<std::uint32_t>(rng_.next());
  server_cfg.response_size = static_cast<std::size_t>(
      std::clamp(std::exp(rng_.normal(8.0, 1.0)), 200.0, 60000.0));
  server_cfg.service_delay = rng_.uniform(0.01, 0.08);
  // Most connections close after the exchange; the rest are keep-alives
  // that idle past the 3 s threshold and land in the unmatched
  // possibly-tampered pool (the paper's residual post-data timeouts).
  server_cfg.close_after_response = rng_.chance(0.988);

  tcp::TcpEndpoint client(client_cfg, rng_.fork(rng_.next()));
  tcp::TcpEndpoint server(server_cfg, rng_.fork(rng_.next()));
  client.set_peer(server_ip, server_port);
  server.set_peer(client_cfg.addr, client_cfg.port);

  // ---- Path & middlebox ----
  tcp::SessionConfig session;
  session.start_time = t;
  session.one_way_delay = rng_.uniform(0.02, 0.12);
  session.jitter = 0.004;
  session.loss_rate = config_.loss_rate;
  session.geometry.total_hops = static_cast<int>(rng_.range(8, 22));
  session.geometry.middlebox_hop =
      static_cast<int>(rng_.range(2, std::max(3, session.geometry.total_hops - 3)));

  std::unique_ptr<middlebox::Middlebox> box;
  if (method != nullptr) {
    middlebox::Behavior behavior = middlebox::catalog::by_name(method->preset);
    middlebox::TriggerSet triggers;
    if (behavior.trigger_point != middlebox::TriggerPoint::kClientData) {
      triggers.match_everything();  // IP-based: this flow's destination is blocked
    } else if (behavior.min_data_packets > 1) {
      // Keyword firewalls: cleartext keyword match, or opaque-payload
      // matching for devices with TLS visibility.
      if (keyword_path)
        triggers.add_http_keyword("/x-blocked/");
      else
        triggers.match_everything();
    } else {
      triggers.add_exact_domain(domain.name);
    }
    box = std::make_unique<middlebox::Middlebox>(std::move(behavior), std::move(triggers),
                                                 session.geometry, rng_.fork(rng_.next()));
    truth.tamper_armed = true;
    truth.method = method->preset;
  }

  common::Rng session_rng = rng_.fork(rng_.next());
  const tcp::SessionResult result =
      tcp::simulate_session(client, server, box.get(), session, session_rng);

  // ---- Tap: first 10 inbound packets, 1 s timestamps ----
  capture::ConnectionSample& sample = out.sample;
  sample.client_ip = client_cfg.addr;
  sample.server_ip = server_ip;
  sample.client_port = client_cfg.port;
  sample.server_port = server_port;
  sample.ip_version = truth.ipv6 ? net::IpVersion::kV6 : net::IpVersion::kV4;
  for (const auto& traced : result.server_inbound) {
    if (sample.packets.size() >= config_.max_logged_packets) break;
    sample.log(capture::observe(traced.pkt, config_.timestamp_scale), traced.pkt.payload);
  }
  sample.observation_end_sec =
      static_cast<std::int64_t>(std::floor(result.end_time * config_.timestamp_scale));
  if (config_.keep_raw_inbound) {
    out.raw_inbound.reserve(result.server_inbound.size());
    for (const auto& traced : result.server_inbound) out.raw_inbound.push_back(traced.pkt);
  }

  truth.tampered = box != nullptr && box->triggered();
  if (truth.tampered && config_.residual_block_seconds > 0.0 &&
      rng_.chance(config_.residual_probability)) {
    residual_until_[pair_key] = t + config_.residual_block_seconds;
  }
  return out;
}

void TrafficGenerator::generate(std::size_t count,
                                const std::function<void(LabeledConnection&&)>& sink) {
  for (std::size_t i = 0; i < count; ++i) sink(generate_one());
}

}  // namespace tamper::world

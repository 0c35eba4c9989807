#include "tcp/endpoint.h"

#include <algorithm>

namespace tamper::tcp {

using net::Packet;
using namespace net::tcpflag;

TcpEndpoint::TcpEndpoint(EndpointConfig config, common::Rng rng)
    : config_(std::move(config)), rng_(rng) {
  config_.stack.start_connection(rng_);
  ts_clock_ = static_cast<std::uint32_t>(rng_.below(1u << 30));
  snd_nxt_ = config_.isn;
  snd_una_ = config_.isn;
  syn_retries_left_ = config_.syn_retries;
  data_retries_left_ = config_.data_retries;
  state_ = config_.is_client ? TcpState::kClosed : TcpState::kListen;
}

bool TcpEndpoint::quiescent() const noexcept {
  return vanished_ || state_ == TcpState::kClosed || state_ == TcpState::kReset ||
         state_ == TcpState::kTimeWait;
}

Packet TcpEndpoint::make_packet(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                                std::vector<std::uint8_t> payload) {
  Packet pkt = net::make_tcp_packet(config_.addr, config_.port, peer_addr_, peer_port_,
                                    flags, seq, ack, std::move(payload));
  pkt.tcp.window = config_.window;
  config_.stack.stamp(pkt, rng_);
  // Stacks that negotiated options keep emitting the timestamps option on
  // every segment (RFC 7323). Injected packets typically lack it — one of
  // the forgery signals Weaver et al. exploit.
  if (!pkt.tcp.has(kSyn) && config_.stack.config().emit_tcp_options &&
      !config_.stack.config().minimal_syn_options) {
    pkt.tcp.options.push_back(net::TcpOption::nop_opt());
    pkt.tcp.options.push_back(net::TcpOption::nop_opt());
    pkt.tcp.options.push_back(net::TcpOption::timestamps_opt(++ts_clock_, ts_echo_));
  }
  return pkt;
}

Packet TcpEndpoint::make_syn() {
  Packet pkt = make_packet(kSyn, config_.isn, 0);
  if (config_.stack.config().minimal_syn_options) {
    pkt.tcp.options.push_back(net::TcpOption::mss_opt(config_.mss));
  } else if (config_.stack.config().emit_tcp_options) {
    pkt.tcp.options.push_back(net::TcpOption::mss_opt(config_.mss));
    pkt.tcp.options.push_back(net::TcpOption::sack_permitted_opt());
    pkt.tcp.options.push_back(
        net::TcpOption::timestamps_opt(static_cast<std::uint32_t>(rng_.below(1u << 30)), 0));
    pkt.tcp.options.push_back(net::TcpOption::nop_opt());
    pkt.tcp.options.push_back(net::TcpOption::window_scale_opt(7));
  }
  return pkt;
}

void TcpEndpoint::arm(EndpointActions& actions, TimerKind kind, double delay) {
  const auto idx = static_cast<std::size_t>(kind);
  ++timer_gen_[idx];
  actions.timers.push_back({delay, kind, timer_gen_[idx]});
}

EndpointActions TcpEndpoint::start(common::SimTime /*now*/) {
  EndpointActions actions;
  if (!config_.is_client) {
    state_ = TcpState::kListen;
    return actions;
  }
  state_ = TcpState::kSynSent;
  snd_nxt_ = config_.isn + 1;  // SYN consumes one sequence number
  actions.packets.push_back(make_syn());
  if (config_.kind == ClientKind::kSynOnly) {
    vanished_ = true;  // spoofed source: the SYN+ACK goes nowhere
    return actions;
  }
  if (config_.syn_retries > 0)
    arm(actions, TimerKind::kSynRetransmit, config_.syn_rto);
  return actions;
}

EndpointActions TcpEndpoint::on_packet(const Packet& pkt, common::SimTime now) {
  if (vanished_ || state_ == TcpState::kReset) return {};
  if (const auto ts = pkt.tcp.timestamp_value()) ts_echo_ = *ts;
  if (pkt.tcp.is_rst()) {
    // RFC 9293: RST acceptability checks elided; any RST kills the session.
    state_ = TcpState::kReset;
    vanished_ = true;
    return {};
  }
  return config_.is_client ? client_on_packet(pkt, now) : server_on_packet(pkt, now);
}

void TcpEndpoint::send_request_segment(EndpointActions& actions) {
  if (next_segment_ >= config_.request_segments.size()) return;
  std::vector<std::uint8_t> payload = config_.request_segments[next_segment_];
  ++next_segment_;
  unacked_ = payload;
  unacked_seq_ = snd_nxt_;
  data_retries_left_ = config_.data_retries;
  Packet pkt = make_packet(kPsh | kAck, snd_nxt_, rcv_nxt_, std::move(payload));
  snd_nxt_ += static_cast<std::uint32_t>(pkt.payload.size());
  actions.packets.push_back(std::move(pkt));
  if (next_segment_ < config_.request_segments.size()) {
    arm(actions, TimerKind::kNextSegment, config_.inter_segment_gap);
  }
  if (config_.data_retries > 0) arm(actions, TimerKind::kDataRetransmit, config_.data_rto);
}

EndpointActions TcpEndpoint::client_on_packet(const Packet& pkt, common::SimTime /*now*/) {
  EndpointActions actions;
  const auto& tcp = pkt.tcp;

  if (state_ == TcpState::kSynSent && tcp.is_syn_ack()) {
    rcv_nxt_ = tcp.seq + 1;
    snd_una_ = std::max(snd_una_, tcp.ack);
    switch (config_.kind) {
      case ClientKind::kRstOnSynAck:
        // ZMap-style abort: bare RST, sequence taken from the acked value.
        actions.packets.push_back(make_packet(kRst, snd_nxt_, 0));
        state_ = TcpState::kReset;
        vanished_ = true;
        return actions;
      case ClientKind::kRstAckOnSynAck:
        actions.packets.push_back(make_packet(kRst | kAck, snd_nxt_, rcv_nxt_));
        state_ = TcpState::kReset;
        vanished_ = true;
        return actions;
      case ClientKind::kVanishOnSynAck:
        vanished_ = true;
        return actions;
      case ClientKind::kNormal:
      case ClientKind::kSynOnly:
      case ClientKind::kVanishAfterAck:
      case ClientKind::kVanishAfterRequest:
      case ClientKind::kAbortMidTransfer:
      case ClientKind::kRstAfterFin:
        break;
    }
    actions.packets.push_back(make_packet(kAck, snd_nxt_, rcv_nxt_));
    state_ = TcpState::kEstablished;
    if (config_.kind == ClientKind::kVanishAfterAck) {
      vanished_ = true;
      return actions;
    }
    if (!config_.request_segments.empty())
      arm(actions, TimerKind::kThink, config_.think_time);
    return actions;
  }

  if (state_ == TcpState::kSynSent) return actions;  // stray packet pre-handshake

  // Acknowledgment bookkeeping.
  if (tcp.has(kAck)) {
    snd_una_ = std::max(snd_una_, tcp.ack);
    if (snd_una_ >= snd_nxt_) {
      ++timer_gen_[static_cast<std::size_t>(TimerKind::kDataRetransmit)];  // cancel
      unacked_.clear();
    }
  }

  bool advanced = false;
  if (!pkt.payload.empty()) {
    if (tcp.seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<std::uint32_t>(pkt.payload.size());
      response_bytes_rcvd_ += pkt.payload.size();
      advanced = true;
    }
    // Out-of-order data: fall through and emit a duplicate ACK below.
  }
  if (config_.kind == ClientKind::kAbortMidTransfer &&
      response_bytes_rcvd_ >= config_.abort_after_response_bytes) {
    actions.packets.push_back(make_packet(kRst | kAck, snd_nxt_, rcv_nxt_));
    state_ = TcpState::kReset;
    vanished_ = true;
    return actions;
  }
  if (tcp.has(kFin) && tcp.seq + pkt.payload.size() == rcv_nxt_) {
    rcv_nxt_ += 1;
    fin_received_ = true;
    advanced = true;
  }

  if (config_.kind == ClientKind::kVanishAfterRequest &&
      next_segment_ >= config_.request_segments.size() && next_segment_ > 0) {
    vanished_ = true;
    return actions;  // never ACKs the response
  }

  if (fin_received_ && !fin_sent_ &&
      (config_.kind == ClientKind::kNormal || config_.kind == ClientKind::kRstAfterFin)) {
    // Respond to the server's FIN with our own FIN+ACK (common combined form).
    fin_sent_ = true;
    actions.packets.push_back(make_packet(kFin | kAck, snd_nxt_, rcv_nxt_));
    snd_nxt_ += 1;
    if (config_.kind == ClientKind::kRstAfterFin) {
      // close() raced pending data: the stack follows up with a reset.
      actions.packets.push_back(make_packet(kRst | kAck, snd_nxt_, rcv_nxt_));
      state_ = TcpState::kReset;
      vanished_ = true;
    } else {
      state_ = TcpState::kLastAck;
    }
    return actions;
  }
  if (state_ == TcpState::kLastAck && tcp.has(kAck) && tcp.ack >= snd_nxt_) {
    state_ = TcpState::kClosed;
    return actions;
  }
  if (!pkt.payload.empty() || advanced) {
    actions.packets.push_back(make_packet(kAck, snd_nxt_, rcv_nxt_));
  }
  return actions;
}

void TcpEndpoint::send_response(EndpointActions& actions) {
  std::size_t remaining = config_.response_size;
  // Response bytes are opaque to the tap (only inbound packets are logged),
  // so fill with a fixed pattern.
  while (remaining > 0) {
    const std::size_t chunk = std::min<std::size_t>(remaining, config_.mss);
    std::vector<std::uint8_t> payload(chunk, 0x5a);
    Packet pkt = make_packet(remaining == chunk ? (kPsh | kAck) : kAck, snd_nxt_,
                             rcv_nxt_, std::move(payload));
    response_sent_.push_back({snd_nxt_, static_cast<std::uint32_t>(chunk), false});
    snd_nxt_ += static_cast<std::uint32_t>(chunk);
    actions.packets.push_back(std::move(pkt));
    remaining -= chunk;
  }
  if (config_.close_after_response) {
    fin_sent_ = true;
    response_sent_.push_back({snd_nxt_, 0, true});
    actions.packets.push_back(make_packet(kFin | kAck, snd_nxt_, rcv_nxt_));
    snd_nxt_ += 1;
    state_ = TcpState::kFinWait1;
  }
  if (config_.response_retries > 0 && !response_sent_.empty()) {
    response_retries_left_ = config_.response_retries;
    arm(actions, TimerKind::kResponseRetransmit, config_.response_rto);
  }
}

void TcpEndpoint::retransmit_response(EndpointActions& actions) {
  for (const SentSegment& segment : response_sent_) {
    const std::uint32_t end = segment.seq + segment.length + (segment.fin ? 1 : 0);
    if (end <= snd_una_) continue;  // fully acknowledged
    if (segment.fin) {
      actions.packets.push_back(make_packet(kFin | kAck, segment.seq, rcv_nxt_));
    } else {
      actions.packets.push_back(make_packet(
          kPsh | kAck, segment.seq, rcv_nxt_,
          std::vector<std::uint8_t>(segment.length, 0x5a)));
    }
  }
}

EndpointActions TcpEndpoint::server_on_packet(const Packet& pkt, common::SimTime /*now*/) {
  EndpointActions actions;
  const auto& tcp = pkt.tcp;

  if (tcp.is_syn()) {
    // New connection (or retransmitted SYN): (re)send SYN+ACK.
    peer_addr_ = pkt.src;
    peer_port_ = tcp.src_port;
    rcv_nxt_ = tcp.seq + 1;
    if (state_ == TcpState::kListen) {
      snd_nxt_ = config_.isn + 1;
      state_ = TcpState::kSynReceived;
      // SYN data (e.g. TFO-style payloads) is acknowledged but not parsed here.
      if (!pkt.payload.empty()) rcv_nxt_ += static_cast<std::uint32_t>(pkt.payload.size());
    }
    Packet synack = make_packet(kSyn | kAck, config_.isn, rcv_nxt_);
    if (config_.stack.config().emit_tcp_options) {
      synack.tcp.options.push_back(net::TcpOption::mss_opt(config_.mss));
      synack.tcp.options.push_back(net::TcpOption::sack_permitted_opt());
      synack.tcp.options.push_back(net::TcpOption::window_scale_opt(7));
    }
    actions.packets.push_back(std::move(synack));
    return actions;
  }

  if (state_ == TcpState::kListen) return actions;

  if (tcp.has(kAck)) {
    snd_una_ = std::max(snd_una_, tcp.ack);
    if (state_ == TcpState::kSynReceived) state_ = TcpState::kEstablished;
    if (state_ == TcpState::kFinWait1 && tcp.ack >= snd_nxt_) state_ = TcpState::kFinWait2;
  }

  bool advanced = false;
  if (!pkt.payload.empty() && tcp.seq == rcv_nxt_) {
    rcv_nxt_ += static_cast<std::uint32_t>(pkt.payload.size());
    advanced = true;
    if (!request_seen_) {
      request_seen_ = true;
      arm(actions, TimerKind::kService, config_.service_delay);
    }
  }
  if (tcp.has(kFin) && tcp.seq + pkt.payload.size() == rcv_nxt_) {
    rcv_nxt_ += 1;
    fin_received_ = true;
    advanced = true;
    actions.packets.push_back(make_packet(kAck, snd_nxt_, rcv_nxt_));
    if (!fin_sent_) {
      fin_sent_ = true;
      actions.packets.push_back(make_packet(kFin | kAck, snd_nxt_, rcv_nxt_));
      snd_nxt_ += 1;
      state_ = TcpState::kLastAck;
    } else {
      state_ = TcpState::kClosed;
    }
    return actions;
  }
  if (advanced || !pkt.payload.empty()) {
    actions.packets.push_back(make_packet(kAck, snd_nxt_, rcv_nxt_));
  }
  return actions;
}

EndpointActions TcpEndpoint::on_timer(TimerKind kind, std::uint64_t generation,
                                      common::SimTime /*now*/) {
  EndpointActions actions;
  if (vanished_) return actions;
  if (generation != timer_gen_[static_cast<std::size_t>(kind)]) return actions;  // stale

  switch (kind) {
    case TimerKind::kSynRetransmit:
      if (state_ == TcpState::kSynSent && syn_retries_left_ > 0) {
        --syn_retries_left_;
        actions.packets.push_back(make_syn());
        if (syn_retries_left_ > 0)
          arm(actions, TimerKind::kSynRetransmit, config_.syn_rto * 2.0);
      }
      break;
    case TimerKind::kThink:
      if (state_ == TcpState::kEstablished) send_request_segment(actions);
      break;
    case TimerKind::kNextSegment:
      if (state_ == TcpState::kEstablished) send_request_segment(actions);
      break;
    case TimerKind::kDataRetransmit:
      if (!unacked_.empty() && snd_una_ < snd_nxt_ && data_retries_left_ > 0) {
        --data_retries_left_;
        actions.packets.push_back(
            make_packet(kPsh | kAck, unacked_seq_, rcv_nxt_, unacked_));
        if (data_retries_left_ > 0)
          arm(actions, TimerKind::kDataRetransmit, config_.data_rto * 2.0);
      }
      break;
    case TimerKind::kService:
      if (state_ == TcpState::kEstablished) send_response(actions);
      break;
    case TimerKind::kResponseRetransmit:
      if (snd_una_ < snd_nxt_ && response_retries_left_ > 0 &&
          state_ != TcpState::kReset) {
        --response_retries_left_;
        retransmit_response(actions);
        if (response_retries_left_ > 0)
          arm(actions, TimerKind::kResponseRetransmit, config_.response_rto * 2.0);
      }
      break;
  }
  return actions;
}

}  // namespace tamper::tcp

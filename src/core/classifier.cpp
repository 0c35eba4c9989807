#include "core/classifier.h"

#include <algorithm>
#include <stdexcept>

namespace tamper::core {

namespace {

using capture::ObservedPacket;

/// Within-second ordering rank reflecting TCP causality: the SYN opens the
/// connection, tear-down packets respond to what precedes them, and
/// everything in between is ordered by its own sequence/ack state.
int rank_of(const ObservedPacket& pkt) noexcept {
  if (pkt.is_rst()) return 2;
  if (pkt.is_syn()) return 0;
  return 1;  // ACK / data / FIN: ordered by (seq, kind, ack) below
}

/// Logical reconstruction: timestamps first (1 s buckets), then causality
/// rank, then sequence numbers for data / ack numbers for pure ACKs.
bool logically_before(const ObservedPacket& a, const ObservedPacket& b) noexcept {
  if (a.ts_sec != b.ts_sec) return a.ts_sec < b.ts_sec;
  const int ra = rank_of(a);
  const int rb = rank_of(b);
  if (ra != rb) return ra < rb;
  if (ra != 1) return false;  // SYNs/RSTs keep arrival order
  // Mid-connection packets: the client's own sequence number advances with
  // its data, pure ACKs precede data sharing a seq (handshake ACK vs first
  // PSH), and response ACKs order by cumulative ack.
  if (a.seq != b.seq) return a.seq < b.seq;
  if (a.is_data() != b.is_data()) return !a.is_data();
  if (a.ack != b.ack) return a.ack < b.ack;
  return false;
}

}  // namespace

OrderedPackets order_packets(const capture::ConnectionSample& sample,
                             const ClassifierConfig& config) {
  // Stable insertion sort of at most kMaxLoggedPackets entries: it keeps
  // arrival order among tear-down packets, whose seq/ack values are
  // injector-controlled and carry no ordering information.
  OrderedPackets ordered;
  for (const ObservedPacket& pkt : sample.packets) {
    std::size_t at = ordered.size();
    ordered.push_back(&pkt);
    if (!config.reconstruct_order) continue;
    for (; at > 0 && logically_before(pkt, *ordered[at - 1]); --at)
      ordered[at] = ordered[at - 1];
    ordered[at] = &pkt;
  }
  if (!config.dedupe_retransmissions) return ordered;

  // Collapse retransmissions (same flags/seq/ack/length) of SYNs, data and
  // ACKs — with 1 s timestamps they carry no extra information. Tear-down
  // packets are never collapsed: endpoints do not retransmit RSTs, so
  // repeated identical RSTs are a genuine injector burst and the
  // one-vs-many distinction is load-bearing for Table 1.
  OrderedPackets unique;
  for (const ObservedPacket* pkt : ordered) {
    const bool duplicate =
        !pkt->is_rst() &&
        std::any_of(unique.begin(), unique.end(), [&](const ObservedPacket* seen) {
          return seen->flags == pkt->flags && seen->seq == pkt->seq &&
                 seen->ack == pkt->ack && seen->payload_len == pkt->payload_len;
        });
    if (!duplicate) unique.push_back(pkt);
  }
  return unique;
}

SignatureClassifier::SignatureClassifier(ClassifierConfig config) : config_(config) {
  if (config_.max_packets > capture::kMaxLoggedPackets)
    throw std::invalid_argument("SignatureClassifier: max_packets above kMaxLoggedPackets");
}

Classification SignatureClassifier::classify(const capture::ConnectionSample& sample) const {
  return classify(sample, order_packets(sample, config_));
}

Classification SignatureClassifier::classify(const capture::ConnectionSample& sample,
                                             const OrderedPackets& ordered) const {
  Classification out;
  if (sample.packets.empty()) return out;

  const std::size_t n = ordered.size();

  bool fin_anywhere = false;
  for (const ObservedPacket* pkt : ordered)
    if (pkt->has(net::tcpflag::kFin)) fin_anywhere = true;

  // Locate the first anomaly: the earliest RST, or the earliest >=3 s
  // inactivity gap (internal, or trailing for non-truncated samples when the
  // connection never closed gracefully).
  std::size_t first_rst = n + 1;  // sentinel: no RST
  for (std::size_t i = 0; i < n; ++i) {
    if (ordered[i]->is_rst()) {
      first_rst = i;
      break;
    }
  }
  std::size_t first_gap = n;  // gap *before* ordered[first_gap]
  if (!fin_anywhere) {
    for (std::size_t i = 1; i < n; ++i) {
      if (ordered[i]->ts_sec - ordered[i - 1]->ts_sec >= config_.inactivity_seconds) {
        first_gap = i;
        break;
      }
    }
    const bool truncated = sample.packets.size() >= config_.max_packets;
    if (first_gap == n && !truncated &&
        sample.observation_end_sec - ordered[n - 1]->ts_sec >= config_.inactivity_seconds) {
      first_gap = n;  // trailing silence: anomaly after the last packet
    } else if (first_gap == n) {
      first_gap = n + 1;  // sentinel: no gap anomaly
    }
  } else {
    first_gap = n + 1;
  }

  const std::size_t anomaly = std::min(first_rst, first_gap);
  if (anomaly > n) {
    // No RST, no qualifying inactivity.
    out.graceful = fin_anywhere;
    return out;
  }

  out.possibly_tampered = true;
  out.timeout = anomaly < first_rst;
  if (first_rst <= n) out.first_teardown_index = first_rst;

  // ---- Stage: what did the client get to send before the anomaly? ----
  std::size_t syn_count = 0, ack_count = 0, data_count = 0, fin_count = 0, other_count = 0;
  std::size_t last_data_index = 0;
  std::size_t pre_end = std::min(anomaly, n);
  for (std::size_t i = 0; i < pre_end; ++i) {
    const ObservedPacket& pkt = *ordered[i];
    if (pkt.is_syn()) {
      ++syn_count;
    } else if (pkt.has(net::tcpflag::kFin)) {
      ++fin_count;
    } else if (pkt.is_data()) {
      ++data_count;
      last_data_index = i;
    } else if (pkt.is_pure_ack()) {
      ++ack_count;
    } else {
      ++other_count;
    }
  }

  Stage stage = Stage::kOther;
  if (fin_count == 0 && other_count == 0 && syn_count == 1) {
    if (data_count == 0) {
      if (ack_count == 0) {
        stage = Stage::kPostSyn;
      } else if (ack_count == 1) {
        stage = Stage::kPostAck;
      }
    } else if (data_count == 1 && last_data_index + 1 == pre_end) {
      stage = Stage::kPostPsh;  // anomaly immediately after the first data packet
    } else {
      stage = Stage::kPostData;
    }
  }
  out.stage = stage;

  // ---- Y: tear-down packets from the anomaly onward ----
  std::uint32_t n_rst = 0, n_rst_ack = 0;
  bool first_teardown_is_plain = false;
  // ACK numbers of bare RSTs.
  common::InlineVec<std::uint32_t, capture::kMaxLoggedPackets> plain_rst_acks;
  for (std::size_t i = std::min(anomaly, n); i < n; ++i) {
    const ObservedPacket& pkt = *ordered[i];
    if (!pkt.is_rst()) continue;
    if (pkt.is_rst_ack()) {
      ++n_rst_ack;
    } else {
      if (n_rst == 0 && n_rst_ack == 0) first_teardown_is_plain = true;
      ++n_rst;
      plain_rst_acks.push_back(pkt.ack);
    }
  }
  out.rst_count = n_rst;
  out.rst_ack_count = n_rst_ack;
  const std::uint32_t total = n_rst + n_rst_ack;

  switch (stage) {
    case Stage::kPostSyn:
      if (total == 0)
        out.signature = Signature::kSynNone;
      else if (n_rst > 0 && n_rst_ack > 0)
        out.signature = Signature::kSynRstRstAck;
      else if (n_rst > 0)
        out.signature = Signature::kSynRst;
      else
        out.signature = Signature::kSynRstAck;
      break;

    case Stage::kPostAck:
      if (total == 0)
        out.signature = Signature::kAckNone;
      else if (n_rst > 0 && n_rst_ack > 0)
        out.signature = std::nullopt;  // mixed: not in Table 1 for Post-ACK
      else if (n_rst == 1)
        out.signature = Signature::kAckRst;
      else if (n_rst > 1)
        out.signature = Signature::kAckRstRst;
      else if (n_rst_ack == 1)
        out.signature = Signature::kAckRstAck;
      else
        out.signature = Signature::kAckRstAckRstAck;
      break;

    case Stage::kPostPsh: {
      if (total == 0) {
        out.signature = Signature::kPshNone;
        break;
      }
      if (n_rst >= 1 && n_rst_ack >= 1) {
        out.signature = Signature::kPshRstRstAck;
      } else if (n_rst_ack >= 2) {
        out.signature = Signature::kPshRstAckRstAck;
      } else if (n_rst_ack == 1) {
        out.signature = Signature::kPshRstAck;
      } else if (n_rst == 1) {
        out.signature = Signature::kPshRst;
      } else {
        // More than one bare RST: split on their ACK numbers.
        const bool any_zero = std::any_of(plain_rst_acks.begin(), plain_rst_acks.end(),
                                          [](std::uint32_t a) { return a == 0; });
        const bool any_nonzero = std::any_of(plain_rst_acks.begin(), plain_rst_acks.end(),
                                             [](std::uint32_t a) { return a != 0; });
        const bool all_equal =
            std::adjacent_find(plain_rst_acks.begin(), plain_rst_acks.end(),
                               std::not_equal_to<>()) == plain_rst_acks.end();
        if (any_zero && any_nonzero)
          out.signature = Signature::kPshRstRst0;
        else if (all_equal)
          out.signature = Signature::kPshRstEqRst;
        else
          out.signature = Signature::kPshRstNeqRst;
      }
      break;
    }

    case Stage::kPostData:
      if (total == 0) {
        out.signature = std::nullopt;  // no ⟨PSH;Data → ∅⟩ signature in Table 1
      } else if (n_rst > 0 && n_rst_ack == 0) {
        out.signature = Signature::kDataRst;
      } else if (n_rst_ack > 0 && n_rst == 0) {
        out.signature = Signature::kDataRstAck;
      } else {
        out.signature =
            first_teardown_is_plain ? Signature::kDataRst : Signature::kDataRstAck;
      }
      break;

    case Stage::kOther:
      out.signature = std::nullopt;
      break;
  }
  return out;
}

}  // namespace tamper::core

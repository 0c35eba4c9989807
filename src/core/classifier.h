// The passive tampering-signature classifier (§4).
//
// Input: one ConnectionSample — inbound packets only, 1 s timestamps,
// possibly logged out of order, at most 10 packets. Output: whether the
// connection is "possibly tampered" (a RST, or >=3 s inactivity without a
// FIN handshake) and, if so, which of the 19 Table 1 signatures it matches.
//
// The classifier never sees simulation ground truth; tests verify that it
// blindly recovers the injected tampering labels.
#pragma once

#include <cstdint>
#include <optional>

#include "capture/sample.h"
#include "common/inline_vec.h"
#include "core/signature.h"

namespace tamper::core {

struct ClassifierConfig {
  /// "∅" = no packets for more than this many seconds (paper: 3 s).
  /// Interpreted in the same units as ObservedPacket::ts_sec, so captures
  /// taken at finer granularity scale this accordingly.
  std::int64_t inactivity_seconds = 3;
  /// Samples with this many packets are truncated captures: trailing silence
  /// after them says nothing about the connection (paper logs 10 packets).
  /// At most capture::kMaxLoggedPackets.
  std::size_t max_packets = capture::kMaxLoggedPackets;
  /// Collapse retransmissions (same flags/seq/length) before analysis.
  bool dedupe_retransmissions = true;
  /// Reconstruct logical order from flags/seq within timestamp buckets
  /// (§3.2). Disable only for the ablation study: with 1 s logging and no
  /// reconstruction, scrambled logs misclassify.
  bool reconstruct_order = true;
};

struct Classification {
  bool possibly_tampered = false;
  /// One of the 19 signatures, or nullopt (clean, or possibly tampered but
  /// unmatched — the paper's residual 13.1%).
  std::optional<Signature> signature;
  /// Stage of the anomaly (meaningful when possibly_tampered).
  Stage stage = Stage::kOther;
  /// Graceful FIN close observed with no anomaly.
  bool graceful = false;
  /// The anomaly was an inactivity timeout (Y = ∅) rather than a RST.
  bool timeout = false;
  std::uint32_t rst_count = 0;       ///< plain RSTs in Y
  std::uint32_t rst_ack_count = 0;   ///< RST+ACKs in Y
  /// Index into the *ordered, deduplicated* packet view of the first
  /// tear-down packet, or SIZE_MAX for timeouts.
  std::size_t first_teardown_index = static_cast<std::size_t>(-1);
};

/// A sample's packets in logical order; the pointers alias
/// `sample.packets`.
using OrderedPackets =
    common::InlineVec<const capture::ObservedPacket*, capture::kMaxLoggedPackets>;

/// Reconstruct logical packet order from 1-second timestamps, TCP flags and
/// sequence numbers (§3.2), collapsing retransmissions.
[[nodiscard]] OrderedPackets order_packets(const capture::ConnectionSample& sample,
                                           const ClassifierConfig& config = {});

class SignatureClassifier {
 public:
  /// Throws std::invalid_argument when config.max_packets exceeds
  /// capture::kMaxLoggedPackets.
  explicit SignatureClassifier(ClassifierConfig config = {});

  [[nodiscard]] Classification classify(const capture::ConnectionSample& sample) const;
  /// The same verdict from `ordered`, which must be
  /// order_packets(sample, config()): for callers that also need the
  /// ordered view, so it is built once.
  [[nodiscard]] Classification classify(const capture::ConnectionSample& sample,
                                        const OrderedPackets& ordered) const;

  [[nodiscard]] const ClassifierConfig& config() const noexcept { return config_; }

 private:
  ClassifierConfig config_;
};

}  // namespace tamper::core

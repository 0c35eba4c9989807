// Epoch-tagged partial aggregates — the wire unit between a PoP and the
// central merger.
//
// A partial is a full Pipeline snapshot (every aggregator is a commutative
// monoid, see analysis/aggregates.h) wrapped in a small envelope:
//
//   magic    "TSPART01"                   (8 bytes)
//   version  u32                          (kPartialVersion)
//   pop      u32                          (sending PoP id)
//   epoch    u64                          (1-second buckets / epoch_length)
//   sequence u64                          (cumulative samples at emission)
//   level    u8                           (overload ladder level, v2)
//   shed     u64                          (cumulative admission sheds, v2)
//   first_shed i64                        (capture ts of first shed; 0 never, v2)
//   size     u64                          (payload byte count)
//   payload                               (Pipeline::snapshot stream)
//   checksum u64                          (common::checksum64 over every
//                                          byte before it, header included, v4)
//
// Partials are CUMULATIVE, not incremental: each one carries the PoP's
// entire aggregate state so far, and the merger keeps only the newest per
// PoP. That makes every delivery idempotent — a replayed or duplicated
// partial is recognized by (pop, epoch, sequence) and dropped; a stale one
// (lower sequence, e.g. replayed from the spool after newer state arrived)
// is superseded and dropped. The sequence is the samples-ingested count,
// which survives checkpoint resume, so a restarted PoP continues the same
// sequence space with no duplicate and no gap.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "analysis/pipeline.h"
#include "common/ids.h"
#include "control/overload.h"

namespace tamper::fleet {

inline constexpr char kPartialMagic[8] = {'T', 'S', 'P', 'A', 'R', 'T', '0', '1'};
// v2: the header carries the PoP's control::OverloadState so the merger can
// mark epochs from shedding PoPs coverage-degraded. v3: the payload is the
// v4 Pipeline snapshot, which appends the trends epoch ring — per-PoP
// longitudinal series ride every partial into the merger. v4: the checksum
// is common::checksum64 over the whole image, header included, not FNV-1a
// over the payload alone, so a flipped pop, epoch or sequence bit is
// refused instead of poisoning the merger's dedupe state; the payload and
// the sizes are unchanged. Old versions are refused, like old checkpoints:
// partials are operational state, so a spooled v3 partial is rejected.
inline constexpr std::uint32_t kPartialVersion = 4;

struct PartialHeader {
  /// Strong ids at the API surface; the codec writes their raw
  /// representations (u32 pop, u64 epoch) so the wire bytes are unchanged.
  common::PopId pop{};
  common::EpochId epoch{};     ///< latest_ts_sec (+skew) / epoch_length
  std::uint64_t sequence = 0;  ///< cumulative samples ingested at emission
  /// Overload-control state at emission time (default: never degraded).
  control::OverloadState overload;
};

/// Serialize header + pipeline state into one partial. Pure function of
/// the aggregate state (byte-stable across snapshot -> restore -> snapshot).
[[nodiscard]] std::string encode_partial(const PartialHeader& header,
                                         const analysis::Pipeline& pipeline);

struct DecodeResult {
  bool ok = false;
  std::string error;  ///< human-readable refusal when !ok
  PartialHeader header;
  /// The verified Pipeline::snapshot bytes when ok; a view into the image
  /// that was peeked, valid while that image lives.
  std::span<const std::uint8_t> body;
};

/// Envelope validation (magic, version, header, sizes, checksum) — what
/// the merger runs before paying for a full pipeline restore.
[[nodiscard]] DecodeResult peek_partial(const std::string& payload);

/// Restore the body of an image that peek_partial() accepted. The image
/// must still be alive; it is not checked again.
DecodeResult decode_partial(DecodeResult peeked, analysis::Pipeline& pipeline);

/// peek_partial() then restore into `pipeline`. On refusal the pipeline
/// may be partially written — decode into a pipeline you can discard.
DecodeResult decode_partial(const std::string& payload, analysis::Pipeline& pipeline);

}  // namespace tamper::fleet

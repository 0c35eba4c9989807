// Versioned, checksummed checkpoints of all pipeline aggregate state.
//
// The streaming service survives kill -9 by periodically persisting every
// aggregator (via analysis::Pipeline::snapshot) into a small envelope:
//
//   magic   "TSCKPT01"                    (8 bytes)
//   version u32                           (kVersion)
//   size    u64                           (payload byte count)
//   payload                               (BinWriter stream)
//   checksum u64                          (common::checksum64 over every
//                                          byte before it, header included, v5)
//
// Files are written snapshot-to-temp + fsync + atomic rename, so a crash
// mid-write leaves the previous checkpoint intact. Loading refuses — with
// an error message, never a crash or partial state — anything truncated,
// bit-flipped, version-skewed, or short; tests/test_service.cpp proves the
// refusal for truncation and for a bit flip at every byte offset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/pipeline.h"

namespace tamper::service {

inline constexpr char kCheckpointMagic[8] = {'T', 'S', 'C', 'K', 'P', 'T', '0', '1'};
// v2: DegradedStats gained spool_replay_failures; Pipeline serializes
// latest_ts_sec (fleet epoch tagging). v3: DegradedStats gained the
// overload-control admission counters and spool_dropped. v4: Pipeline
// serializes the trends epoch ring (obs/timeseries.h), so longitudinal
// history survives crash-resume. v5: the checksum is common::checksum64
// over the whole image, header included, not FNV-1a over the payload
// alone; the payload and the sizes are unchanged. Older images are
// refused, not migrated: checkpoints are short-lived operational state,
// not archives.
inline constexpr std::uint32_t kCheckpointVersion = 5;

struct CheckpointMeta {
  std::uint64_t samples_ingested = 0;  ///< pipeline position at snapshot time
  std::uint64_t sequence = 0;          ///< monotone checkpoint counter
};

struct LoadResult {
  bool ok = false;
  std::string error;  ///< human-readable refusal reason when !ok
  CheckpointMeta meta;
};

/// Serialize meta + pipeline into a complete checkpoint image (envelope
/// included). Pure function of the aggregate state: byte-stable across
/// save -> restore -> save.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(const analysis::Pipeline& pipeline,
                                                          const CheckpointMeta& meta);

/// Validate an image and restore it into `pipeline`. On refusal (!ok) the
/// pipeline may be partially written — restore into a pipeline you are
/// willing to discard (the service always decodes into a fresh one).
LoadResult decode_checkpoint(const std::vector<std::uint8_t>& bytes,
                             analysis::Pipeline& pipeline);

/// Atomically persist a checkpoint: write <path>.tmp, fsync, rename.
/// Returns an empty string on success, else the failure reason.
std::string save_checkpoint(const std::string& path, const analysis::Pipeline& pipeline,
                            const CheckpointMeta& meta);

/// Read + decode a checkpoint file. A missing file is a refusal whose
/// error starts with "no checkpoint".
LoadResult load_checkpoint(const std::string& path, analysis::Pipeline& pipeline);

}  // namespace tamper::service

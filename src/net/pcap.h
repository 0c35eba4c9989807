// Classic pcap (libpcap savefile) reader and writer.
//
// Implemented from the published format rather than linking libpcap:
// 24-byte global header (magic 0xa1b2c3d4 microseconds / 0xa1b23c4d
// nanoseconds, either byte order) followed by 16-byte-per-record frames.
// We write LINKTYPE_RAW (101): record payloads are bare IPv4/IPv6 packets,
// which matches net::serialize()/net::parse(). The reader also accepts
// LINKTYPE_ETHERNET captures and skips the 14-byte MAC header.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "net/packet.h"

namespace tamper::net {

inline constexpr std::uint32_t kLinktypeRaw = 101;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

/// Streams packets into a pcap savefile.
class PcapWriter {
 public:
  /// Writes the global header immediately. Stream must outlive the writer.
  explicit PcapWriter(std::ostream& out, std::uint32_t linktype = kLinktypeRaw,
                      std::uint32_t snaplen = 65535);

  /// Serializes and appends one packet record.
  void write(const Packet& pkt);
  /// Appends a pre-serialized raw IP frame.
  void write_raw(common::SimTime timestamp, std::span<const std::uint8_t> frame);

  [[nodiscard]] std::uint64_t packets_written() const noexcept { return count_; }

 private:
  std::ostream& out_;
  std::uint32_t linktype_;
  std::uint64_t count_ = 0;
};

/// How the reader reacts to corrupt input.
///   kStrict:  throw std::runtime_error on a bad global header or an
///             implausible record length (legacy behaviour).
///   kLenient: never throw after construction succeeds; skip corrupt
///             records, attempt to resync on the next plausible record
///             header, and account every skip by cause. A bad global
///             header leaves the reader in a failed state (`ok() == false`)
///             instead of throwing.
enum class PcapReadMode : std::uint8_t { kStrict, kLenient };

/// Pulls packets out of a pcap savefile; tolerates both byte orders and
/// microsecond/nanosecond timestamp variants.
class PcapReader {
 public:
  /// Hard ceiling on a single record allocation regardless of the snaplen
  /// the (possibly hostile) global header claims.
  static constexpr std::uint32_t kMaxRecordBytes = 1u << 26;
  /// How far past a corrupt record the lenient reader scans for the next
  /// plausible record header before giving up.
  static constexpr std::size_t kResyncWindowBytes = 1u << 20;

  /// Reads and validates the global header. Strict mode throws
  /// std::runtime_error on a bad magic number; lenient mode records the
  /// failure (`ok()`, `error()`) and yields no packets. Stream must outlive
  /// the reader.
  explicit PcapReader(std::istream& in, PcapReadMode mode = PcapReadMode::kStrict);

  /// Header view of the next parseable TCP/IP packet, skipping non-IP or
  /// truncated frames; nullopt at end of file. The view's spans alias the
  /// reader's one reused frame buffer: they stay valid until the next
  /// next() call (net::to_packet() makes an owning copy).
  [[nodiscard]] std::optional<PacketView> next();

  [[nodiscard]] std::uint32_t linktype() const noexcept { return linktype_; }
  [[nodiscard]] std::uint64_t frames_read() const noexcept { return stats_.frames_read; }
  /// All skipped frames, regardless of cause.
  [[nodiscard]] std::uint64_t frames_skipped() const noexcept {
    return stats_.skipped_unparseable + stats_.skipped_oversize + stats_.skipped_truncated;
  }

  /// Per-cause accounting of degraded input.
  struct Stats {
    std::uint64_t frames_read = 0;
    std::uint64_t skipped_unparseable = 0;  ///< non-IP ethertype or parse() failure
    std::uint64_t skipped_oversize = 0;     ///< incl_len beyond snaplen/hard cap
    std::uint64_t skipped_truncated = 0;    ///< short frame body or partial header
    std::uint64_t resyncs = 0;              ///< successful scans to a new record
    std::uint64_t resync_failures = 0;      ///< gave up: no plausible header found
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// False when a lenient reader could not validate the global header.
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// Largest incl_len we will honour: the global header's snaplen (with a
  /// floor so lying-small snaplens don't reject legitimate frames) bounded
  /// by kMaxRecordBytes.
  [[nodiscard]] std::uint32_t record_cap() const noexcept;
  /// Scan forward for the next plausible record header (lenient mode).
  [[nodiscard]] bool resync();
  [[nodiscard]] bool plausible_record(const unsigned char* hdr) const noexcept;
  /// The little-endian (or, in a swapped file, big-endian) u32 at `off`.
  [[nodiscard]] std::uint32_t field(const unsigned char* hdr,
                                    std::size_t off) const noexcept;

  std::istream& in_;
  PcapReadMode mode_;
  std::uint32_t linktype_ = kLinktypeRaw;
  std::uint32_t snaplen_ = 65535;
  bool swap_ = false;
  bool nanos_ = false;
  bool exhausted_ = false;
  bool have_good_secs_ = false;
  std::uint32_t last_good_secs_ = 0;
  Stats stats_;
  std::string error_;
  /// The current record's bytes, and resync()'s scan window. Grows to the
  /// largest record (or the window) seen and is never shrunk.
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(65535);
};

/// Convenience: write all packets to a file path.
void write_pcap_file(const std::string& path, const std::vector<Packet>& packets);

/// Convenience: read every TCP/IP packet from a file path.
[[nodiscard]] std::vector<Packet> read_pcap_file(const std::string& path);

}  // namespace tamper::net

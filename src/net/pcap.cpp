#include "net/pcap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace tamper::net {

namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;

void put_u16le(std::ostream& out, std::uint16_t v) {
  const std::array<char, 2> b{static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b.data(), b.size());
}

void put_u32le(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> b{
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(b.data(), b.size());
}

std::uint32_t swap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) | (v >> 24);
}

bool read_u32(std::istream& in, bool swap, std::uint32_t& out) {
  std::array<unsigned char, 4> b{};
  if (!in.read(reinterpret_cast<char*>(b.data()), 4)) return false;
  out = static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
        (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
  if (swap) out = swap32(out);
  return true;
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t linktype, std::uint32_t snaplen)
    : out_(out), linktype_(linktype) {
  put_u32le(out_, kMagicMicros);
  put_u16le(out_, 2);  // version major
  put_u16le(out_, 4);  // version minor
  put_u32le(out_, 0);  // thiszone
  put_u32le(out_, 0);  // sigfigs
  put_u32le(out_, snaplen);
  put_u32le(out_, linktype_);
}

void PcapWriter::write(const Packet& pkt) {
  write_raw(pkt.timestamp, serialize(pkt));
}

void PcapWriter::write_raw(common::SimTime timestamp, std::span<const std::uint8_t> frame) {
  const double floor_s = std::floor(timestamp);
  const auto secs = static_cast<std::uint32_t>(floor_s);
  const auto micros =
      static_cast<std::uint32_t>(std::min(999999.0, (timestamp - floor_s) * 1e6));
  put_u32le(out_, secs);
  put_u32le(out_, micros);
  put_u32le(out_, static_cast<std::uint32_t>(frame.size()));  // captured length
  put_u32le(out_, static_cast<std::uint32_t>(frame.size()));  // original length
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  ++count_;
}

PcapReader::PcapReader(std::istream& in, PcapReadMode mode) : in_(in), mode_(mode) {
  const auto fail = [this](const char* what) {
    if (mode_ == PcapReadMode::kStrict) throw std::runtime_error(what);
    error_ = what;
    exhausted_ = true;
  };
  std::uint32_t magic = 0;
  if (!read_u32(in_, false, magic)) {
    fail("pcap: empty stream");
    return;
  }
  if (magic == kMagicMicros) {
    swap_ = false;
    nanos_ = false;
  } else if (magic == kMagicNanos) {
    swap_ = false;
    nanos_ = true;
  } else if (swap32(magic) == kMagicMicros) {
    swap_ = true;
    nanos_ = false;
  } else if (swap32(magic) == kMagicNanos) {
    swap_ = true;
    nanos_ = true;
  } else {
    fail("pcap: bad magic number");
    return;
  }
  std::uint32_t tmp = 0;
  read_u32(in_, swap_, tmp);  // version
  read_u32(in_, swap_, tmp);  // thiszone
  read_u32(in_, swap_, tmp);  // sigfigs
  read_u32(in_, swap_, snaplen_);
  if (!read_u32(in_, swap_, linktype_)) fail("pcap: truncated header");
}

std::uint32_t PcapReader::record_cap() const noexcept {
  // Honour the header's snaplen, but never trust it past the hard cap and
  // never let a lying-small (or zero) snaplen reject ordinary frames.
  return std::min(kMaxRecordBytes, std::max(snaplen_, 65535u));
}

std::uint32_t PcapReader::field(const unsigned char* hdr, std::size_t off) const noexcept {
  const std::uint32_t v = static_cast<std::uint32_t>(hdr[off]) |
                          (static_cast<std::uint32_t>(hdr[off + 1]) << 8) |
                          (static_cast<std::uint32_t>(hdr[off + 2]) << 16) |
                          (static_cast<std::uint32_t>(hdr[off + 3]) << 24);
  return swap_ ? swap32(v) : v;
}

bool PcapReader::plausible_record(const unsigned char* hdr) const noexcept {
  const std::uint32_t secs = field(hdr, 0);
  const std::uint32_t caplen = field(hdr, 8);
  const std::uint32_t origlen = field(hdr, 12);
  if (caplen == 0 || caplen > record_cap()) return false;
  if (origlen < caplen || origlen > kMaxRecordBytes) return false;
  if (have_good_secs_) {
    // Timestamps near the last good record: ±1 year of drift allowed.
    constexpr std::uint32_t kYear = 365u * 86400u;
    const std::uint32_t lo = last_good_secs_ > kYear ? last_good_secs_ - kYear : 0;
    if (secs < lo || secs > last_good_secs_ + kYear) return false;
  }
  return true;
}

bool PcapReader::resync() {
  // The stream is positioned just past a corrupt 16-byte record header.
  // Scan forward for the next offset whose bytes look like a record header
  // whose *following* record header (or EOF) is also plausible. The scan
  // window is the reused frame buffer: a skip allocates nothing.
  in_.clear();
  const std::streampos scan_start = in_.tellg();
  if (scan_start == std::streampos(-1)) {
    exhausted_ = true;
    ++stats_.resync_failures;
    return false;
  }
  if (buf_.size() < kResyncWindowBytes) buf_.resize(kResyncWindowBytes);
  const unsigned char* window = buf_.data();
  in_.read(reinterpret_cast<char*>(buf_.data()),
           static_cast<std::streamsize>(kResyncWindowBytes));
  const std::size_t got = static_cast<std::size_t>(in_.gcount());
  for (std::size_t off = 0; off + 16 <= got; ++off) {
    if (!plausible_record(window + off)) continue;
    const std::size_t next_hdr = off + 16 + field(window + off, 8);
    // Confirm with the following record when it is inside the window;
    // a record running past the window (or to EOF) is accepted as-is.
    if (next_hdr + 16 <= got && !plausible_record(window + next_hdr)) continue;
    in_.clear();
    in_.seekg(scan_start + static_cast<std::streamoff>(off));
    ++stats_.resyncs;
    return true;
  }
  exhausted_ = true;
  ++stats_.resync_failures;
  return false;
}

std::optional<PacketView> PcapReader::next() {
  while (!exhausted_) {
    // Straight from the stream buffer: one call per record header and one
    // per body, without an istream sentry around each.
    std::streambuf& src = *in_.rdbuf();
    std::array<unsigned char, 16> hdr{};
    const auto got = src.sgetn(reinterpret_cast<char*>(hdr.data()), hdr.size());
    if (got < 16) {
      if (got >= 4) ++stats_.skipped_truncated;  // partial trailing record header
      return std::nullopt;
    }
    const std::uint32_t secs = field(hdr.data(), 0);
    const std::uint32_t subsecs = field(hdr.data(), 4);
    const std::uint32_t caplen = field(hdr.data(), 8);
    if (caplen > record_cap()) {
      // Hostile incl_len: never allocate it. Strict treats the file as
      // corrupt; lenient skips and hunts for the next record boundary.
      if (mode_ == PcapReadMode::kStrict)
        throw std::runtime_error("pcap: implausible record length");
      ++stats_.skipped_oversize;
      if (!resync()) return std::nullopt;
      continue;
    }
    if (buf_.size() < caplen) buf_.resize(caplen);
    if (src.sgetn(reinterpret_cast<char*>(buf_.data()), caplen) < caplen) {
      ++stats_.skipped_truncated;
      return std::nullopt;
    }
    ++stats_.frames_read;
    const double ts = static_cast<double>(secs) +
                      static_cast<double>(subsecs) * (nanos_ ? 1e-9 : 1e-6);

    // Only this record's bytes: the buffer may still hold a longer frame's
    // tail past them.
    std::span<const std::uint8_t> frame(buf_.data(), caplen);
    if (linktype_ == kLinktypeEthernet) {
      if (frame.size() < 14) {
        ++stats_.skipped_unparseable;
        continue;
      }
      const std::uint16_t ethertype = static_cast<std::uint16_t>((frame[12] << 8) | frame[13]);
      if (ethertype != 0x0800 && ethertype != 0x86dd) {
        ++stats_.skipped_unparseable;
        continue;
      }
      frame = frame.subspan(14);
    }
    auto view = parse_view(frame, ts);
    if (!view) {
      ++stats_.skipped_unparseable;
      continue;
    }
    have_good_secs_ = true;
    last_good_secs_ = secs;
    return view;
  }
  return std::nullopt;
}

void write_pcap_file(const std::string& path, const std::vector<Packet>& packets) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("pcap: cannot open for writing: " + path);
  PcapWriter writer(out);
  for (const auto& pkt : packets) writer.write(pkt);
}

std::vector<Packet> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open for reading: " + path);
  PcapReader reader(in);
  std::vector<Packet> out;
  while (auto view = reader.next()) out.push_back(to_packet(*view));
  return out;
}

}  // namespace tamper::net

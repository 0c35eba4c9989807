// Little-endian binary serialization for checkpoint payloads.
//
// Deliberately tiny: fixed-width integers, IEEE doubles (bit-cast), and
// length-prefixed strings. BinReader throws BinUnderrun on any read past
// the end of the buffer, so a truncated payload surfaces as one typed
// exception the checkpoint loader turns into a clean refusal — never as
// garbage state in an aggregator.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tamper::common {

class BinUnderrun : public std::runtime_error {
 public:
  BinUnderrun() : std::runtime_error("binary payload truncated") {}
};

/// FNV-1a over a byte buffer, one byte per multiply. Kept for digests that
/// pin bytes across commits; envelopes are sealed with checksum64().
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(const std::uint8_t* data,
                                                 std::size_t size) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The little-endian u64 at `p` (any alignment).
[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int b = 7; b >= 0; --b) v = v << 8 | p[b];
  }
  return v;
}

/// The envelope checksum of checkpoints and partials. Four independent
/// lanes each take one little-endian u64 of every 32-byte block; the last
/// 1..31 bytes are zero-padded into up to four more words, one per lane.
/// The length and then the lanes are folded one after another and mixed.
/// Every step and every fold is a bijection in its running state for a
/// fixed input and in the input for a fixed state, so two buffers of the
/// same length that differ only inside one aligned 8-byte word always get
/// different checksums (FNV-1a's guarantee for one byte, widened to eight).
[[nodiscard]] inline std::uint64_t checksum64(const std::uint8_t* data,
                                              std::size_t size) noexcept {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
  // Add, rotate, odd multiply: each is invertible in either argument.
  const auto step = [](std::uint64_t state, std::uint64_t word) {
    return std::rotl(state + word * kP2, 31) * kP1;
  };
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; size - i >= 32; i += 32) {
    lane[0] = step(lane[0], load_le64(data + i));
    lane[1] = step(lane[1], load_le64(data + i + 8));
    lane[2] = step(lane[2], load_le64(data + i + 16));
    lane[3] = step(lane[3], load_le64(data + i + 24));
  }
  if (i < size) {
    std::uint8_t tail[32] = {};
    std::memcpy(tail, data + i, size - i);
    for (std::size_t w = 0; w * 8 < size - i; ++w)
      lane[w] = step(lane[w], load_le64(tail + w * 8));
  }
  std::uint64_t h = step(kP3, size);
  for (const std::uint64_t l : lane) h = step(h, l);
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

class BinWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// The bytes of one u64() / f64() call per element, in one copy.
  void u64s(std::span<const std::uint64_t> v) { put_all(v); }
  void f64s(std::span<const double> v) { put_all(v); }
  /// One little-endian value of any fixed-width integer or IEEE type.
  template <typename T>
  void put(T v) {
    v = to_le(v);
    append(&v, sizeof v);
  }
  void str(std::string_view s) {
    u64(s.size());
    append(s.data(), s.size());
  }

  /// The payload frame of checkpoints and partials: u64 size, the bytes
  /// `body(*this)` writes, then the u64 checksum64() of every byte written
  /// so far, header and size included. The body is written in place and
  /// the size field patched once it is known.
  template <typename Body>
  void checksummed(Body&& body) {
    const std::size_t size_at = size();
    u64(0);
    const std::size_t begin = size();
    std::forward<Body>(body)(*this);
    patch_u64(size_at, size() - begin);
    u64(checksum64(buf_.data(), size()));
  }

  /// Bytes written so far: the offset of the next write.
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  static T to_le(T v) noexcept {
    if constexpr (std::endian::native == std::endian::big) {
      auto raw = std::bit_cast<std::array<std::uint8_t, sizeof(T)>>(v);
      std::reverse(raw.begin(), raw.end());
      v = std::bit_cast<T>(raw);
    }
    return v;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    if (at > buf_.size() || buf_.size() - at < sizeof v)
      throw std::out_of_range("BinWriter::patch_u64 past the end");
    v = to_le(v);
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }
  template <typename T>
  void put_all(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      append(v.data(), v.size_bytes());
    } else {
      for (const T x : v) put(x);
    }
  }
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

class BinReader {
 public:
  BinReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit BinReader(const std::vector<std::uint8_t>& bytes)
      : BinReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return load<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return load<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return load<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) throw BinUnderrun();
    const std::uint8_t* p = take(static_cast<std::size_t>(n));
    return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }

  /// The pair of BinWriter::put().
  template <typename T>
  [[nodiscard]] T load() {
    const std::uint8_t* p = take(sizeof(T));
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      std::uint8_t swapped[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) swapped[i] = p[sizeof(T) - 1 - i];
      std::memcpy(&v, swapped, sizeof(T));
    }
    return v;
  }

 private:
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) throw BinUnderrun();
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tamper::common

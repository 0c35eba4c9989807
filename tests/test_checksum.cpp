#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "net/checksum.h"

namespace tamper::net {
namespace {

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3: {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
  const std::array<std::uint8_t, 8> data = {0x00, 0x01, 0xf2, 0x03,
                                            0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(checksum_fold(data), 0xddf2);
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 3> data = {0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300.
  EXPECT_EQ(checksum_fold(data), 0x0402);
}

TEST(Checksum, EmptyBuffer) {
  EXPECT_EQ(checksum_fold({}), 0);
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

TEST(Checksum, CarryFolding) {
  const std::array<std::uint8_t, 4> data = {0xff, 0xff, 0x00, 0x01};
  EXPECT_EQ(checksum_fold(data), 0x0000 + 0x0001);  // ffff+0001 wraps to 0001
}

TEST(Checksum, InitialValueAccumulates) {
  const std::array<std::uint8_t, 2> data = {0x00, 0x10};
  EXPECT_EQ(checksum_fold(data, 0x20), 0x30);
}

TEST(TcpChecksum, ValidatesKnownV4Segment) {
  // Hand-checked minimal TCP header between 10.0.0.1 and 10.0.0.2.
  const IpAddress src = IpAddress::v4(10, 0, 0, 1);
  const IpAddress dst = IpAddress::v4(10, 0, 0, 2);
  std::array<std::uint8_t, 20> seg = {
      0x04, 0xd2, 0x00, 0x50,              // ports 1234 -> 80
      0x00, 0x00, 0x00, 0x01,              // seq
      0x00, 0x00, 0x00, 0x00,              // ack
      0x50, 0x02, 0xff, 0xff,              // offset 5, SYN, window
      0x00, 0x00, 0x00, 0x00,              // checksum placeholder, urg
  };
  const std::uint16_t sum = tcp_checksum(src, dst, seg);
  seg[16] = static_cast<std::uint8_t>(sum >> 8);
  seg[17] = static_cast<std::uint8_t>(sum);
  // A segment containing its own correct checksum verifies to zero.
  EXPECT_EQ(tcp_checksum(src, dst, seg), 0);
}

TEST(TcpChecksum, V6PseudoHeader) {
  const IpAddress src = *IpAddress::parse("2001:db8::1");
  const IpAddress dst = *IpAddress::parse("2001:db8::2");
  std::array<std::uint8_t, 21> seg{};
  seg[13] = 0x10;  // ACK
  seg[20] = 0x41;  // one payload byte
  const std::uint16_t sum = tcp_checksum(src, dst, seg);
  seg[16] = static_cast<std::uint8_t>(sum >> 8);
  seg[17] = static_cast<std::uint8_t>(sum);
  EXPECT_EQ(tcp_checksum(src, dst, seg), 0);
}

TEST(TcpChecksum, SensitiveToAddressChange) {
  std::array<std::uint8_t, 20> seg{};
  const std::uint16_t a =
      tcp_checksum(IpAddress::v4(1, 2, 3, 4), IpAddress::v4(5, 6, 7, 8), seg);
  const std::uint16_t b =
      tcp_checksum(IpAddress::v4(1, 2, 3, 5), IpAddress::v4(5, 6, 7, 8), seg);
  EXPECT_NE(a, b);
}

TEST(TcpChecksum, SensitiveToPayloadChange) {
  std::array<std::uint8_t, 24> seg{};
  const IpAddress src = IpAddress::v4(1, 2, 3, 4);
  const IpAddress dst = IpAddress::v4(5, 6, 7, 8);
  const std::uint16_t a = tcp_checksum(src, dst, seg);
  seg[23] = 0x01;
  EXPECT_NE(a, tcp_checksum(src, dst, seg));
}

// ---- common::checksum64, the checkpoint and partial envelope checksum ----

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return bytes;
}

// Pins the function across commits: every sealed checkpoint and partial
// depends on these bytes. The lengths cover empty, a tail shorter than a
// word, one word, a tail of three words plus seven bytes, one block, a
// block plus one byte, and two blocks plus a five-byte tail.
TEST(Checksum64, KnownAnswerVectors) {
  const std::pair<std::size_t, std::uint64_t> vectors[] = {
      {0, 0x0e7e8caea4fe636fULL},  {1, 0x20bf1e3bb91a98c2ULL},
      {7, 0x6b2a4f83b555515cULL},  {8, 0x3efd0979fca39f8dULL},
      {31, 0x6e1b3a46b5c727b9ULL}, {32, 0xdbd785fb7e2f8d99ULL},
      {33, 0xca4f003fbb114f2cULL}, {69, 0x7fd3651e1f3e1346ULL},
  };
  for (const auto& [n, expected] : vectors) {
    const auto bytes = pattern(n);
    EXPECT_EQ(common::checksum64(bytes.data(), n), expected) << n << " bytes";
  }
}

// The guarantee the envelopes rely on: two buffers of one length that
// differ only inside one aligned 8-byte word never share a checksum. Every
// single-bit flip at every offset, for lengths that end in every tail
// shape, plus random rewrites of whole words.
TEST(Checksum64, EveryChangeInsideOneWordIsDetected) {
  common::Rng rng(0xc5);
  for (std::size_t n = 1; n <= 72; ++n) {
    auto bytes = pattern(n);
    const std::uint64_t clean = common::checksum64(bytes.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(common::checksum64(bytes.data(), n), clean) << n << " bytes, byte " << i;
        bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    for (std::size_t word = 0; word * 8 < n; ++word) {
      const std::size_t end = std::min(n, word * 8 + 8);
      auto rewritten = bytes;
      bool changed = false;
      for (std::size_t i = word * 8; i < end; ++i) {
        rewritten[i] = static_cast<std::uint8_t>(rng.next());
        changed = changed || rewritten[i] != bytes[i];
      }
      if (changed) {
        EXPECT_NE(common::checksum64(rewritten.data(), n), clean);
      }
    }
  }
}

TEST(Checksum64, LengthIsFoldedAndAlignmentIsIrrelevant) {
  // A zero-padded tail must not make "x" and "x\0" the same image.
  std::vector<std::uint8_t> bytes = {0x78};
  const std::uint64_t one = common::checksum64(bytes.data(), 1);
  bytes.push_back(0);
  EXPECT_NE(common::checksum64(bytes.data(), 2), one);
  const std::vector<std::uint8_t> zeros(64, 0);
  for (std::size_t n = 0; n < 64; ++n)
    EXPECT_NE(common::checksum64(zeros.data(), n), common::checksum64(zeros.data(), n + 1));

  // Loads go through memcpy: the same bytes at an odd address agree.
  const auto clean = pattern(100);
  std::vector<std::uint8_t> shifted(101);
  std::copy(clean.begin(), clean.end(), shifted.begin() + 1);
  EXPECT_EQ(common::checksum64(shifted.data() + 1, 100), common::checksum64(clean.data(), 100));
}

}  // namespace
}  // namespace tamper::net

#include "capture/anonymize.h"

#include "common/rng.h"

namespace tamper::capture {

net::IpAddress anonymize_address(const net::IpAddress& addr,
                                 const AnonymizeConfig& config) {
  const int keep_bits = addr.is_v4() ? config.v4_prefix_bits : config.v6_prefix_bits;
  const int total_bits = addr.is_v4() ? 32 : 128;
  const int offset = addr.is_v4() ? 96 : 0;  // mapped layout offset

  std::array<std::uint8_t, 16> bytes = addr.bytes();
  // Zero (or pseudonymize) everything past the kept prefix.
  for (int bit = keep_bits; bit < total_bits; ++bit) {
    const int absolute = offset + bit;
    bytes[static_cast<std::size_t>(absolute / 8)] &=
        static_cast<std::uint8_t>(~(1u << (7 - absolute % 8)));
  }
  if (config.pseudonymize) {
    // Keyed pseudonym of the kept prefix, folded into the host bits so
    // distinct prefixes stay distinct without revealing the original.
    std::uint64_t h = config.key;
    for (std::uint8_t b : bytes) h = common::mix64(h ^ b);
    for (int bit = keep_bits; bit < total_bits; ++bit) {
      const int absolute = offset + bit;
      if ((h >> (bit % 64)) & 1u)
        bytes[static_cast<std::size_t>(absolute / 8)] |=
            static_cast<std::uint8_t>(1u << (7 - absolute % 8));
    }
  }
  if (addr.is_v4()) {
    return net::IpAddress::v4((std::uint32_t{bytes[12]} << 24) |
                              (std::uint32_t{bytes[13]} << 16) |
                              (std::uint32_t{bytes[14]} << 8) | bytes[15]);
  }
  return net::IpAddress::v6(bytes);
}

void anonymize(ConnectionSample& sample, const AnonymizeConfig& config) {
  sample.client_ip = anonymize_address(sample.client_ip, config);
  if (config.scramble_client_port) {
    sample.client_port = static_cast<std::uint16_t>(
        common::mix64(config.key ^ (std::uint64_t{sample.client_port} << 17)) & 0xffff);
  }
  if (config.strip_payloads) {
    // Each packet's payload_len is retained: it is header-derived and
    // classification (is_data, stage inference) depends on it.
    sample.data_payload = {};
    sample.syn_payload = {};
  }
}

}  // namespace tamper::capture

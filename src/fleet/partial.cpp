#include "fleet/partial.h"

#include <cstring>
#include <utility>

#include "common/binio.h"

namespace tamper::fleet {

namespace {
// magic + version + pop + epoch + sequence + overload(1+8+8) + size + checksum
constexpr std::size_t kEnvelopeOverhead = 8 + 4 + 4 + 8 + 8 + (1 + 8 + 8) + 8 + 8;
}  // namespace

std::string encode_partial(const PartialHeader& header,
                           const analysis::Pipeline& pipeline) {
  common::BinWriter out;
  for (char c : kPartialMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kPartialVersion);
  out.u32(header.pop.value());
  out.u64(header.epoch.value());
  out.u64(header.sequence);
  out.u8(static_cast<std::uint8_t>(header.overload.level));
  out.u64(header.overload.shed_samples);
  out.i64(header.overload.first_shed_ts_sec);
  out.checksummed([&](common::BinWriter& payload) { pipeline.snapshot(payload); });
  const std::vector<std::uint8_t>& image = out.bytes();
  return std::string(reinterpret_cast<const char*>(image.data()), image.size());
}

DecodeResult peek_partial(const std::string& payload) {
  DecodeResult result;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(payload.data());
  if (payload.size() < kEnvelopeOverhead) {
    result.error = "partial too short to hold an envelope (" +
                   std::to_string(payload.size()) + " bytes)";
    return result;
  }
  if (std::memcmp(bytes, kPartialMagic, sizeof kPartialMagic) != 0) {
    result.error = "bad partial magic";
    return result;
  }
  common::BinReader header(bytes + sizeof kPartialMagic,
                           payload.size() - sizeof kPartialMagic);
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint8_t level = 0;
  try {
    version = header.u32();
    // Version gates the header shape: refuse foreign versions before
    // interpreting the rest of the envelope as this version's fields.
    if (version != kPartialVersion) {
      result.error = "unsupported partial version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kPartialVersion) +
                     ")";
      return result;
    }
    result.header.pop = common::PopId(header.u32());
    result.header.epoch = common::EpochId(header.u64());
    result.header.sequence = header.u64();
    level = header.u8();
    result.header.overload.shed_samples = header.u64();
    result.header.overload.first_shed_ts_sec = header.i64();
    payload_size = header.u64();
  } catch (const common::BinUnderrun&) {
    result.error = "truncated partial header";
    return result;
  }
  if (level > static_cast<std::uint8_t>(control::Level::kShedding)) {
    result.error = "partial overload level out of range (" + std::to_string(level) + ")";
    return result;
  }
  result.header.overload.level = static_cast<control::Level>(level);
  if (payload_size != payload.size() - kEnvelopeOverhead) {
    result.error = "partial payload size mismatch (declared " +
                   std::to_string(payload_size) + ", actual " +
                   std::to_string(payload.size() - kEnvelopeOverhead) + ")";
    return result;
  }
  const std::size_t sealed = payload.size() - 8;
  if (common::load_le64(bytes + sealed) != common::checksum64(bytes, sealed)) {
    result.error = "partial checksum mismatch (corrupt envelope)";
    return result;
  }
  result.body = {bytes + (kEnvelopeOverhead - 8), static_cast<std::size_t>(payload_size)};
  result.ok = true;
  return result;
}

DecodeResult decode_partial(DecodeResult peeked, analysis::Pipeline& pipeline) {
  if (!peeked.ok) return peeked;
  try {
    common::BinReader reader(peeked.body.data(), peeked.body.size());
    pipeline.restore(reader);
    if (!reader.exhausted()) {
      peeked.ok = false;
      peeked.error = "partial has " + std::to_string(reader.remaining()) +
                     " trailing payload bytes";
    }
  } catch (const std::exception& e) {
    peeked.ok = false;
    peeked.error = std::string("partial payload rejected: ") + e.what();
  }
  return peeked;
}

DecodeResult decode_partial(const std::string& payload, analysis::Pipeline& pipeline) {
  DecodeResult peeked = peek_partial(payload);
  if (!peeked.ok) return peeked;
  return decode_partial(std::move(peeked), pipeline);
}

}  // namespace tamper::fleet

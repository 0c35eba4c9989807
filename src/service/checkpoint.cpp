#include "service/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/binio.h"

namespace tamper::service {

namespace {

constexpr std::size_t kEnvelopeOverhead = 8 + 4 + 8 + 8;  // magic + version + size + checksum

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// fsync a path's parent directory so the rename itself is durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const analysis::Pipeline& pipeline,
                                            const CheckpointMeta& meta) {
  common::BinWriter out;
  for (char c : kCheckpointMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kCheckpointVersion);
  out.checksummed([&](common::BinWriter& payload) {
    payload.u64(meta.samples_ingested);
    payload.u64(meta.sequence);
    pipeline.snapshot(payload);
  });
  return out.take();
}

LoadResult decode_checkpoint(const std::vector<std::uint8_t>& bytes,
                             analysis::Pipeline& pipeline) {
  LoadResult result;
  if (bytes.size() < kEnvelopeOverhead) {
    result.error = "checkpoint too short to hold an envelope (" +
                   std::to_string(bytes.size()) + " bytes)";
    return result;
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0) {
    result.error = "bad checkpoint magic";
    return result;
  }
  common::BinReader header(bytes.data() + sizeof kCheckpointMagic,
                           bytes.size() - sizeof kCheckpointMagic);
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  try {
    version = header.u32();
    payload_size = header.u64();
  } catch (const common::BinUnderrun&) {
    result.error = "truncated checkpoint header";
    return result;
  }
  if (version != kCheckpointVersion) {
    result.error = "unsupported checkpoint version " + std::to_string(version) +
                   " (this build reads version " + std::to_string(kCheckpointVersion) + ")";
    return result;
  }
  if (payload_size != bytes.size() - kEnvelopeOverhead) {
    result.error = "checkpoint payload size mismatch (declared " +
                   std::to_string(payload_size) + ", actual " +
                   std::to_string(bytes.size() - kEnvelopeOverhead) + ")";
    return result;
  }
  const std::size_t sealed = bytes.size() - 8;
  if (common::load_le64(bytes.data() + sealed) != common::checksum64(bytes.data(), sealed)) {
    result.error = "checkpoint checksum mismatch (corrupt or truncated image)";
    return result;
  }
  const std::uint8_t* payload = bytes.data() + (kEnvelopeOverhead - 8);
  try {
    common::BinReader reader(payload, static_cast<std::size_t>(payload_size));
    result.meta.samples_ingested = reader.u64();
    result.meta.sequence = reader.u64();
    pipeline.restore(reader);
    if (!reader.exhausted()) {
      result.error = "checkpoint has " + std::to_string(reader.remaining()) +
                     " trailing payload bytes";
      return result;
    }
  } catch (const std::exception& e) {
    result.error = std::string("checkpoint payload rejected: ") + e.what();
    return result;
  }
  result.ok = true;
  return result;
}

std::string save_checkpoint(const std::string& path, const analysis::Pipeline& pipeline,
                            const CheckpointMeta& meta) {
  const std::vector<std::uint8_t> image = encode_checkpoint(pipeline, meta);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return errno_string("open checkpoint temp file");
  const bool wrote = std::fwrite(image.data(), 1, image.size(), f) == image.size() &&
                     std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return errno_string("write checkpoint temp file");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return errno_string("rename checkpoint into place");
  }
  fsync_parent_dir(path);
  return {};
}

LoadResult load_checkpoint(const std::string& path, analysis::Pipeline& pipeline) {
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.error = "no checkpoint at " + path;
    return result;
  }
  // Sized once and read in one call, not a char at a time. file_size also
  // refuses what is not a regular file, such as a directory, which opens
  // as a stream all the same.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::vector<std::uint8_t> bytes;
  if (!ec) bytes.resize(static_cast<std::size_t>(size));
  if (ec || !in.read(reinterpret_cast<char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()))) {
    result.error = "read error on " + path;
    return result;
  }
  return decode_checkpoint(bytes, pipeline);
}

}  // namespace tamper::service

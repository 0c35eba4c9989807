// Must not compile. A C-style narrowing cast, the silent truncation a wire
// parser must not hide. The OldStyleCast ctest builds this file with
// tamper_net's compile options and expects -Werror=old-style-cast to stop it.
#include <cstdint>

namespace tamper::net {

std::uint16_t old_style_cast_probe(long raw) {
  return (std::uint16_t)raw;
}

}  // namespace tamper::net

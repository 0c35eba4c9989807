// Fixture: R4 must fire on a non-bridge reinterpret_cast in the
// wire-parsing layer.
#include <cstdint>

struct Header {
  std::uint16_t length;
};

const Header* view(const unsigned char* bytes) {
  return reinterpret_cast<const Header*>(bytes);  // R4: type-punning
}

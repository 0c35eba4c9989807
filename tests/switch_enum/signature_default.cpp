// Must not compile. A switch over the signature taxonomy whose default:
// swallows every enumerator it does not name — the bug that would let a
// newly added signature vanish from the measurement. The SwitchEnum ctest
// builds this file with the project warning flags and expects the build
// to stop on -Werror=switch-enum.
#include "core/signature.h"

namespace tamper::core {

int switch_enum_probe(Signature sig) {
  switch (sig) {
    case Signature::kSynNone:
      return 0;
    case Signature::kSynRst:
      return 1;
    default:
      return -1;
  }
}

}  // namespace tamper::core

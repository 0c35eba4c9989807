// Must not compile. A switch over the overload ladder whose default: maps
// every unnamed level to "no policy change" — the bug that would defeat
// the degradation contract exactly when a new level is added. The
// SwitchEnum ctest builds this file with the project warning flags and
// expects the build to stop on -Werror=switch-enum.
#include "control/overload.h"

namespace tamper::control {

bool switch_enum_probe(Level level) {
  switch (level) {
    case Level::kNormal:
      return false;
    case Level::kSampleDown:
      return true;
    default:
      return false;
  }
}

}  // namespace tamper::control

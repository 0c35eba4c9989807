// Must not compile. The classifier sees only the inbound headers of a
// sampled connection; the simulator's ground truth (where a client is, which
// middlebox sits on its path) lives in world/ and must stay out of its
// reach. The Layering ctest builds this file with tamper_core's include
// path, which holds core/, capture/, net/ and common/, and expects the
// include to be not found.
#include "world/geo.h"

// Must not compile. The wire parsers sit at the bottom of the classifier
// side; the pipeline that consumes their output is above them. The Layering
// ctest builds this file with tamper_net's include path, which holds only
// net/ and common/, and expects the include to be not found.
#include "analysis/pipeline.h"

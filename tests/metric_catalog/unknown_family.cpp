// Must not compile. A registration that names a family missing from the
// obs/families.h catalog (a misspelling of tamper_queue_depth). obs::family
// is consteval, so the MetricCatalog ctest expects the build to stop on the
// failed lookup: "... is not a constant expression".
#include "obs/families.h"

namespace tamper::obs {

Gauge& metric_catalog_probe(Registry& registry) {
  return registry.gauge(family("tamper_queue_dpeth"));
}

}  // namespace tamper::obs

// The obs/families.h catalog against the exported metric surface, in both
// directions: every family a full service stack exports is a catalog entry
// with the same kind and help, and every catalog entry is exported by that
// stack, except the capture-side mirrors only `tamperscope classify`
// registers.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/pipeline.h"
#include "control/overload.h"
#include "fleet/merger.h"
#include "obs/anomaly.h"
#include "obs/clock.h"
#include "obs/families.h"
#include "obs/metrics.h"
#include "service/sink.h"
#include "service/supervisor.h"
#include "world/world.h"

namespace tamper {
namespace {

namespace fs = std::filesystem;

const world::World& shared_world() {
  static const world::World kWorld{
      world::WorldConfig{.domains = {.domain_count = 1'000}, .seed = 0xca7}};
  return kWorld;
}

struct Exported {
  std::string help;
  std::string kind;
};

/// name -> (help, kind) from the # HELP / # TYPE lines of an exposition.
std::map<std::string, Exported> exported_families(const std::string& text) {
  std::map<std::string, Exported> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    for (const std::string_view tag : {"# HELP ", "# TYPE "}) {
      if (!line.starts_with(tag)) continue;
      const std::size_t space = line.find(' ', tag.size());
      const std::string name = line.substr(tag.size(), space - tag.size());
      const std::string rest = line.substr(space + 1);
      (tag == "# HELP " ? out[name].help : out[name].kind) = rest;
    }
  }
  return out;
}

TEST(MetricCatalog, ExportedSurfaceMatchesCatalog) {
  const fs::path dir = fs::temp_directory_path() / "tamper_metric_catalog";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::ManualClock clock;
  obs::Registry registry;
  analysis::Pipeline pipeline(shared_world());
  pipeline.set_obs(&registry);
  control::OverloadConfig overload;
  overload.clock = &clock;
  control::OverloadController controller(overload);
  controller.set_obs(&registry);
  fleet::Merger merger(shared_world(), {});
  merger.set_obs(&registry);
  obs::AnomalyWatchdog watchdog;
  watchdog.set_obs(&registry);
  service::FileSink sink((dir / "report.json").string());
  service::ReportEmitter emitter(sink, {}, (dir / "spool").string(), 7, [](double) {});
  service::ServiceConfig config;
  config.metrics = &registry;
  config.clock = &clock;
  std::map<std::string, Exported> exported;
  {
    service::SupervisedService service(shared_world(), config, &emitter);
    exported = exported_families(registry.prometheus_text());
  }
  controller.set_obs(nullptr);
  merger.set_obs(nullptr);
  pipeline.set_obs(nullptr);

  std::set<std::string_view> catalogued;
  for (const obs::Family& f : obs::kFamilies) catalogued.insert(f.name);
  for (const auto& [name, family] : exported) {
    if (!name.starts_with("tamper_")) continue;
    EXPECT_TRUE(catalogued.contains(name)) << name << " is exported but not catalogued";
  }

  std::size_t classify_only = 0;
  for (const obs::Family& f : obs::kFamilies) {
    const auto it = exported.find(std::string(f.name));
    if (f.name.starts_with("tamper_reader_") || f.name.starts_with("tamper_sampler_") ||
        f.name == "tamper_classify_flows_total") {
      ++classify_only;
      EXPECT_EQ(it, exported.end()) << f.name << " is registered outside classify";
      continue;
    }
    ASSERT_NE(it, exported.end()) << f.name << " is catalogued but never exported";
    EXPECT_EQ(it->second.help, f.help) << f.name;
    EXPECT_EQ(it->second.kind, obs::name(f.kind)) << f.name;
  }
  EXPECT_EQ(classify_only, 10u);
  fs::remove_all(dir);
}

TEST(MetricCatalog, EntryOverloadsRejectAKindOrLabelMismatch) {
  obs::Registry registry;
  EXPECT_THROW(registry.gauge(obs::family("tamper_queue_pushed_total")),
               std::logic_error);
  EXPECT_THROW(registry.counter(obs::family("tamper_queue_shed_total")),
               std::logic_error);
  EXPECT_THROW(registry.counter_family(obs::family("tamper_queue_pushed_total")),
               std::logic_error);
  EXPECT_THROW(registry.histogram(obs::family("tamper_queue_depth")), std::logic_error);
  const obs::Family& shed = obs::family("tamper_queue_shed_total");
  EXPECT_EQ(registry.counter_family(shed).label_keys(),
            std::vector<std::string>{std::string(shed.label)});
}

}  // namespace
}  // namespace tamper

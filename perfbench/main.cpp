// tamperbench: one workload of the end-to-end benchmark per invocation.
//
//   tamperbench --workload pcap_report|service_stream|fleet_merge
//               --seed N --seconds S --trace 0|1 --state-dir DIR
//               [--scale F] [--corrupt none|drop-frame|flip-partial]
//
// Prints an info line, then (last) the result line: correct, attempted,
// failed, and the metrics the workload measured: end-to-end ones when
// --trace 0, per-layer ones when --trace 1. perfbench/run.py checks them
// against BENCHMARK.json. Exit code 1 when an output check failed, 2 on bad
// arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using tamperbench::Corruption;
using tamperbench::Options;

int usage(const std::string& why) {
  std::cerr << "tamperbench: " << why << "\n"
            << "usage: tamperbench --workload pcap_report|service_stream|fleet_merge "
               "--seed N --seconds S --trace 0|1 --state-dir DIR [--scale F] "
               "[--corrupt none|drop-frame|flip-partial]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--state-dir") {
      opts.state_dir = value;
    } else if (arg == "--scale") {
      opts.scale = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--corrupt") {
      if (value == "drop-frame") {
        opts.corrupt = Corruption::kDropFrame;
      } else if (value == "flip-partial") {
        opts.corrupt = Corruption::kFlipPartial;
      } else if (value != "none") {
        return usage("unknown corruption " + value);
      }
    } else {
      return usage("unknown option " + arg);
    }
  }
  if (!(opts.seconds > 0.0) || !(opts.scale > 0.0)) return usage("--seconds and --scale must be > 0");
  if (opts.state_dir.empty()) return usage("--state-dir is required");

  tamperbench::Result result;
  try {
    if (opts.workload == "pcap_report") {
      tamperbench::run_pcap_report(opts, result);
    } else if (opts.workload == "service_stream") {
      tamperbench::run_service_stream(opts, result);
    } else if (opts.workload == "fleet_merge") {
      tamperbench::run_fleet_merge(opts, result);
    } else {
      return usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "tamperbench: " << opts.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  if (opts.trace) result.metric("bench.failed_frac", result.failed_frac(), "frac");
  result.print();
  return result.correct() ? 0 : 1;
}

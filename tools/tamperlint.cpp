// tamperlint — run the repo's contract lint (see src/lint/lint.h for the
// rule catalog). Exit status: 0 clean, 1 findings, 2 usage or I/O error.
//
// The gate form walks the source tree under the repo root; a deliberate
// exception is accepted only by a per-site `tamperlint-allow` comment:
//
//   tamperlint --root .
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

constexpr const char* kUsage = R"(usage: tamperlint [options] [path...]

Runs libtamper's contract lint over C++ sources: per-file rules R0-R5 plus
the cross-file rules R8 and R13 (lock order, strong ID parameters). Paths
may be files or directories (recursed; build*/, .git/, lint_fixtures/
skipped). With no paths, lints src tools tests bench examples under --root.
A deliberate exception is accepted only by a per-site
`// tamperlint-allow(RN): reason` comment.

options:
  --root=DIR            repository root; paths resolve against it and
                        findings are reported relative to it
  --format=FMT          text (default) or sarif
  --output=FILE         write findings to FILE instead of stdout
  --rules=R1,R8         run only the listed rules (default: all); an
                        unknown or retired id is a usage error
  --list-rules          print the rule catalog and exit
  -h, --help            this help
)";

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  tamper::lint::Config config;
  std::string root = ".";
  std::string format = "text";
  std::string output;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) { return arg.substr(std::strlen(flag)); };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value("--format=");
    } else if (arg.rfind("--output=", 0) == 0) {
      output = value("--output=");
    } else if (arg.rfind("--rules=", 0) == 0) {
      config.rules = split_csv(value("--rules="));
      for (const std::string& id : config.rules)
        if (id != "R0" && !tamper::lint::known_rule(id)) {
          std::cerr << "tamperlint: --rules: unknown rule id '" << id
                    << "' (see --list-rules)\n";
          return 2;
        }
    } else if (arg == "--list-rules") {
      std::cout << tamper::lint::rule_catalog();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "tamperlint: unknown option " << arg << '\n' << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (format != "text" && format != "sarif") {
    std::cerr << "tamperlint: --format must be text or sarif\n";
    return 2;
  }

  std::vector<std::string> errors;
  const std::vector<tamper::lint::Finding> findings =
      tamper::lint::lint_paths(root, paths, config, errors);

  std::string rendered;
  if (format == "sarif") {
    rendered = tamper::lint::format_sarif(findings);
  } else {
    rendered = tamper::lint::format_text(findings);
    if (!findings.empty())
      rendered += std::to_string(findings.size()) +
                  " finding(s). Suppress a deliberate exception with "
                  "`// tamperlint-allow(RN): reason`.\n";
  }
  if (output.empty()) {
    std::cout << rendered;
  } else if (!write_file(output, rendered)) {
    std::cerr << "tamperlint: cannot write " << output << '\n';
    return 2;
  }
  for (const auto& err : errors) std::cerr << "tamperlint: " << err << '\n';

  if (!errors.empty()) return 2;
  return findings.empty() ? 0 : 1;
}

// tamperlint — run the repo's contract lint (see src/lint/lint.h for the
// rule catalog). Exit status: 0 clean, 1 findings, 2 usage or I/O error.
//
// The gate form pins file discovery to a checked-in manifest and filters
// accepted pre-existing findings through a baseline:
//
//   tamperlint --root . --manifest tools/tamperlint.manifest
//              --verify-manifest --baseline tools/tamperlint.baseline
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "lint/baseline.h"
#include "lint/lint.h"

namespace {

constexpr const char* kUsage = R"(usage: tamperlint [options] [path...]

Runs libtamper's contract lint over C++ sources: per-file rules R0-R5 plus
the cross-file rules R8 and R13 (lock order, strong ID parameters). Paths
may be files or directories (recursed; build*/, .git/, lint_fixtures/
skipped). With no paths and no manifest, lints src tools tests bench
examples under --root.

options:
  --root=DIR            repository root; manifest/default paths resolve
                        against it and findings are reported relative to it
  --manifest=FILE       lint exactly the files listed (repo-relative paths);
                        the gate's discovery mode - build trees and generated
                        files can never leak into a scan
  --verify-manifest     fail (exit 2) if the manifest disagrees with a fresh
                        source walk, with the missing/extra paths
  --write-manifest=FILE walk sources under --root, write FILE, and exit
  --baseline=FILE       drop findings listed in FILE (accepted pre-existing
                        findings); stale entries are warned to stderr
  --write-baseline=FILE write the current findings as a baseline and exit
  --format=FMT          text (default), json, or sarif
  --output=FILE         write findings to FILE instead of stdout
  --jobs=N              per-file scan threads (default: hardware concurrency)
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

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

/// Load repo-relative paths into SourceFiles whose .path stays relative, so
/// findings, baselines, and SARIF URIs are stable across checkouts.
std::vector<tamper::lint::SourceFile> load_relative(
    const std::string& root, const std::vector<std::string>& rel_paths,
    std::vector<std::string>& errors) {
  std::vector<tamper::lint::SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::string content;
    if (!read_file(root + "/" + rel, content)) {
      errors.push_back(rel + ": unreadable");
      continue;
    }
    files.push_back({rel, std::move(content)});
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  tamper::lint::Config config;
  std::string root = ".";
  std::string format = "text";
  std::string output;
  std::string manifest_path;
  std::string write_manifest_path;
  std::string baseline_path;
  std::string write_baseline_path;
  bool verify_manifest = false;
  int jobs = 0;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) { return arg.substr(std::strlen(flag)); };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--manifest=", 0) == 0) {
      manifest_path = value("--manifest=");
    } else if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (arg.rfind("--write-manifest=", 0) == 0) {
      write_manifest_path = value("--write-manifest=");
    } else if (arg == "--verify-manifest") {
      verify_manifest = true;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = value("--write-baseline=");
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value("--format=");
    } else if (arg.rfind("--output=", 0) == 0) {
      output = value("--output=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(value("--jobs=").c_str());
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
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "tamperlint: --format must be text, json, or sarif\n";
    return 2;
  }

  std::vector<std::string> errors;
  std::vector<tamper::lint::Finding> findings;

  if (!write_manifest_path.empty()) {
    const std::vector<std::string> walked =
        tamper::lint::walk_sources(root, config, errors);
    for (const auto& err : errors) std::cerr << "tamperlint: " << err << '\n';
    if (!errors.empty()) return 2;
    if (!write_file(write_manifest_path, tamper::lint::format_manifest(walked))) {
      std::cerr << "tamperlint: cannot write " << write_manifest_path << '\n';
      return 2;
    }
    std::cerr << "tamperlint: wrote " << walked.size() << " paths to "
              << write_manifest_path << '\n';
    return 0;
  }

  if (!paths.empty() && manifest_path.empty()) {
    // Legacy/ad-hoc mode: explicit files or directory trees, reported with
    // the paths as given.
    findings = tamper::lint::lint_paths(paths, config, errors);
  } else {
    std::vector<std::string> rel_paths;
    if (!manifest_path.empty()) {
      std::string text;
      if (!read_file(manifest_path, text)) {
        std::cerr << "tamperlint: cannot read manifest " << manifest_path << '\n';
        return 2;
      }
      rel_paths = tamper::lint::parse_manifest(text);
      if (verify_manifest) {
        const std::vector<std::string> walked =
            tamper::lint::walk_sources(root, config, errors);
        bool drift = false;
        for (const std::string& p : walked)
          if (std::find(rel_paths.begin(), rel_paths.end(), p) == rel_paths.end()) {
            std::cerr << "tamperlint: source not in manifest: " << p << '\n';
            drift = true;
          }
        for (const std::string& p : rel_paths)
          if (std::find(walked.begin(), walked.end(), p) == walked.end()) {
            std::cerr << "tamperlint: manifest entry missing on disk: " << p << '\n';
            drift = true;
          }
        if (drift) {
          std::cerr << "tamperlint: manifest drift — regenerate with "
                       "--write-manifest="
                    << manifest_path << '\n';
          return 2;
        }
      }
    } else {
      rel_paths = tamper::lint::walk_sources(root, config, errors);
    }
    findings = tamper::lint::lint_repo(load_relative(root, rel_paths, errors), config,
                                       jobs);
  }

  if (!write_baseline_path.empty()) {
    if (!write_file(write_baseline_path, tamper::lint::format_baseline(findings))) {
      std::cerr << "tamperlint: cannot write " << write_baseline_path << '\n';
      return 2;
    }
    std::cerr << "tamperlint: wrote " << findings.size() << " entries to "
              << write_baseline_path << '\n';
    return 0;
  }

  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, text)) {
      std::cerr << "tamperlint: cannot read baseline " << baseline_path << '\n';
      return 2;
    }
    const auto baseline = tamper::lint::parse_baseline(text, errors);
    const auto stale = tamper::lint::apply_baseline(findings, baseline);
    for (const auto& e : stale)
      std::cerr << "tamperlint: stale baseline entry (finding fixed — delete it): "
                << e.rule << '\t' << e.path << '\t' << e.message << '\n';
  }

  std::string rendered;
  if (format == "json") {
    rendered = tamper::lint::format_json(findings);
  } else if (format == "sarif") {
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

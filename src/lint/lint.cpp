#include "lint/lint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "lint/index.h"
#include "lint/text.h"

namespace tamper::lint {

namespace {

namespace fs = std::filesystem;

using internal::find_word;
using internal::split_lines;
using internal::strip_literals;
using internal::trimmed;

[[nodiscard]] bool path_contains(const std::string& path, std::string_view fragment) {
  return path.find(fragment) != std::string::npos;
}

[[nodiscard]] bool is_header(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

[[nodiscard]] bool is_source_file_path(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp") || path.ends_with(".cc") ||
         path.ends_with(".cpp") || path.ends_with(".cxx");
}

[[nodiscard]] bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" || ext == ".cxx";
}

constexpr std::string_view kAllowDirective = "tamperlint-allow(";
constexpr std::string_view kNothrowMarker = "tamperlint: nothrow-path";

/// Per-line suppression state parsed from the raw text.
struct Directives {
  /// suppressed[line] holds rule ids suppressed on that 0-based line.
  std::vector<std::vector<std::string>> suppressed;
  std::vector<Finding> malformed;  ///< R0 findings
};

[[nodiscard]] Directives parse_directives(const std::string& path,
                                          const std::vector<std::string>& commented,
                                          const std::vector<std::string>& stripped) {
  Directives d;
  d.suppressed.resize(commented.size() + 1);
  for (std::size_t i = 0; i < commented.size(); ++i) {
    const std::size_t at = commented[i].find(kAllowDirective);
    if (at == std::string::npos) continue;
    const std::size_t id_begin = at + kAllowDirective.size();
    const std::size_t close = commented[i].find(')', id_begin);
    const std::string id =
        close == std::string::npos ? "" : commented[i].substr(id_begin, close - id_begin);
    std::string reason;
    if (close != std::string::npos) {
      const std::size_t colon = commented[i].find(':', close);
      if (colon != std::string::npos) reason = trimmed(commented[i].substr(colon + 1));
    }
    if (!known_rule(id) || reason.empty()) {
      d.malformed.push_back(
          {"R0", path, static_cast<int>(i + 1),
           "malformed suppression (want `// tamperlint-allow(<rule id>): reason`); "
           "it suppresses nothing"});
      continue;
    }
    d.suppressed[i].push_back(id);
    // A directive alone on its line covers the next line instead.
    if (trimmed(stripped[i]).empty() && i + 1 < d.suppressed.size())
      d.suppressed[i + 1].push_back(id);
  }
  return d;
}

/// 0-based inclusive line ranges of functions marked nothrow-path.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> nothrow_regions(
    const std::vector<std::string>& commented, const std::vector<std::string>& stripped) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (std::size_t i = 0; i < commented.size(); ++i) {
    if (commented[i].find(kNothrowMarker) == std::string::npos) continue;
    // Find the function's opening brace, then walk to its close.
    int depth = 0;
    bool open_seen = false;
    std::size_t begin = i;
    for (std::size_t j = i; j < stripped.size(); ++j) {
      for (const char c : stripped[j]) {
        if (c == '{') {
          if (!open_seen) begin = j;
          open_seen = true;
          ++depth;
        } else if (c == '}') {
          if (open_seen && --depth == 0) {
            regions.emplace_back(begin, j);
            j = stripped.size();  // break outer
            break;
          }
        }
      }
      if (open_seen && depth == 0) break;
    }
  }
  return regions;
}

struct FileLinter {
  const std::string& path;
  const Config& config;
  const std::vector<std::string>& commented;
  const std::vector<std::string>& stripped;
  const Directives& directives;
  std::vector<Finding>& out;

  [[nodiscard]] bool rule_enabled(std::string_view id) const {
    if (config.rules.empty()) return true;
    return std::find(config.rules.begin(), config.rules.end(), id) != config.rules.end();
  }

  void report(std::string_view rule, std::size_t line0, std::string message) const {
    const auto& sup = directives.suppressed[line0];
    if (std::find(sup.begin(), sup.end(), rule) != sup.end()) return;
    out.push_back({std::string(rule), path, static_cast<int>(line0 + 1), std::move(message)});
  }

  // R1 — determinism: no ambient time or randomness.
  void rule_determinism() const {
    for (const auto& fragment : config.determinism_allowlist)
      if (path_contains(path, fragment)) return;
    static constexpr std::string_view kBanned[] = {
        "rand",        "srand",     "random_device", "system_clock",
        "gettimeofday", "localtime", "gmtime",        "mktime",
        "clock_gettime", "std::time",
    };
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      const std::string& line = stripped[i];
      for (const auto token : kBanned) {
        if (find_word(line, token) == std::string_view::npos) continue;
        report("R1", i,
               "nondeterminism: `" + std::string(token) +
                   "` outside common/sim_clock and common/rng; derive time from "
                   "SimClock and randomness from a seeded Rng");
        break;  // one R1 finding per line is enough
      }
      // Bare C `time(...)` call (std::time is caught above; member access
      // like `.time(` is someone else's accessor, not the libc call).
      std::size_t pos = 0;
      while ((pos = find_word(line, "time", pos)) != std::string_view::npos) {
        const char before = pos > 0 ? line[pos - 1] : '\0';
        std::size_t after = pos + 4;
        while (after < line.size() && line[after] == ' ') ++after;
        if (after < line.size() && line[after] == '(' && before != '.' &&
            before != ':' && before != '>') {
          report("R1", i,
                 "nondeterminism: wall-clock `time()` call; use the simulated "
                 "clock (common/sim_clock)");
          break;
        }
        pos += 4;
      }
    }
  }

  // R2 — ordered emission: no unordered containers in emission files.
  void rule_ordered_emission() const {
    const bool emission =
        std::any_of(config.emission_paths.begin(), config.emission_paths.end(),
                    [&](const std::string& f) { return path_contains(path, f); });
    if (!emission) return;
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      for (const std::string_view token : {"unordered_map", "unordered_set"}) {
        if (find_word(stripped[i], token) == std::string_view::npos) continue;
        report("R2", i,
               "report/JSON emission path touches " + std::string(token) +
                   "; iteration order leaks into output — emit from std::map or "
                   "sorted keys");
        break;
      }
    }
  }

  // R3 — nothrow-path functions must not contain throwing ops.
  void rule_nothrow_path() const {
    for (const auto& [begin, end] : nothrow_regions(commented, stripped)) {
      for (std::size_t i = begin; i <= end && i < stripped.size(); ++i) {
        const std::string& line = stripped[i];
        if (find_word(line, "throw") != std::string_view::npos)
          report("R3", i, "throw inside a nothrow-path function; count the failure "
                          "into DegradedStats and drop the sample instead");
        if (line.find(".at(") != std::string::npos ||
            line.find("->at(") != std::string::npos)
          report("R3", i, "throwing accessor .at() inside a nothrow-path function; "
                          "use find()/bounds-checked access");
        if (line.find("std::sto") != std::string::npos)
          report("R3", i, "throwing conversion std::sto* inside a nothrow-path "
                          "function; use std::from_chars");
      }
    }
  }

  // R4 — no type punning in the wire-parsing layer. (C-style casts are
  // -Werror=old-style-cast on tamper_net; no flag bans reinterpret_cast.)
  void rule_type_punning() const {
    if (!path_contains(path, config.net_path)) return;
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      const std::string& line = stripped[i];
      const std::size_t rc = find_word(line, "reinterpret_cast");
      if (rc == std::string_view::npos) continue;
      const std::size_t args = line.find('<', rc);
      const std::string target =
          args == std::string::npos
              ? ""
              : trimmed(line.substr(args + 1, line.find('>', args) - args - 1));
      if (target != "char*" && target != "const char*" && target != "char *" &&
          target != "const char *") {
        report("R4", i,
               "reinterpret_cast in net parser (only the char* stream-I/O "
               "bridge is sanctioned); parse through binio instead");
      }
    }
  }

  // R5 — header hygiene.
  void rule_header_hygiene(std::string_view content) const {
    if (!is_header(path)) return;
    if (content.find("#pragma once") == std::string_view::npos)
      report("R5", 0, "header is missing #pragma once");
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      const std::size_t pos = find_word(stripped[i], "using");
      if (pos == std::string_view::npos) continue;
      if (find_word(stripped[i], "namespace", pos) != std::string_view::npos)
        report("R5", i, "`using namespace` in a header leaks into every includer");
    }
  }
};

/// Per-file work shared by lint_source and lint_repo: run the per-file
/// rules and (when `index` is non-null) extract the structural index with
/// the suppression map attached.
[[nodiscard]] std::vector<Finding> lint_one(const std::string& path,
                                            std::string_view content,
                                            const Config& config, FileIndex* index) {
  const std::string stripped_text = strip_literals(content, /*keep_comments=*/false);
  const std::vector<std::string> stripped = split_lines(stripped_text);
  const std::vector<std::string> commented =
      split_lines(strip_literals(content, /*keep_comments=*/true));
  const Directives directives = parse_directives(path, commented, stripped);

  std::vector<Finding> out;
  FileLinter linter{path, config, commented, stripped, directives, out};
  if (linter.rule_enabled("R0"))
    out.insert(out.end(), directives.malformed.begin(), directives.malformed.end());
  if (linter.rule_enabled("R1")) linter.rule_determinism();
  if (linter.rule_enabled("R2")) linter.rule_ordered_emission();
  if (linter.rule_enabled("R3")) linter.rule_nothrow_path();
  if (linter.rule_enabled("R4")) linter.rule_type_punning();
  if (linter.rule_enabled("R5")) linter.rule_header_hygiene(content);

  if (index != nullptr) {
    *index = index_file(path, stripped_text);
    index->suppressed = directives.suppressed;
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace

bool known_rule(std::string_view id) {
  // Retired ids (lint.h) are not reused; the live ones keep their numbers.
  static constexpr std::string_view kLive[] = {"R1", "R2", "R3", "R4",
                                               "R5", "R8", "R13"};
  return std::find(std::begin(kLive), std::end(kLive), id) != std::end(kLive);
}

std::vector<Finding> lint_source(std::string path, std::string_view content,
                                 const Config& config) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return lint_one(path, content, config, nullptr);
}

std::vector<Finding> lint_repo(const std::vector<SourceFile>& files,
                               const Config& config, int jobs) {
  // Deterministic order: sort by path up front; every downstream stage
  // (index merge, graph walks, final sort) sees the same sequence no
  // matter how many threads scanned.
  std::vector<const SourceFile*> ordered;
  ordered.reserve(files.size());
  for (const SourceFile& f : files) ordered.push_back(&f);
  std::sort(ordered.begin(), ordered.end(),
            [](const SourceFile* a, const SourceFile* b) { return a->path < b->path; });

  struct Slot {
    std::vector<Finding> findings;
    FileIndex index;
    bool indexed = false;
  };
  std::vector<Slot> slots(ordered.size());

  unsigned n = jobs > 0 ? static_cast<unsigned>(jobs)
                        : std::max(1u, std::thread::hardware_concurrency());
  n = std::min<unsigned>({n, 16u, static_cast<unsigned>(std::max<std::size_t>(
                                      ordered.size(), 1))});

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= ordered.size()) return;
      std::string path = ordered[i]->path;
      std::replace(path.begin(), path.end(), '\\', '/');
      if (!is_source_file_path(path)) continue;
      slots[i].findings = lint_one(path, ordered[i]->content, config, &slots[i].index);
      slots[i].indexed = true;
    }
  };
  if (n <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Serial merge in path order, then the cross-file pass.
  std::vector<Finding> findings;
  RepoIndex repo;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    findings.insert(findings.end(), std::make_move_iterator(slots[i].findings.begin()),
                    std::make_move_iterator(slots[i].findings.end()));
    if (slots[i].indexed) repo.files.push_back(std::move(slots[i].index));
  }
  const std::vector<Finding> cross = repo_rule_findings(repo, config);
  findings.insert(findings.end(), cross.begin(), cross.end());

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return findings;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths,
                                const Config& config, std::vector<std::string>& errors) {
  std::vector<std::string> files;
  for (const auto& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied, ec);
      if (ec) {
        errors.push_back(p + ": " + ec.message());
        continue;
      }
      for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
        const std::string name = it->path().filename().string();
        if (it->is_directory()) {
          const bool excluded =
              name.rfind("build", 0) == 0 ||
              std::find(config.exclude_dirs.begin(), config.exclude_dirs.end(), name) !=
                  config.exclude_dirs.end();
          if (excluded) it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && is_source_file(it->path()))
          files.push_back(it->path().string());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      errors.push_back(p + ": not a file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      errors.push_back(file + ": unreadable");
      continue;
    }
    sources.push_back({file, std::string((std::istreambuf_iterator<char>(in)),
                                         std::istreambuf_iterator<char>())});
  }
  return lint_repo(sources, config, /*jobs=*/1);
}

std::string format_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const auto& f : findings)
    out << f.path << ':' << f.line << ": " << f.rule << ": " << f.message << '\n';
  return out.str();
}

namespace {
void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}
}  // namespace

std::string format_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "  {\"rule\": ";
    json_escape(out, f.rule);
    out << ", \"path\": ";
    json_escape(out, f.path);
    out << ", \"line\": " << f.line << ", \"message\": ";
    json_escape(out, f.message);
    out << '}' << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return out.str();
}

std::string rule_catalog() {
  return
      "R0  directive hygiene — malformed tamperlint-allow comments\n"
      "R1  determinism      — no wall-clock/ambient randomness outside "
      "common/sim_clock, common/rng\n"
      "R2  ordered emission — no unordered containers in report/JSON emission "
      "files\n"
      "R3  nothrow path     — no throw/.at()/std::sto* in `// tamperlint: "
      "nothrow-path` functions\n"
      "R4  no type punning  — no reinterpret_cast in src/net/ beyond the "
      "char* stream-I/O bridge\n"
      "R5  header hygiene   — #pragma once required; `using namespace` "
      "forbidden in headers\n"
      "R8  lock order       — the MutexLock/UniqueLock acquisition graph is "
      "cycle-free (no static deadlock)\n"
      "R13 strong ID parameters — ID-taxonomy parameter names in src/ "
      "headers use common/ids.h types, never raw ints/strings\n";
}

}  // namespace tamper::lint

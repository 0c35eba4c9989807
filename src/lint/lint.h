// tamperlint — repo-specific static checks for libtamper's contracts.
//
// A deliberately small linter (no libclang) in two passes. Pass A runs
// token/line-level rules over each file independently; pass B builds a
// repo-wide structural index (lock-acquisition nestings, header
// declarations) and evaluates cross-file rules over it. Each rule
// encodes an invariant the paper's reproducibility or the service's
// robustness depends on, with a per-site suppression syntax so exceptions
// are always visible and justified in the diff:
//
//   R1  determinism  — no wall-clock or ambient randomness (time(),
//       std::rand, random_device, chrono::system_clock) outside the
//       sanctioned sources (common/sim_clock, common/rng). All randomness
//       flows from seeds; all time flows from the simulated clock.
//   R2  ordered emission — report/JSON emission files must not touch
//       unordered containers; iteration order would leak into the output
//       and break byte-stable reports.
//   R3  nothrow path — functions marked `// tamperlint: nothrow-path`
//       must not contain throw statements or the classic throwing ops
//       (.at(), std::sto*); the ingest contract is "count and drop",
//       never propagate.
//   R4  no type punning — src/net/ parsers must not use reinterpret_cast
//       (except the char* stream-I/O bridge); bytes are read through binio
//       helpers. C-style casts there are -Werror=old-style-cast on
//       tamper_net, so narrowing is a static_cast, explicit and greppable.
//   R5  header hygiene — headers use #pragma once and never
//       `using namespace`.
//
// Cross-file rules (need the whole file set, evaluated by lint_repo):
//
//   R8  lock order — the static acquisition graph of MutexLock/UniqueLock
//       nestings must be cycle-free across the whole repo; a cycle is a
//       potential deadlock TSan only reports when the interleaving fires.
//   R13 strong ID parameters — a parameter in a src/ header whose name is
//       one of the ID-taxonomy words (Config::id_taxonomy: pop, asn,
//       country, epoch, flow, domain, or their _id forms) must not
//       have a raw int/string type (Config::id_raw_types); the strong
//       types in common/ids.h exist so a swapped (pop, epoch) argument
//       pair is a compile error, not a silently corrupted merge. Wire
//       codecs and other genuine raw-representation boundaries carry
//       per-site suppressions.
//
// Retired ids, not reused: R7 (module layering) is the build's own: each
// module's include path holds only the modules it links, and configure
// checks that the link graph is acyclic (src/CMakeLists.txt), so an upward
// include does not compile (the Layering.* probes prove it). R9 and R11
// (switch exhaustiveness over the signature taxonomy and the overload
// ladder) are -Werror=switch and -Werror=switch-enum in the root
// CMakeLists.txt, on in every build; R12 (trends series resolve to a
// metric) is the typed obs::SeriesSource catalog, which
// Pipeline::sample_trends switches over exhaustively; R6 (metric names
// snake_case, registered once) and R10 (registered families match a
// DESIGN.md inventory) are the obs/families.h catalog, whose
// static_asserts and consteval obs::family() lookup the compiler checks.
//
// Suppression:  // tamperlint-allow(R3): <non-empty reason>
// on the offending line, or alone on the line directly above it. A
// malformed directive (missing reason, unknown rule) is itself reported
// as R0 and suppresses nothing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tamper::lint {

struct Finding {
  std::string rule;     ///< "R0".."R13" (R6, R7, R9, R10, R11, R12 retired)
  std::string path;     ///< as given (normalized to forward slashes)
  int line = 0;         ///< 1-based
  std::string message;
};

struct Config {
  /// R1: path fragments whose files may use ambient time/randomness (the
  /// sanctioned sources of both).
  std::vector<std::string> determinism_allowlist = {
      "src/common/sim_clock",
      "src/common/rng",
  };
  /// R2: path fragments of report/JSON emission files.
  std::vector<std::string> emission_paths = {
      "src/analysis/report.",
      "src/common/json.",
      "src/common/table.",
      "src/obs/log.",
      "src/obs/metrics.",
      "src/obs/timeseries.",
      "src/obs/trace.",
      "src/obs/validate.",
      "tools/tamperscope",
  };
  /// R4: path fragment of the wire-parsing layer.
  std::string net_path = "src/net/";
  /// Rules to run; empty means all.
  std::vector<std::string> rules;
  /// Directory names skipped during tree walks ("build*" is always
  /// skipped).
  std::vector<std::string> exclude_dirs = {".git", "lint_fixtures"};

  /// R13: parameter names (exact word, or "<word>_id") that denote a
  /// pipeline identifier and therefore demand the matching strong type
  /// from common/ids.h.
  std::vector<std::string> id_taxonomy = {"pop",  "asn",   "country", "epoch",
                                          "flow", "domain"};
  /// R13: the raw core types (cv-qualifiers and &/* stripped) that fire
  /// when paired with an ID-taxonomy parameter name.
  std::vector<std::string> id_raw_types = {
      "int",           "unsigned",      "unsigned int",  "long",
      "unsigned long", "long long",     "unsigned long long",
      "short",         "unsigned short",
      "std::int8_t",   "std::int16_t",  "std::int32_t",  "std::int64_t",
      "std::uint8_t",  "std::uint16_t", "std::uint32_t", "std::uint64_t",
      "int8_t",        "int16_t",       "int32_t",       "int64_t",
      "uint8_t",       "uint16_t",      "uint32_t",      "uint64_t",
      "std::size_t",   "size_t",        "std::string",   "std::string_view",
  };
};

/// One file of the repo, already read into memory.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Lint one in-memory source file (per-file rules R0–R5 only). `path`
/// decides which rules apply.
[[nodiscard]] std::vector<Finding> lint_source(std::string path,
                                               std::string_view content,
                                               const Config& config);

/// Lint a whole file set: per-file rules on every C++ source (in parallel
/// across `jobs` threads; 0 means hardware concurrency) plus the cross-file
/// rules (R8, R13) over the merged index. Output is deterministic — sorted by
/// (path, line, rule, message) and byte-identical for every thread count.
/// Non-C++ entries are ignored.
[[nodiscard]] std::vector<Finding> lint_repo(const std::vector<SourceFile>& files,
                                             const Config& config, int jobs = 0);

/// Lint files and/or directory trees (recursing, skipping excluded dirs).
/// Unreadable paths append to `errors`. Runs the full rule set via
/// lint_repo over the discovered files.
[[nodiscard]] std::vector<Finding> lint_paths(const std::vector<std::string>& paths,
                                              const Config& config,
                                              std::vector<std::string>& errors);

/// Human-readable one-line-per-finding form (with suppression hint).
[[nodiscard]] std::string format_text(const std::vector<Finding>& findings);

/// Machine-readable form: a JSON array of finding objects.
[[nodiscard]] std::string format_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 (static-analysis results interchange format), suitable for
/// GitHub code scanning upload. Artifact URIs are the finding paths
/// relative to the repo root (uriBaseId SRCROOT); fingerprints are stable
/// across line drift so re-runs dedupe.
[[nodiscard]] std::string format_sarif(const std::vector<Finding>& findings);

/// The rule catalog (id + one-line summary), for --list-rules.
[[nodiscard]] std::string rule_catalog();

/// True for the id of a live rule a suppression may name (R1..R5, R8,
/// R13). Retired ids and R0, which no directive can suppress, are not.
[[nodiscard]] bool known_rule(std::string_view id);

}  // namespace tamper::lint

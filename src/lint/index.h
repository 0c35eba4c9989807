// Pass 1 of the two-pass analyzer: a per-file structural index
// (lock-acquisition nestings, exported function declarations, suppression
// directives) that the cross-file rules R8 and R13 evaluate over once every
// file has been scanned. Per-file extraction is pure and can run in
// parallel; merging is deterministic in path order.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tamper::lint {

struct Config;
struct Finding;

/// `to` was constructed (MutexLock/UniqueLock) while `from` was still in
/// scope in the same function body. Nodes are `Class::member` when the lock
/// expression is a bare member inside a known class scope, the expression
/// verbatim otherwise. Lambda bodies start a fresh lock context: their
/// execution is deferred, so lexical nesting is not acquisition nesting.
struct LockNesting {
  std::string from;
  std::string to;
  int line = 0;  ///< 1-based line of the inner acquisition
};

/// One parameter of an exported function declaration: the declared type
/// text (whitespace-collapsed, default argument stripped) and the name.
/// Unnamed parameters are recorded with an empty name.
struct ParamDecl {
  std::string type;
  std::string name;
  int line = 0;  ///< 1-based line of the parameter itself (decls wrap)
};

/// A function declaration (or inline definition) in a header: name plus the
/// parameter list. Extracted only for `.h` files — these are the
/// cross-module signatures the API rules (R13) reason about. The extractor
/// is token-level and deliberately conservative: constructs it cannot
/// prove are declarations (calls, macros, member initializers) are skipped.
struct FunctionDecl {
  std::string name;
  std::vector<ParamDecl> params;
  int line = 0;  ///< 1-based line of the function name
};

struct FileIndex {
  std::string path;
  std::vector<LockNesting> lock_nestings;
  std::vector<FunctionDecl> functions;  ///< headers only (see FunctionDecl)
  /// suppressed[line0] holds rule ids suppressed on that 0-based line
  /// (well-formed `tamperlint-allow` directives only).
  std::vector<std::vector<std::string>> suppressed;
};

/// Extract the structural index of one file. `stripped_text` is the
/// comments-and-strings-blanked form (internal::strip_literals,
/// position-aligned with the source).
[[nodiscard]] FileIndex index_file(const std::string& path,
                                   std::string_view stripped_text);

/// The merged repo index: per-file indices in ascending path order.
struct RepoIndex {
  std::vector<FileIndex> files;  ///< sorted by path
};

/// Pass 2: evaluate R8 (lock order) and R13 (raw ID-taxonomy parameters in
/// cross-module headers) over the merged index.
/// Findings honor per-line suppressions recorded in the index; the caller
/// sorts and merges them with the per-file findings.
[[nodiscard]] std::vector<Finding> repo_rule_findings(const RepoIndex& index,
                                                      const Config& config);

}  // namespace tamper::lint

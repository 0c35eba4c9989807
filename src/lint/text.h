// Internal text-analysis helpers shared by the per-file rules (lint.cpp)
// and the repo-index pass (index.cpp). Everything here is pure: string in,
// structure out, no filesystem.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tamper::lint::internal {

[[nodiscard]] bool ident_char(char c) noexcept;

/// Blank out the contents of string/char literals and (unless
/// `keep_comments`) comments, preserving line structure. Token rules run on
/// the everything-stripped form so they never fire on prose or test strings;
/// the directive scanner runs on the comments-kept form, because directives
/// live in comments but must not fire on string literals that merely mention
/// the directive syntax. Both forms are position-aligned with the source, so
/// structure found in one form can be read out of the other.
[[nodiscard]] std::string strip_literals(std::string_view src, bool keep_comments);

[[nodiscard]] std::vector<std::string> split_lines(std::string_view text);

/// Position of `word` in `line` at identifier boundaries, or npos.
[[nodiscard]] std::size_t find_word(std::string_view line, std::string_view word,
                                    std::size_t from = 0);

[[nodiscard]] std::string trimmed(std::string_view s);

/// 0-based line number of byte offset `pos` in `text`.
[[nodiscard]] std::size_t line_of(std::string_view text, std::size_t pos);

}  // namespace tamper::lint::internal

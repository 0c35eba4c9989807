#include "lint/text.h"

#include <algorithm>
#include <cctype>

namespace tamper::lint::internal {

bool ident_char(char c) noexcept {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

std::string strip_literals(std::string_view src, bool keep_comments) {
  std::string out(src.size(), ' ');
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw } state = State::kCode;
  std::string raw_delim;  // raw-string closing delimiter: ")delim\""
  bool in_number = false;  // inside a pp-number, where ' is a digit separator
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char prev = i > 0 ? src[i - 1] : '\0';
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') out[i] = '\n';
    switch (state) {
      case State::kCode:
        // A number starts at a digit that ends no identifier (u8'x' is a
        // prefixed char literal) and runs on through identifier chars, '.',
        // exponent signs and digit separators: 600'000 is one token.
        in_number = in_number ? ident_char(c) || c == '.' || c == '\'' ||
                                    ((c == '+' || c == '-') &&
                                     (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P'))
                              : std::isdigit(static_cast<unsigned char>(c)) != 0 &&
                                    !ident_char(prev);
        if (in_number) {
          out[i] = c;
        } else if (c == '/' && next == '/') {
          if (keep_comments) out[i] = c;
          state = State::kLine;
        } else if (c == '/' && next == '*') {
          if (keep_comments) {
            out[i] = c;
            out[i + 1] = next;
          }
          state = State::kBlock;
          ++i;
        } else if (c == 'R' && next == '"' && !ident_char(prev)) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          while (p < src.size() && src[p] != '(') ++p;
          raw_delim.clear();
          raw_delim.push_back(')');
          raw_delim.append(src.substr(i + 2, p - (i + 2)));
          raw_delim.push_back('"');
          out[i] = 'R';
          if (i + 1 < src.size()) out[i + 1] = '"';
          i += 1;
          state = State::kRaw;
        } else if (c == '"') {
          out[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out[i] = '\'';
          state = State::kChar;
        } else {
          out[i] = c;
        }
        break;
      case State::kLine:
        if (keep_comments && c != '\n') out[i] = c;
        if (c == '\n') state = State::kCode;
        break;
      case State::kBlock:
        if (keep_comments && c != '\n') out[i] = c;
        if (c == '*' && next == '/') {
          if (keep_comments && i + 1 < src.size()) out[i + 1] = next;
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < src.size() && src[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          out[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::size_t find_word(std::string_view line, std::string_view word, std::size_t from) {
  while (from < line.size()) {
    const std::size_t pos = line.find(word, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

std::string trimmed(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::size_t line_of(std::string_view text, std::size_t pos) {
  return static_cast<std::size_t>(
      std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

}  // namespace tamper::lint::internal

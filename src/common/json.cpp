#include "common/json.h"

#include <cmath>

namespace tamper::common {

void JsonWriter::element_prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value directly follows its key
  }
  if (counts_.empty()) return;
  if (counts_.back()++ > 0) buf_.push_back(',');
  newline_indent();
}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  buf_.push_back('\n');
  buf_.append(2 * counts_.size(), ' ');
}

void JsonWriter::write_string(std::string_view s) {
  buf_.push_back('"');
  // Characters that need no escape are copied as runs.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    buf_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        buf_.append("\\\"");
        break;
      case '\\':
        buf_.append("\\\\");
        break;
      case '\n':
        buf_.append("\\n");
        break;
      case '\r':
        buf_.append("\\r");
        break;
      case '\t':
        buf_.append("\\t");
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        buf_.append(escape, sizeof escape);
      }
    }
  }
  buf_.append(s.data() + run, s.size() - run);
  buf_.push_back('"');
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  element_prefix();
  // chars_format::general with a precision is printf's "%.6g".
  char digits[32];
  buf_.append(digits,
              std::to_chars(digits, digits + sizeof digits, v, std::chars_format::general, 6)
                  .ptr);
  return done();
}

void JsonWriter::flush() {
  if (buf_.empty()) return;
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

}  // namespace tamper::common

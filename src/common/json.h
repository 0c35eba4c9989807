// Minimal streaming JSON writer (no external dependencies) used by the
// report exporter and the CLI. Emits RFC 8259-conformant output: proper
// string escaping, no trailing commas, and non-finite numbers as null.
//
// Output is appended to an internal buffer and handed to the stream in
// blocks: when the top-level value closes, whenever the buffer passes
// kFlushBytes, and on destruction. So a report costs one linear pass over
// its bytes, and a large document never holds more than one block. Writes
// the caller makes to the same stream directly belong between top-level
// values.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tamper::common {

class JsonWriter {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  explicit JsonWriter(std::ostream& out, bool pretty = true)
      : out_(out), pretty_(pretty) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() {
    try {
      flush();
    } catch (...) {
      // A stream set to throw has already recorded the failure in its
      // state (badbit), where the caller checks it.
    }
  }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    element_prefix();
    write_string(name);
    buf_.append(pretty_ ? ": " : ":");
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    element_prefix();
    write_string(v);
    return done();
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v) { return integer(v); }
  JsonWriter& value(std::int64_t v) { return integer(v); }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) { return literal(v ? "true" : "false"); }
  JsonWriter& null() { return literal("null"); }

  // Convenience for "key": value pairs.
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

 private:
  JsonWriter& open(char bracket) {
    element_prefix();
    buf_.push_back(bracket);
    counts_.push_back(0);
    return *this;
  }
  JsonWriter& close(char bracket) {
    const bool had_items = !counts_.empty() && counts_.back() > 0;
    counts_.pop_back();
    if (had_items) newline_indent();
    buf_.push_back(bracket);
    return done();
  }
  JsonWriter& literal(std::string_view text) {
    element_prefix();
    buf_.append(text);
    return done();
  }
  template <typename Int>
  JsonWriter& integer(Int v) {
    element_prefix();
    char digits[24];
    buf_.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
    return done();
  }
  /// A value just completed: hand the buffer over at the end of the
  /// top-level value or once it holds a full block.
  JsonWriter& done() {
    if (counts_.empty() || buf_.size() >= kFlushBytes) flush();
    return *this;
  }

  void element_prefix();
  void newline_indent();
  void write_string(std::string_view s);
  void flush();

  std::ostream& out_;
  bool pretty_;
  bool pending_key_ = false;
  std::vector<std::size_t> counts_;  ///< elements written, per open container
  std::string buf_;
};

}  // namespace tamper::common

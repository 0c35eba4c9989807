// Validators for the two observability output formats.
//
// These are deliberately small, dependency-free parsers — the "tiny parser
// check" the CI obs smoke job runs over real `tamperscope watch` output,
// also exercised directly by tests/test_obs.cpp. They check structure, not
// semantics: a passing file is syntactically loadable by Prometheus /
// Perfetto and obeys this repo's ordering contract (families sorted by
// name), but no particular metric values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tamper::obs {

struct Validation {
  bool ok = true;
  std::string error;        ///< first problem found, empty when ok
  std::size_t line = 0;     ///< 1-based line of the problem (0 when ok)
  std::size_t samples = 0;  ///< sample lines (prometheus) / events (trace)
  std::size_t families = 0; ///< TYPE-declared families (prometheus only)
};

/// Minimal JSON document model, shared by the structural checks here and by
/// tests that check other JSON formats' shape (SARIF). Objects keep their
/// keys sorted (duplicate keys are a parse error), which is all a validator
/// needs — it never re-emits. `\uXXXX` escapes are validated but kept
/// verbatim in `string`.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parse one JSON document (recursive descent, no dependencies) into `out`.
/// False on malformed input or trailing content.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue* out);

/// Prometheus text exposition v0.0.4: every sample belongs to a family
/// declared by a preceding # TYPE line; names are snake_case; label blocks
/// are well-formed; histogram series expose _bucket/_sum/_count with
/// non-decreasing cumulative bucket counts; families appear in strictly
/// ascending name order (the registry's byte-stability contract).
[[nodiscard]] Validation validate_prometheus_text(std::string_view text);

/// Chrome trace-event JSON as Tracer emits it: a `[` line, zero or more
/// one-per-line complete-span objects with name/cat/ph/ts/dur/pid/tid keys
/// and correct comma placement, closed by a `]` terminator line.
[[nodiscard]] Validation validate_chrome_trace(std::string_view text);

/// "tamper-timeseries/1" JSON (obs/timeseries.h): a full JSON parse (tiny
/// recursive-descent, no dependencies) plus the format's structural
/// contract — schema stamp, positive epoch_length_sec, scopes each with
/// sorted series (family/label/merge/points with strictly ascending epochs
/// and finite values), ascending epoch coverage notes, and well-formed
/// anomaly events. `samples` counts points, `families` distinct series.
[[nodiscard]] Validation validate_timeseries_json(std::string_view text);

}  // namespace tamper::obs

#include "obs/validate.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "obs/metrics.h"

namespace tamper::obs {

namespace {

struct LineCursor {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line_no = 0;

  bool next(std::string_view* line) {
    if (pos >= text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      *line = text.substr(pos);
      pos = text.size();
    } else {
      *line = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    ++line_no;
    return true;
  }
};

Validation fail(std::size_t line, std::string error) {
  Validation v;
  v.ok = false;
  v.line = line;
  v.error = std::move(error);
  return v;
}

bool parse_sample_value(std::string_view v) {
  if (v == "+Inf" || v == "-Inf" || v == "NaN") return true;
  if (v.empty()) return false;
  const std::string buf(v);
  char* end = nullptr;
  std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

/// Parses `{k="v",...}` starting at text[pos] == '{'. On success advances
/// pos past the closing brace and appends the pairs. Handles \\ \" \n
/// escapes inside values.
bool parse_label_block(std::string_view text, std::size_t* pos,
                       std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t i = *pos + 1;  // past '{'
  while (i < text.size() && text[i] != '}') {
    std::size_t key_start = i;
    while (i < text.size() && text[i] != '=') ++i;
    if (i >= text.size()) return false;
    const std::string key(text.substr(key_start, i - key_start));
    if (!valid_metric_name(key)) return false;
    ++i;  // '='
    if (i >= text.size() || text[i] != '"') return false;
    ++i;  // '"'
    std::string value;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') {
        if (i + 1 >= text.size()) return false;
        const char esc = text[i + 1];
        if (esc == '\\') value += '\\';
        else if (esc == '"') value += '"';
        else if (esc == 'n') value += '\n';
        else return false;
        i += 2;
      } else {
        value += text[i++];
      }
    }
    if (i >= text.size()) return false;
    ++i;  // closing '"'
    out->emplace_back(key, value);
    if (i < text.size() && text[i] == ',') ++i;
  }
  if (i >= text.size()) return false;
  *pos = i + 1;  // past '}'
  return true;
}

}  // namespace

Validation validate_prometheus_text(std::string_view text) {
  Validation result;
  LineCursor cursor{text};
  std::map<std::string, std::string> family_type;  // name → counter/gauge/histogram
  std::string last_declared;  // ordering check
  // Histogram cumulative-monotonicity: the last _bucket line's series
  // identity (base name + labels minus `le`) and cumulative value.
  std::string last_bucket_series;
  double last_bucket_value = 0.0;

  std::string_view line;
  while (cursor.next(&line)) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      // "# HELP name text" / "# TYPE name kind" / other comments.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos)
          return fail(cursor.line_no, "malformed TYPE line");
        const std::string fname(rest.substr(0, sp));
        const std::string kind(rest.substr(sp + 1));
        if (!valid_metric_name(fname))
          return fail(cursor.line_no, "family name not snake_case: " + fname);
        if (kind != "counter" && kind != "gauge" && kind != "histogram")
          return fail(cursor.line_no, "unknown metric type: " + kind);
        if (family_type.count(fname) != 0)
          return fail(cursor.line_no, "family declared twice: " + fname);
        if (!last_declared.empty() && fname <= last_declared)
          return fail(cursor.line_no,
                      "families out of order: " + fname + " after " + last_declared);
        last_declared = fname;
        family_type.emplace(fname, kind);
      } else if (line.rfind("# HELP ", 0) == 0) {
        std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string fname(sp == std::string_view::npos ? rest
                                                             : rest.substr(0, sp));
        if (!valid_metric_name(fname))
          return fail(cursor.line_no, "HELP for invalid name: " + fname);
      }
      continue;
    }

    // Sample line: name[{labels}] value
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    std::string sample_name(line.substr(0, pos));
    if (!valid_metric_name(sample_name))
      return fail(cursor.line_no, "sample name not snake_case: " + sample_name);

    // Resolve the owning family: exact match, or histogram suffix.
    std::string base = sample_name;
    bool is_bucket = false;
    auto it = family_type.find(base);
    if (it == family_type.end()) {
      for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
        if (base.size() > suffix.size() &&
            std::string_view(base).substr(base.size() - suffix.size()) == suffix) {
          std::string stripped = base.substr(0, base.size() - suffix.size());
          auto hit = family_type.find(stripped);
          if (hit != family_type.end() && hit->second == "histogram") {
            it = hit;
            is_bucket = suffix == "_bucket";
            base = std::move(stripped);
            break;
          }
        }
      }
    }
    if (it == family_type.end())
      return fail(cursor.line_no, "sample without TYPE declaration: " + sample_name);
    if (it->second == "histogram" && base == sample_name)
      return fail(cursor.line_no,
                  "bare histogram sample (want _bucket/_sum/_count): " + sample_name);

    std::vector<std::pair<std::string, std::string>> labels;
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_label_block(line, &pos, &labels))
        return fail(cursor.line_no, "malformed label block");
    }
    if (pos >= line.size() || line[pos] != ' ')
      return fail(cursor.line_no, "missing sample value");
    const std::string_view value = line.substr(pos + 1);
    if (!parse_sample_value(value))
      return fail(cursor.line_no, "unparseable sample value: " + std::string(value));

    if (is_bucket) {
      std::string le;
      std::string series = base;
      for (const auto& [k, v] : labels) {
        if (k == "le") le = v;
        else series += "|" + k + "=" + v;
      }
      if (le.empty())
        return fail(cursor.line_no, "_bucket sample without le label");
      const double bucket_value = std::strtod(std::string(value).c_str(), nullptr);
      if (series == last_bucket_series && bucket_value < last_bucket_value)
        return fail(cursor.line_no,
                    "histogram cumulative bucket counts decreased in " + base);
      last_bucket_series = std::move(series);
      last_bucket_value = bucket_value;
    } else {
      last_bucket_series.clear();
    }
    ++result.samples;
  }
  result.families = family_type.size();
  return result;
}

Validation validate_chrome_trace(std::string_view text) {
  Validation result;
  LineCursor cursor{text};
  std::string_view line;
  if (!cursor.next(&line) || line != "[")
    return fail(cursor.line_no, "trace must open with a '[' line");

  bool closed = false;
  bool prev_had_comma = false;
  bool any_event = false;
  while (cursor.next(&line)) {
    if (line == "]") {
      if (any_event && prev_had_comma)
        return fail(cursor.line_no, "trailing comma before ']' terminator");
      closed = true;
      break;
    }
    std::string_view body = line;
    prev_had_comma = !body.empty() && body.back() == ',';
    if (prev_had_comma) body.remove_suffix(1);
    if (body.size() < 2 || body.front() != '{' || body.back() != '}')
      return fail(cursor.line_no, "event line is not a one-line JSON object");
    for (const std::string_view key :
         {"\"name\":", "\"cat\":", "\"ph\":\"X\"", "\"ts\":", "\"dur\":",
          "\"pid\":", "\"tid\":"}) {
      if (body.find(key) == std::string_view::npos)
        return fail(cursor.line_no,
                    "event missing required key " + std::string(key));
    }
    any_event = true;
    ++result.samples;
  }
  if (!closed) return fail(cursor.line_no, "missing ']' terminator line");
  if (cursor.next(&line) && !line.empty())
    return fail(cursor.line_no, "content after ']' terminator");
  return result;
}

// -------------------------------------------------------- timeseries JSON

namespace {

/// Recursive-descent JSON parser, tracking the 1-based line for errors.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  [[nodiscard]] bool parse(JsonValue* out) {
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return error("content after the document");
    return true;
  }

  [[nodiscard]] const std::string& error_text() const noexcept { return error_; }
  [[nodiscard]] std::size_t error_line() const noexcept { return line_; }

 private:
  bool error(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return error("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return error("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\n') return error("unterminated string");
      if (c == '\\') {
        if (pos_ >= text_.size()) return error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
            // Validated but passed through verbatim; the formats under
            // check never need the decoded code point.
            out->append("\\u").append(text_.substr(pos_, 4));
            pos_ += 4;
            break;
          }
          default: return error("unknown escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return error("unterminated string");
  }

  bool number(double* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return error("expected number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return error("malformed number");
    return true;
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(&key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return error("expected ':'");
        ++pos_;
        JsonValue child;
        if (!value(&child)) return false;
        if (!out->object.emplace(std::move(key), std::move(child)).second)
          return error("duplicate object key");
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return error("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue child;
        if (!value(&child)) return false;
        out->array.push_back(std::move(child));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return error("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return string(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    out->kind = JsonValue::Kind::kNumber;
    return number(&out->number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::string error_;
};

[[nodiscard]] bool finite_number(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber && std::isfinite(v->number);
}

[[nodiscard]] bool integer_number(const JsonValue* v) {
  return finite_number(v) && v->number == std::floor(v->number);
}

[[nodiscard]] bool is_string(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}

[[nodiscard]] bool is_bool(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kBool;
}

[[nodiscard]] const JsonValue* get_array(const JsonValue& parent, const std::string& key) {
  const JsonValue* v = parent.get(key);
  return v != nullptr && v->kind == JsonValue::Kind::kArray ? v : nullptr;
}

}  // namespace

bool parse_json(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  return JsonParser(text).parse(out);
}

Validation validate_timeseries_json(std::string_view text) {
  Validation result;
  JsonValue doc;
  JsonParser parser(text);
  if (!parser.parse(&doc))
    return fail(parser.error_line(), "JSON parse error: " + parser.error_text());
  if (doc.kind != JsonValue::Kind::kObject)
    return fail(1, "document is not a JSON object");

  const JsonValue* schema = doc.get("schema");
  if (!is_string(schema) || schema->string != "tamper-timeseries/1")
    return fail(1, "missing or wrong \"schema\" (want tamper-timeseries/1)");
  const JsonValue* epoch_len = doc.get("epoch_length_sec");
  if (!integer_number(epoch_len) || epoch_len->number <= 0)
    return fail(1, "\"epoch_length_sec\" must be a positive integer");
  const JsonValue* scopes = get_array(doc, "scopes");
  if (scopes == nullptr) return fail(1, "missing \"scopes\" array");

  std::string prev_scope;
  for (const JsonValue& scope : scopes->array) {
    if (scope.kind != JsonValue::Kind::kObject)
      return fail(1, "scope entry is not an object");
    const JsonValue* scope_name = scope.get("scope");
    if (!is_string(scope_name) || scope_name->string.empty())
      return fail(1, "scope missing a non-empty \"scope\" name");
    const std::string where = "scope \"" + scope_name->string + "\"";

    const JsonValue* series = get_array(scope, "series");
    if (series == nullptr) return fail(1, where + " missing \"series\" array");
    std::string prev_family, prev_label;
    bool have_prev_series = false;
    for (const JsonValue& s : series->array) {
      if (s.kind != JsonValue::Kind::kObject)
        return fail(1, where + ": series entry is not an object");
      const JsonValue* family = s.get("family");
      const JsonValue* label = s.get("label");
      const JsonValue* merge = s.get("merge");
      if (!is_string(family) || family->string.empty())
        return fail(1, where + ": series missing \"family\"");
      if (!is_string(label))
        return fail(1, where + ": series missing \"label\"");
      if (!is_string(merge) || (merge->string != "sum" && merge->string != "max"))
        return fail(1, where + ": series \"merge\" must be sum or max");
      if (have_prev_series &&
          (family->string < prev_family ||
           (family->string == prev_family && label->string <= prev_label)))
        return fail(1, where + ": series not in ascending (family, label) order");
      prev_family = family->string;
      prev_label = label->string;
      have_prev_series = true;
      const JsonValue* points = get_array(s, "points");
      if (points == nullptr)
        return fail(1, where + ": series missing \"points\" array");
      bool have_prev_epoch = false;
      double prev_epoch = 0;
      for (const JsonValue& p : points->array) {
        if (p.kind != JsonValue::Kind::kObject)
          return fail(1, where + ": point is not an object");
        const JsonValue* epoch = p.get("epoch");
        const JsonValue* value = p.get("value");
        if (!integer_number(epoch))
          return fail(1, where + ": point \"epoch\" must be an integer");
        if (!finite_number(value))
          return fail(1, where + ": point \"value\" must be a finite number");
        if (have_prev_epoch && epoch->number <= prev_epoch)
          return fail(1, where + ": point epochs not strictly ascending");
        prev_epoch = epoch->number;
        have_prev_epoch = true;
        ++result.samples;
      }
      ++result.families;
    }

    const JsonValue* epochs = get_array(scope, "epochs");
    if (epochs == nullptr) return fail(1, where + " missing \"epochs\" array");
    bool have_prev_note = false;
    double prev_note_epoch = 0;
    for (const JsonValue& note : epochs->array) {
      if (note.kind != JsonValue::Kind::kObject)
        return fail(1, where + ": epoch note is not an object");
      const JsonValue* epoch = note.get("epoch");
      if (!integer_number(epoch))
        return fail(1, where + ": epoch note missing integer \"epoch\"");
      for (const char* key : {"pops_reporting", "pops_expected", "pops_shedding"})
        if (!integer_number(note.get(key)) || note.get(key)->number < 0)
          return fail(1, where + ": epoch note missing counter \"" +
                             std::string(key) + "\"");
      if (!is_bool(note.get("degraded")))
        return fail(1, where + ": epoch note missing boolean \"degraded\"");
      if (note.get("pops_reporting")->number > note.get("pops_expected")->number)
        return fail(1, where + ": pops_reporting exceeds pops_expected");
      if (have_prev_note && epoch->number <= prev_note_epoch)
        return fail(1, where + ": epoch notes not strictly ascending");
      prev_note_epoch = epoch->number;
      have_prev_note = true;
    }

    const JsonValue* anomalies = get_array(scope, "anomalies");
    if (anomalies == nullptr) return fail(1, where + " missing \"anomalies\" array");
    for (const JsonValue& event : anomalies->array) {
      if (event.kind != JsonValue::Kind::kObject)
        return fail(1, where + ": anomaly is not an object");
      if (!is_string(event.get("family")) || !is_string(event.get("label")))
        return fail(1, where + ": anomaly missing \"family\"/\"label\"");
      if (!integer_number(event.get("epoch")))
        return fail(1, where + ": anomaly missing integer \"epoch\"");
      for (const char* key : {"delta", "expected", "score"})
        if (!finite_number(event.get(key)))
          return fail(1, where + ": anomaly missing finite \"" +
                             std::string(key) + "\"");
    }
    prev_scope = scope_name->string;
  }
  return result;
}

}  // namespace tamper::obs

// SARIF 2.1.0 emission. One run, one driver ("tamperlint"), the full rule
// catalog in tool.driver.rules, one result per finding with a line-drift-
// stable partial fingerprint so GitHub code scanning dedupes across pushes.
#include <algorithm>
#include <cstdint>
#include <sstream>

#include "lint/lint.h"

namespace tamper::lint {

namespace {

struct RuleMeta {
  const char* id;
  const char* name;
  const char* summary;
};

// Kept in catalog order; ruleIndex in each result points into this table.
constexpr RuleMeta kRules[] = {
    {"R0", "DirectiveHygiene", "Malformed tamperlint-allow suppression directive"},
    {"R1", "Determinism",
     "No wall-clock or ambient randomness outside common/sim_clock and common/rng"},
    {"R2", "OrderedEmission",
     "No unordered containers in report/JSON emission files"},
    {"R3", "NothrowPath",
     "No throw/.at()/std::sto* inside `// tamperlint: nothrow-path` functions"},
    {"R4", "NoTypePunning",
     "No reinterpret_cast in src/net/ beyond the char* stream-I/O bridge"},
    {"R5", "HeaderHygiene",
     "Headers use #pragma once and never `using namespace`"},
    {"R8", "LockOrder",
     "The static mutex acquisition-order graph is cycle-free (no potential deadlock)"},
    {"R13", "StrongIdParameters",
     "ID-taxonomy parameter names in src/ headers use common/ids.h strong types"},
};

void json_escape(std::ostringstream& out, std::string_view s) {
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

[[nodiscard]] int rule_index(const std::string& id) {
  for (std::size_t i = 0; i < std::size(kRules); ++i)
    if (id == kRules[i].id) return static_cast<int>(i);
  return -1;
}

/// FNV-1a over rule|path|message: stable across runs and across the line
/// drift that plain line-keyed results would churn on.
[[nodiscard]] std::string fingerprint(const Finding& f) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '|';
    h *= 1099511628211ull;
  };
  mix(f.rule);
  mix(f.path);
  mix(f.message);
  std::ostringstream out;
  out << std::hex << h;
  return out.str();
}

[[nodiscard]] std::string clean_uri(const std::string& path) {
  std::string uri = path;
  std::replace(uri.begin(), uri.end(), '\\', '/');
  while (uri.rfind("./", 0) == 0) uri = uri.substr(2);
  return uri;
}

}  // namespace

std::string format_sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"tamperlint\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"informationUri\": "
         "\"https://github.com/libtamper/libtamper/blob/main/DESIGN.md\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const RuleMeta& rule = kRules[i];
    out << "            {\"id\": \"" << rule.id << "\", \"name\": \"" << rule.name
        << "\", \"shortDescription\": {\"text\": ";
    json_escape(out, rule.summary);
    out << "}, \"defaultConfiguration\": {\"level\": \"error\"}}"
        << (i + 1 < std::size(kRules) ? "," : "") << '\n';
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"columnKind\": \"utf16CodeUnits\",\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "        {\"ruleId\": \"" << f.rule << "\"";
    const int idx = rule_index(f.rule);
    if (idx >= 0) out << ", \"ruleIndex\": " << idx;
    out << ", \"level\": \"error\", \"message\": {\"text\": ";
    json_escape(out, f.message);
    out << "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": ";
    json_escape(out, clean_uri(f.path));
    out << ", \"uriBaseId\": \"SRCROOT\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}], \"partialFingerprints\": "
        << "{\"tamperlint/v1\": \"" << fingerprint(f) << "\"}}"
        << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace tamper::lint

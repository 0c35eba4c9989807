// Fixture-backed tests for tamperlint (src/lint): every rule must fire on
// its violation fixture, stay quiet on its clean fixture, and honor
// well-formed suppressions. Fixtures live in tests/lint_fixtures/ and are
// fed through lint_source() under synthetic paths, so the path-scoped rules
// (R2 emission files, R4 net parsers) are exercised no matter where the
// fixture tree sits on disk.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lint/baseline.h"

namespace {

using tamper::lint::Config;
using tamper::lint::Finding;
using tamper::lint::lint_repo;
using tamper::lint::lint_source;
using tamper::lint::SourceFile;

std::string fixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [&](const Finding& f) { return f.rule == rule; }));
}

/// Load a fixture mini-repo (tests/lint_fixtures/<name>/...) as in-memory
/// SourceFiles whose paths are relative to the subtree root, so module
/// detection ("src/net/...") works no matter where the checkout lives.
std::vector<SourceFile> load_repo(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(LINT_FIXTURE_DIR) / name;
  std::vector<SourceFile> files;
  EXPECT_TRUE(fs::is_directory(root)) << "missing fixture tree: " << root;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files.push_back({entry.path().lexically_relative(root).generic_string(),
                     std::string((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>())});
  }
  return files;
}

TEST(LintR1, FiresOnAmbientTimeAndRandomness) {
  const auto findings =
      lint_source("src/analysis/pipeline.cpp", fixture("r1_violation.cpp"), {});
  EXPECT_GE(count_rule(findings, "R1"), 3);
}

TEST(LintR1, SuppressionCoversExactlyOneLine) {
  const auto findings =
      lint_source("src/service/supervisor.cpp", fixture("r1_suppressed.cpp"), {});
  // `std::random_device rd;` is suppressed; the bare `rd()` call line has
  // no banned token, so the file yields no R1 at the suppressed site —
  // and no R0, because the directive is well-formed.
  EXPECT_EQ(count_rule(findings, "R1"), 0) << tamper::lint::format_text(findings);
  EXPECT_EQ(count_rule(findings, "R0"), 0);
}

TEST(LintR1, QuietOnDeterministicCode) {
  const auto findings =
      lint_source("src/analysis/signature.cpp", fixture("r1_clean.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R1"), 0) << tamper::lint::format_text(findings);
}

TEST(LintR1, AllowlistedSourcesMayUseAmbientEntropy) {
  const auto findings =
      lint_source("src/common/rng.cpp", fixture("r1_violation.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R1"), 0);
}

TEST(LintR2, FiresOnUnorderedContainersInEmissionFiles) {
  const auto findings =
      lint_source("src/analysis/report.cpp", fixture("r2_violation.cpp"), {});
  EXPECT_GE(count_rule(findings, "R2"), 1);
}

TEST(LintR2, OnlyAppliesToEmissionPaths) {
  // The same unordered_map is fine in a non-emission file (flow tables
  // want O(1) lookups; they just must not drive output order).
  const auto findings =
      lint_source("src/tcp/session.cpp", fixture("r2_violation.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R2"), 0);
}

TEST(LintR2, QuietOnOrderedEmission) {
  const auto findings =
      lint_source("src/analysis/report.cpp", fixture("r2_clean.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R2"), 0) << tamper::lint::format_text(findings);
}

TEST(LintR3, FiresInsideMarkedFunctionOnly) {
  const auto findings =
      lint_source("src/analysis/pipeline.cpp", fixture("r3_violation.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R3"), 2) << tamper::lint::format_text(findings);
  // Both findings must sit inside the marked function (lines 8-11), not in
  // unmarked() further down.
  for (const auto& f : findings) {
    if (f.rule == "R3") {
      EXPECT_LE(f.line, 11) << f.message;
    }
  }
}

TEST(LintR3, QuietOnCountAndDrop) {
  const auto findings =
      lint_source("src/analysis/pipeline.cpp", fixture("r3_clean.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R3"), 0) << tamper::lint::format_text(findings);
}

TEST(LintR4, FiresOnNarrowingAndTypePunningInNet) {
  const auto findings =
      lint_source("src/net/packet.cpp", fixture("r4_violation.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R4"), 1) << tamper::lint::format_text(findings);
}

TEST(LintR4, OnlyAppliesToNetSources) {
  const auto findings =
      lint_source("src/analysis/report.cpp", fixture("r4_violation.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R4"), 0);
}

TEST(LintR4, SanctionsStaticCastAndCharBridge) {
  const auto findings =
      lint_source("src/net/pcap.cpp", fixture("r4_clean.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R4"), 0) << tamper::lint::format_text(findings);
}

TEST(LintR5, FiresOnGuardlessHeaderWithNamespaceDump) {
  const auto findings =
      lint_source("src/common/util.h", fixture("r5_violation.h"), {});
  EXPECT_EQ(count_rule(findings, "R5"), 2) << tamper::lint::format_text(findings);
}

TEST(LintR5, QuietOnHygienicHeader) {
  const auto findings =
      lint_source("src/common/util.h", fixture("r5_clean.h"), {});
  EXPECT_EQ(count_rule(findings, "R5"), 0) << tamper::lint::format_text(findings);
}

TEST(LintR5, SourcesAreExemptFromHeaderRules) {
  const auto findings =
      lint_source("tests/test_util.cpp", fixture("r5_violation.h"), {});
  EXPECT_EQ(count_rule(findings, "R5"), 0);
}

TEST(LintR0, MalformedDirectivesAreFindingsAndSuppressNothing) {
  const auto findings =
      lint_source("src/analysis/pipeline.cpp", fixture("r0_malformed.cpp"), {});
  EXPECT_EQ(count_rule(findings, "R0"), 2) << tamper::lint::format_text(findings);
  EXPECT_GE(count_rule(findings, "R1"), 1)
      << "a reasonless directive must not suppress";
}

TEST(LintR0, RetiredRuleIdsSuppressNothing) {
  // R6, R7, R9, R10, R11 and R12 were retired; their ids are not reused, so
  // an old directive naming one is reported instead of silently accepted.
  const auto findings =
      lint_source("src/core/use.cpp",
                  "int x = 0;  // tamperlint-allow(R6): retired rule\n"
                  "int y = 0;  // tamperlint-allow(R9): retired rule\n"
                  "int z = 0;  // tamperlint-allow(R10): retired rule\n"
                  "int w = 0;  // tamperlint-allow(R7): retired rule\n",
                  {});
  EXPECT_EQ(count_rule(findings, "R0"), 4) << tamper::lint::format_text(findings);
}

TEST(LintConfig, RuleFilterRestrictsOutput) {
  Config only_r5;
  only_r5.rules = {"R5"};
  const auto findings =
      lint_source("src/net/packet.h", fixture("r5_violation.h"), only_r5);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "R5") << f.message;
  EXPECT_EQ(count_rule(findings, "R5"), 2);
}

TEST(LintStripper, IgnoresCommentsStringsAndRawStrings) {
  const std::string src = R"__(
// std::rand in a comment
const char* a = "system_clock inside a string";
const char* b = R"x(random_device in a raw string)x";
/* gettimeofday in a block comment */
)__";
  const auto findings = lint_source("src/analysis/x.cpp", src, {});
  EXPECT_TRUE(findings.empty()) << tamper::lint::format_text(findings);
}

TEST(LintOutput, DeterministicAndMachineReadable) {
  const auto a =
      lint_source("src/net/packet.cpp", fixture("r4_violation.cpp"), {});
  const auto b =
      lint_source("src/net/packet.cpp", fixture("r4_violation.cpp"), {});
  EXPECT_EQ(tamper::lint::format_text(a), tamper::lint::format_text(b));
  const std::string json = tamper::lint::format_json(a);
  EXPECT_NE(json.find("\"rule\": \"R4\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": "), std::string::npos);
}

// ---------------------------------------------------------------- R8

TEST(LintR8, FiresOnLockOrderInversion) {
  const auto findings = lint_repo(load_repo("r8_fire"), {});
  EXPECT_EQ(count_rule(findings, "R8"), 1) << tamper::lint::format_text(findings);
  ASSERT_FALSE(findings.empty());
  // Both conflicting acquisition sites are named, with class-qualified nodes.
  EXPECT_NE(findings[0].message.find("Pair::a_mu_ -> Pair::b_mu_"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("Pair::b_mu_ -> Pair::a_mu_"),
            std::string::npos)
      << findings[0].message;
}

TEST(LintR8, SuppressionAtTheAnchorSiteSilencesIt) {
  const auto findings = lint_repo(load_repo("r8_suppressed"), {});
  EXPECT_EQ(count_rule(findings, "R8"), 0) << tamper::lint::format_text(findings);
  EXPECT_EQ(count_rule(findings, "R0"), 0);
}

TEST(LintR8, QuietOnConsistentOrder) {
  const auto findings = lint_repo(load_repo("r8_clean"), {});
  EXPECT_TRUE(findings.empty()) << tamper::lint::format_text(findings);
}

// ---------------------------------------------------------------- R13

TEST(LintR13, FiresOnRawTaxonomyParamsIncludingWrappedDecls) {
  const auto findings = lint_repo(load_repo("r13_fire"), {});
  EXPECT_EQ(count_rule(findings, "R13"), 3) << tamper::lint::format_text(findings);
  bool pop = false, epoch = false, domain = false;
  for (const auto& f : findings) {
    if (f.rule != "R13") continue;
    EXPECT_EQ(f.path, "src/fleet/api.h");
    if (f.message.find("\"pop\"") != std::string::npos) {
      pop = true;
      // The fix must be spelled out: the strong type to reach for.
      EXPECT_NE(f.message.find("common/ids.h: PopId"), std::string::npos)
          << f.message;
    }
    if (f.message.find("\"epoch\"") != std::string::npos) epoch = true;
    if (f.message.find("\"domain\"") != std::string::npos) domain = true;
  }
  EXPECT_TRUE(pop);
  EXPECT_TRUE(epoch);  // lives on the wrapped second line of its declaration
  EXPECT_TRUE(domain);
}

TEST(LintR13, PerSiteSuppressionCoversWholeDeclarations) {
  const auto findings = lint_repo(load_repo("r13_suppressed"), {});
  EXPECT_EQ(count_rule(findings, "R13"), 0) << tamper::lint::format_text(findings);
  EXPECT_EQ(count_rule(findings, "R0"), 0);
}

TEST(LintR13, QuietWhenTaxonomyParamsCarryStrongTypes) {
  const auto findings = lint_repo(load_repo("r13_clean"), {});
  EXPECT_TRUE(findings.empty()) << tamper::lint::format_text(findings);
}

TEST(LintR13, ScopedToSrcHeadersAndFiresExactlyOnce) {
  // The tree holds a raw `pop_id` in a src/ header (fires), the same
  // signature in the .cpp (implementation files are not indexed), a raw
  // `pop` in tools/ (outside src/), and a strong-typed sibling.
  const auto findings = lint_repo(load_repo("r13_scoped"), {});
  EXPECT_EQ(count_rule(findings, "R13"), 1) << tamper::lint::format_text(findings);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].path, "src/fleet/api.h");
  EXPECT_NE(findings[0].message.find("\"pop_id\""), std::string::npos);
}

// ---------------------------------------------------------------- seeded repo

TEST(LintSeeded, ExactlyOneFindingPerCrossFileRule) {
  const auto findings = lint_repo(load_repo("repo_seeded"), {});
  EXPECT_EQ(findings.size(), 2u) << tamper::lint::format_text(findings);
  EXPECT_EQ(count_rule(findings, "R8"), 1);
  EXPECT_EQ(count_rule(findings, "R13"), 1);
  const std::map<std::string, std::string> expected_path = {
      {"R8", "src/service/spool.cpp"},
      {"R13", "src/fleet/route.h"},
  };
  for (const auto& f : findings)
    EXPECT_EQ(f.path, expected_path.at(f.rule)) << f.rule << ": " << f.message;
}

// ---------------------------------------------------------------- parallelism

TEST(LintParallel, ByteIdenticalAcrossThreadCountsAndRuns) {
  const auto files = load_repo("repo_seeded");
  const auto baseline_run = lint_repo(files, {}, /*jobs=*/1);
  const std::string text = tamper::lint::format_text(baseline_run);
  const std::string json = tamper::lint::format_json(baseline_run);
  const std::string sarif = tamper::lint::format_sarif(baseline_run);
  for (const int jobs : {1, 2, 8}) {
    for (int run = 0; run < 2; ++run) {
      const auto again = lint_repo(files, {}, jobs);
      EXPECT_EQ(tamper::lint::format_text(again), text) << "jobs=" << jobs;
      EXPECT_EQ(tamper::lint::format_json(again), json) << "jobs=" << jobs;
      EXPECT_EQ(tamper::lint::format_sarif(again), sarif) << "jobs=" << jobs;
    }
  }
}

TEST(LintParallel, ShuffledInputOrderDoesNotChangeOutput) {
  auto files = load_repo("repo_seeded");
  const std::string text = tamper::lint::format_text(lint_repo(files, {}, 4));
  std::reverse(files.begin(), files.end());
  EXPECT_EQ(tamper::lint::format_text(lint_repo(files, {}, 4)), text);
}

// ---------------------------------------------------------------- SARIF

/// A deliberately small JSON reader — just enough structure to validate the
/// SARIF output against the 2.1.0 shape without external schema tooling.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  void skip() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0)
      ++pos;
  }
  bool eat(char c) {
    skip();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    failed = true;
    return false;
  }
  JsonValue parse() {
    JsonValue v;
    skip();
    if (pos >= text.size()) {
      failed = true;
      return v;
    }
    const char c = text[pos];
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      ++pos;
      skip();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return v;
      }
      while (!failed) {
        skip();
        JsonValue key = parse_string();
        if (failed || !eat(':')) break;
        v.object.emplace(key.str, parse());
        skip();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        eat('}');
        break;
      }
    } else if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      ++pos;
      skip();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return v;
      }
      while (!failed) {
        v.array.push_back(parse());
        skip();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        eat(']');
        break;
      }
    } else if (c == '"') {
      v = parse_string();
    } else if (c == 't' || c == 'f') {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
      pos += c == 't' ? 4 : 5;
    } else if (c == 'n') {
      pos += 4;
    } else {
      v.kind = JsonValue::Kind::kNumber;
      std::size_t end = pos;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
              text[end] == '-' || text[end] == '+' || text[end] == '.' ||
              text[end] == 'e' || text[end] == 'E'))
        ++end;
      v.number = std::stod(std::string(text.substr(pos, end - pos)));
      pos = end;
    }
    return v;
  }
  JsonValue parse_string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    if (!eat('"')) return v;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        const char esc = text[pos + 1];
        if (esc == 'n') v.str.push_back('\n');
        else if (esc == 't') v.str.push_back('\t');
        else if (esc == 'u') {
          pos += 4;  // \u00XX — fixture messages only use control escapes
          v.str.push_back('?');
        } else v.str.push_back(esc);
        pos += 2;
        continue;
      }
      v.str.push_back(text[pos++]);
    }
    if (!eat('"')) failed = true;
    return v;
  }
};

TEST(LintSarif, ValidatesAgainstThe210Shape) {
  const auto findings = lint_repo(load_repo("repo_seeded"), {});
  ASSERT_EQ(findings.size(), 2u);
  const std::string sarif = tamper::lint::format_sarif(findings);

  JsonParser parser{sarif};
  const JsonValue doc = parser.parse();
  ASSERT_FALSE(parser.failed) << "SARIF output is not well-formed JSON";
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);

  const JsonValue* schema = doc.get("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_NE(schema->str.find("sarif-schema-2.1.0"), std::string::npos);
  const JsonValue* version = doc.get("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->str, "2.1.0");

  const JsonValue* runs = doc.get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& run = runs->array[0];

  const JsonValue* tool = run.get("tool");
  ASSERT_NE(tool, nullptr);
  const JsonValue* driver = tool->get("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->get("name")->str, "tamperlint");
  const JsonValue* rules = driver->get("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->array.size(), 8u);  // R0..R13 less the retired R6, R7, R9..R12
  for (const JsonValue& rule : rules->array) {
    ASSERT_NE(rule.get("id"), nullptr);
    ASSERT_NE(rule.get("shortDescription"), nullptr);
    EXPECT_NE(rule.get("shortDescription")->get("text"), nullptr);
  }

  const JsonValue* results = run.get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), findings.size());
  for (const JsonValue& result : results->array) {
    const JsonValue* rule_id = result.get("ruleId");
    ASSERT_NE(rule_id, nullptr);
    const JsonValue* rule_index = result.get("ruleIndex");
    ASSERT_NE(rule_index, nullptr);
    // ruleIndex must point at the catalog entry with the matching id.
    const int idx = static_cast<int>(rule_index->number);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(rules->array.size()));
    EXPECT_EQ(rules->array[static_cast<std::size_t>(idx)].get("id")->str,
              rule_id->str);
    EXPECT_EQ(result.get("level")->str, "error");
    ASSERT_NE(result.get("message"), nullptr);
    EXPECT_FALSE(result.get("message")->get("text")->str.empty());
    const JsonValue* locations = result.get("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->array.size(), 1u);
    const JsonValue* phys = locations->array[0].get("physicalLocation");
    ASSERT_NE(phys, nullptr);
    const JsonValue* artifact = phys->get("artifactLocation");
    ASSERT_NE(artifact, nullptr);
    EXPECT_FALSE(artifact->get("uri")->str.empty());
    EXPECT_EQ(artifact->get("uriBaseId")->str, "SRCROOT");
    EXPECT_GE(phys->get("region")->get("startLine")->number, 1.0);
    const JsonValue* prints = result.get("partialFingerprints");
    ASSERT_NE(prints, nullptr);
    EXPECT_NE(prints->get("tamperlint/v1"), nullptr);
  }
}

TEST(LintSarif, FingerprintsAreStableAcrossRuns) {
  const auto files = load_repo("repo_seeded");
  EXPECT_EQ(tamper::lint::format_sarif(lint_repo(files, {})),
            tamper::lint::format_sarif(lint_repo(files, {})));
}

// ---------------------------------------------------------------- baseline

TEST(LintBaseline, RoundTripsAndDropsMatchedFindings) {
  auto findings = lint_repo(load_repo("repo_seeded"), {});
  ASSERT_EQ(findings.size(), 2u);
  const std::string serialized = tamper::lint::format_baseline(findings);

  std::vector<std::string> errors;
  const auto parsed = tamper::lint::parse_baseline(serialized, errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(parsed.size(), 2u);

  const auto stale = tamper::lint::apply_baseline(findings, parsed);
  EXPECT_TRUE(findings.empty()) << tamper::lint::format_text(findings);
  EXPECT_TRUE(stale.empty());
}

TEST(LintBaseline, MatchesWithoutLineNumbersAndReportsStaleEntries) {
  auto findings = lint_repo(load_repo("repo_seeded"), {});
  ASSERT_EQ(findings.size(), 2u);
  std::vector<tamper::lint::BaselineEntry> baseline;
  // Accept only the R13 finding, plus one entry for a finding that no longer
  // exists (its message changed) — that entry must come back stale.
  for (const auto& f : findings)
    if (f.rule == "R13") baseline.push_back({f.rule, f.path, f.message});
  baseline.push_back({"R13", "src/fleet/route.h", "an old message"});

  const auto stale = tamper::lint::apply_baseline(findings, baseline);
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(count_rule(findings, "R13"), 0);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].message, "an old message");
}

TEST(LintBaseline, MalformedLinesAreErrorsNotSilentAcceptance) {
  std::vector<std::string> errors;
  const auto parsed = tamper::lint::parse_baseline(
      "# comment\nR8 src/service/spool.cpp no tabs here\n", errors);
  EXPECT_TRUE(parsed.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("baseline line 2"), std::string::npos) << errors[0];
}

// ---------------------------------------------------------------- manifest

TEST(LintManifest, WalkFormatParseRoundTrip) {
  std::vector<std::string> errors;
  const auto walked = tamper::lint::walk_sources(
      std::string(LINT_FIXTURE_DIR) + "/r13_scoped", {}, errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(walked.size(), 3u);
  EXPECT_EQ(walked[0], "src/fleet/api.cpp");
  EXPECT_EQ(walked[1], "src/fleet/api.h");
  EXPECT_EQ(walked[2], "tools/cli.h");

  const std::string serialized = tamper::lint::format_manifest(walked);
  EXPECT_EQ(tamper::lint::parse_manifest(serialized), walked);
}

TEST(LintManifest, FormatSortsAndDeduplicates) {
  const std::string serialized = tamper::lint::format_manifest(
      {"src/b.cpp", "src/a.cpp", "src/b.cpp"});
  const auto parsed = tamper::lint::parse_manifest(serialized);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], "src/a.cpp");
  EXPECT_EQ(parsed[1], "src/b.cpp");
}

TEST(LintCatalog, ListsTheCrossFileRules) {
  const std::string catalog = tamper::lint::rule_catalog();
  for (const char* id : {"R8", "R13"})
    EXPECT_NE(catalog.find(id), std::string::npos) << id;
  for (const char* retired : {"R6", "R7", "R9", "R10", "R11", "R12"})
    EXPECT_EQ(catalog.find(retired), std::string::npos) << retired;
}

}  // namespace

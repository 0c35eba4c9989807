// Fixture-backed tests for tamperlint (src/lint): every rule must fire on
// its violation fixture, stay quiet on its clean fixture, and honor
// well-formed suppressions. Fixtures live in tests/lint_fixtures/ and are
// fed through lint_source() under synthetic paths, so the path-scoped rules
// (R2 emission files, R4 net parsers) are exercised no matter where the
// fixture tree sits on disk.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/validate.h"

namespace {

using tamper::lint::Config;
using tamper::lint::Finding;
using tamper::lint::lint_repo;
using tamper::lint::lint_source;
using tamper::lint::SourceFile;
using tamper::obs::JsonValue;

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
}

TEST(LintOutput, ShuffledInputOrderDoesNotChangeOutput) {
  auto files = load_repo("repo_seeded");
  const std::string text = tamper::lint::format_text(lint_repo(files, {}));
  std::reverse(files.begin(), files.end());
  EXPECT_EQ(tamper::lint::format_text(lint_repo(files, {})), text);
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

// ---------------------------------------------------------------- SARIF

TEST(LintSarif, ValidatesAgainstThe210Shape) {
  const auto findings = lint_repo(load_repo("repo_seeded"), {});
  ASSERT_EQ(findings.size(), 2u);
  const std::string sarif = tamper::lint::format_sarif(findings);

  JsonValue doc;
  ASSERT_TRUE(tamper::obs::parse_json(sarif, &doc))
      << "SARIF output is not well-formed JSON";
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);

  const JsonValue* schema = doc.get("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_NE(schema->string.find("sarif-schema-2.1.0"), std::string::npos);
  const JsonValue* version = doc.get("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->string, "2.1.0");

  const JsonValue* runs = doc.get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& run = runs->array[0];

  const JsonValue* tool = run.get("tool");
  ASSERT_NE(tool, nullptr);
  const JsonValue* driver = tool->get("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->get("name")->string, "tamperlint");
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
    EXPECT_EQ(rules->array[static_cast<std::size_t>(idx)].get("id")->string,
              rule_id->string);
    EXPECT_EQ(result.get("level")->string, "error");
    ASSERT_NE(result.get("message"), nullptr);
    EXPECT_FALSE(result.get("message")->get("text")->string.empty());
    const JsonValue* locations = result.get("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->array.size(), 1u);
    const JsonValue* phys = locations->array[0].get("physicalLocation");
    ASSERT_NE(phys, nullptr);
    const JsonValue* artifact = phys->get("artifactLocation");
    ASSERT_NE(artifact, nullptr);
    EXPECT_FALSE(artifact->get("uri")->string.empty());
    EXPECT_EQ(artifact->get("uriBaseId")->string, "SRCROOT");
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

// ---------------------------------------------------------------- walk

TEST(LintWalk, DefaultWalkSkipsBuildTreesAndFixtures) {
  // A scratch tree with one source in each standard directory, plus a
  // build tree and a lint_fixtures tree whose sources must never be read.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "tamper_lint_walk";
  fs::remove_all(root);
  const auto write = [&](const std::string& rel, const std::string& text) {
    fs::create_directories((root / rel).parent_path());
    std::ofstream(root / rel) << text;
  };
  write("src/fleet/api.h", "#pragma once\nvoid route(int pop);\n");
  write("tools/cli.cpp", "int main() { return 0; }\n");
  write("tools/notes.txt", "not C++\n");
  write("tools/build/gen.h", "using namespace std;\n");
  write("src/build-asan/gen.h", "using namespace std;\n");
  write("tests/lint_fixtures/r5.h", "using namespace std;\n");

  std::vector<std::string> errors;
  const auto findings = tamper::lint::lint_paths(root.string(), {}, {}, errors);
  EXPECT_TRUE(errors.empty());
  // The only finding is the R13 in the walked header, named relative to
  // the root; no R5 from the skipped trees.
  ASSERT_EQ(findings.size(), 1u) << tamper::lint::format_text(findings);
  EXPECT_EQ(findings[0].rule, "R13");
  EXPECT_EQ(findings[0].path, "src/fleet/api.h");

  // A named path that does not exist is an error, not an empty scan.
  const auto none = tamper::lint::lint_paths(root.string(), {"nope"}, {}, errors);
  EXPECT_TRUE(none.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], "nope: not a file or directory");
  fs::remove_all(root);
}

TEST(LintCatalog, ListsTheCrossFileRules) {
  const std::string catalog = tamper::lint::rule_catalog();
  for (const char* id : {"R8", "R13"})
    EXPECT_NE(catalog.find(id), std::string::npos) << id;
  for (const char* retired : {"R6", "R7", "R9", "R10", "R11", "R12"})
    EXPECT_EQ(catalog.find(retired), std::string::npos) << retired;
}

}  // namespace

// Golden-fixture tests for tools/sketchml_analyze.
//
// Each pass has a fixture tree under tests/analysis_fixtures/: a
// `<pass>_bad/` whose findings (and exit code 1) are pinned exactly, a
// `<pass>_clean/` that must come back empty, plus trees exercising the
// baseline escape hatch (suppression, staleness, malformed entries) and
// the flag surface (--pass filter, --docs opt-out, --replay-entry). The
// lint fixtures hold one `bad_<rule>.cc` / `good_<rule>.cc` pair per rule
// under `lint_{bad,clean}/src/`, so the src/-only rules apply to them.
// The tests shell out to the real binary so exit codes and output
// format are pinned, not just the pass logic.
//
// Paths are injected by CMake: SKETCHML_ANALYZE_BINARY points at the
// built tool, SKETCHML_ANALYSIS_FIXTURE_DIR at tests/analysis_fixtures.

#include <array>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

#ifndef SKETCHML_ANALYZE_BINARY
#error "build must define SKETCHML_ANALYZE_BINARY"
#endif
#ifndef SKETCHML_ANALYSIS_FIXTURE_DIR
#error "build must define SKETCHML_ANALYSIS_FIXTURE_DIR"
#endif

namespace {

struct AnalyzeRun {
  int exit_code = -1;
  std::string output;  // stdout: one finding per line.
};

AnalyzeRun RunAnalyze(const std::string& args) {
  const std::string cmd =
      std::string(SKETCHML_ANALYZE_BINARY) + " " + args + " 2>/dev/null";
  AnalyzeRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int raw = pclose(pipe);
  run.exit_code = raw >= 0 ? WEXITSTATUS(raw) : -1;
  return run;
}

std::string Root(const std::string& fixture) {
  return "--root=" + std::string(SKETCHML_ANALYSIS_FIXTURE_DIR) + "/" +
         fixture;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  return lines;
}

void ExpectFinding(const AnalyzeRun& run, const std::string& needle) {
  EXPECT_NE(run.output.find(needle), std::string::npos)
      << "missing \"" << needle << "\" in output:\n"
      << run.output;
}

void ExpectClean(const std::string& args) {
  const AnalyzeRun run = RunAnalyze(args);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

TEST(AnalyzeTest, LayeringViolationAndCycle) {
  const AnalyzeRun run = RunAnalyze(Root("layering_bad") + " --pass=layering");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run, "layer 'sketch' may not include \"core/engine.h\"");
  ExpectFinding(run,
                "include cycle: src/common/cycle_a.h -> src/common/cycle_b.h "
                "-> src/common/cycle_a.h");
  // Findings carry their baseline key so escapes are copy-pasteable.
  ExpectFinding(run, "(baseline key: src/sketch/uses_core.cc->core/engine.h)");
}

TEST(AnalyzeTest, LayeringClean) {
  // No --pass: the clean tree must survive all four passes.
  ExpectClean(Root("layering_clean"));
}

TEST(AnalyzeTest, BaselineSuppressesFinding) {
  // tools/analysis_baseline.txt inside the fixture root is discovered
  // automatically and covers the one layering violation.
  ExpectClean(Root("layering_baseline"));
}

TEST(AnalyzeTest, StaleBaselineEntryIsAFinding) {
  const AnalyzeRun run = RunAnalyze(Root("stale_baseline"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  ExpectFinding(run, "stale baseline entry");
}

TEST(AnalyzeTest, WireSequenceMismatchAndMissingReader) {
  const AnalyzeRun run = RunAnalyze(Root("wire_bad") + " --pass=wire");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run,
                "demo::ShardState::Serialize writes [u32,u64] but "
                "demo::ShardState::Deserialize reads [u32]");
  ExpectFinding(run, "SaveState in ClockState has no matching RestoreState");
}

TEST(AnalyzeTest, WireClean) { ExpectClean(Root("wire_clean")); }

TEST(AnalyzeTest, NamesOrphanWithNearMissAndDocsDrift) {
  const AnalyzeRun run = RunAnalyze(Root("names_bad") + " --pass=names");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run,
                "consumed metric \"trainer/steps\" has no registration site; "
                "did you mean \"trainer/step\"?");
  ExpectFinding(run, "documented metric \"foo/bar_seconds\"");
  ExpectFinding(run, "docs/metrics.md:4");
}

TEST(AnalyzeTest, NamesClean) { ExpectClean(Root("names_clean")); }

TEST(AnalyzeTest, NamesDocsScanOptOut) {
  // `--docs=` (empty) disables doc scanning: only the code orphan stays.
  const AnalyzeRun run =
      RunAnalyze(Root("names_bad") + " --pass=names --docs=");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  EXPECT_EQ(run.output.find("documented metric"), std::string::npos)
      << run.output;
}

TEST(AnalyzeTest, ReplayWallClockOnCriticalPath) {
  const AnalyzeRun run = RunAnalyze(Root("replay_bad") + " --pass=replay");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  ExpectFinding(run, "replay-critical path uses steady_clock");
  // The finding carries the shortest witness path from the entry point.
  ExpectFinding(run, "demo::EncodeImpl -> demo::TimedHelper");
}

TEST(AnalyzeTest, ReplayUnreachableTaintIsClean) {
  ExpectClean(Root("replay_clean") + " --pass=replay");
}

TEST(AnalyzeTest, ReplayCustomEntryPoint) {
  // Naming the tainted function as an entry flips the same tree to 1.
  const AnalyzeRun run = RunAnalyze(
      Root("replay_clean") + " --pass=replay --replay-entry=WallClockDebugOnly");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  ExpectFinding(run, "demo::WallClockDebugOnly");
}

// Lint findings are `file:line: [rule] message`; keep the `file:line:
// [rule]` prefixes of the lines reporting on `file`.
std::multiset<std::string> LintPrefixesFor(const AnalyzeRun& run,
                                           const std::string& file) {
  std::multiset<std::string> prefixes;
  std::istringstream lines(run.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(file + ":", 0) != 0) continue;
    prefixes.insert(line.substr(0, line.find(']') + 1));
  }
  return prefixes;
}

struct ExpectedDiag {
  int line;
  const char* rule;
};

// `lint_bad/src/bad_<rule>.cc` must report exactly the expected (line,
// rule) pairs — compared as a multiset, so a missing, extra or
// duplicated diagnostic all fail — and `lint_clean/src/good_<rule>.cc`
// (near-miss identifiers, justified NOLINT escapes) must report nothing.
void ExpectLintRule(const std::string& rule,
                    std::initializer_list<ExpectedDiag> expected) {
  const std::string bad = "src/bad_" + rule + ".cc";
  std::multiset<std::string> want;
  for (const ExpectedDiag& diag : expected) {
    want.insert(bad + ":" + std::to_string(diag.line) + ": [" + diag.rule +
                "]");
  }
  const AnalyzeRun run = RunAnalyze(Root("lint_bad") + " --pass=lint");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(LintPrefixesFor(run, bad), want) << run.output;

  const std::string good = "src/good_" + rule + ".cc";
  const AnalyzeRun clean = RunAnalyze(Root("lint_clean") + " --pass=lint");
  EXPECT_TRUE(LintPrefixesFor(clean, good).empty()) << clean.output;
}

TEST(LintTest, DiscardedStatus) {
  ExpectLintRule("discarded_status", {{11, "sketchml-discarded-status"},
                                      {12, "sketchml-discarded-status"}});
}

TEST(LintTest, BannedRandom) {
  ExpectLintRule("banned_random", {{10, "sketchml-banned-random"},
                                   {11, "sketchml-banned-random"},
                                   {11, "sketchml-banned-random"}});
}

TEST(LintTest, Wallclock) {
  ExpectLintRule("wallclock",
                 {{8, "sketchml-wallclock"}, {9, "sketchml-wallclock"}});
}

TEST(LintTest, Stdout) {
  ExpectLintRule("stdout", {{9, "sketchml-stdout"}, {10, "sketchml-stdout"}});
}

TEST(LintTest, IncludeHygiene) {
  ExpectLintRule("include_hygiene", {{5, "sketchml-include-hygiene"},
                                     {6, "sketchml-include-hygiene"}});
}

TEST(LintTest, NakedNew) {
  ExpectLintRule("naked_new",
                 {{11, "sketchml-naked-new"}, {13, "sketchml-naked-new"}});
}

TEST(LintTest, RawSimd) {
  ExpectLintRule("raw_simd", {{3, "sketchml-raw-simd"},
                              {8, "sketchml-raw-simd"},
                              {10, "sketchml-raw-simd"}});
}

TEST(LintTest, TraceCategory) {
  ExpectLintRule("trace_category", {{11, "sketchml-trace-category"},
                                    {12, "sketchml-trace-category"},
                                    {14, "sketchml-trace-category"},
                                    {17, "sketchml-trace-category"}});
}

TEST(LintTest, NolintJustification) {
  ExpectLintRule("nolint_justification",
                 {{10, "sketchml-nolint-justification"},
                  {11, "sketchml-nolint-justification"},
                  {13, "sketchml-nolint-justification"},
                  {15, "sketchml-nolint-justification"}});
}

// A tree scan skips tests/analysis_fixtures/, so the bad fixtures never
// fail the tree-wide `lint` gate. lint_nested holds one banned-random
// violation, but only below its own tests/analysis_fixtures/; its
// src/scanned.cc is clean.
TEST(LintTest, FixtureDirectorySkippedInScan) {
  ExpectClean(Root("lint_nested") + " --pass=lint");
}

TEST(AnalyzeTest, LintCleanFixtures) {
  // Near-miss identifiers and justified NOLINT escapes; clean under every
  // pass, not just lint.
  ExpectClean(Root("lint_clean"));
}

TEST(AnalyzeTest, PassFilterSkipsOtherPasses) {
  // wire_bad has wire findings only; a layering-only run is clean.
  ExpectClean(Root("wire_bad") + " --pass=layering");
}

TEST(AnalyzeTest, ListPasses) {
  const AnalyzeRun run = RunAnalyze("--list-passes");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* id : {"layering", "wire", "names", "replay", "lint"}) {
    EXPECT_NE(run.output.find(id), std::string::npos) << run.output;
  }
}

TEST(AnalyzeTest, ConfigErrorsExitTwo) {
  EXPECT_EQ(RunAnalyze("--pass=nosuch").exit_code, 2);
  EXPECT_EQ(RunAnalyze("--root=/no/such/dir").exit_code, 2);
  EXPECT_EQ(RunAnalyze("--no-such-flag").exit_code, 2);
  // Malformed baseline (entry without justification) is a config error,
  // not a silent accept.
  EXPECT_EQ(RunAnalyze(Root("bad_baseline")).exit_code, 2);
}

}  // namespace

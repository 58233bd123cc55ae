#ifndef SKETCHML_ANALYSIS_PASSES_H_
#define SKETCHML_ANALYSIS_PASSES_H_

// The passes behind tools/sketchml_analyze: four cross-TU semantic
// passes over one project model, plus the per-file `lint` rules.
//
//   layering  — the include graph must respect the layer DAG
//               (common -> sketch -> compress -> core -> ml -> dist ->
//               tools; src/analysis is std-only) and contain no cycles.
//   wire      — every Serialize/SerializeTail/SaveState has its matching
//               Deserialize/MergeSerialized/RestoreState, and the two
//               bodies issue the same Write*/Read* field sequence
//               (width + order), so wire/checkpoint format drift fails
//               the build instead of a golden test.
//   names     — metric and trace-span string literals consumed in
//               reports, trace analysis, and docs must have a matching
//               registration/emission site; near-miss typos are called
//               out explicitly.
//   replay    — call-graph reachability from replay-critical entry
//               points (trainer epoch loop, codec Encode/Decode, fault
//               and membership oracles) must not hit wall-clock or
//               ambient-randomness primitives outside the sanctioned
//               common/ wrappers. NOLINT does not clear a finding here:
//               a deterministic path that needs an exception must be
//               baselined with a justification.
//   lint      — per-line rules the compiler cannot express (discarded
//               Status, banned randomness, wall-clock reads, stdout in
//               libraries, include hygiene, naked new, raw SIMD, trace
//               categories, NOLINT justification); see lint.cc. Its
//               escape hatch is a justified `NOLINT(<rule>): <why>`.
//
// Intentional semantic-pass violations live in a checked-in baseline file
// (one `<pass> <key> <justification>` line each); stale entries are
// findings themselves so the escape hatch cannot rot. Lint findings are
// never baselined.

#include <map>
#include <string>
#include <vector>

#include "analysis/project_model.h"

namespace sketchml::analysis {

struct Finding {
  std::string pass;  // "layering", "wire", "names", "replay", or "lint".
  std::string key;   // Stable, space-free baseline key (lint: rule id).
  std::string file;  // Repo-relative path for display ("" for global).
  size_t line = 0;   // 1-based; 0 when not tied to a line.
  std::string message;
};

struct AnalyzeOptions {
  // Replay-pass entry points, matched as substrings of qualified
  // function names. Empty means the built-in replay-critical set.
  std::vector<std::string> replay_entries;
  // Directory of *.md files scanned by the names pass for metric
  // references; "" disables doc scanning.
  std::string docs_dir;
};

std::vector<Finding> RunLayeringPass(const ProjectModel& model);
std::vector<Finding> RunWirePass(const ProjectModel& model);
std::vector<Finding> RunNamesPass(const ProjectModel& model,
                                  const AnalyzeOptions& options);
std::vector<Finding> RunReplayPass(const ProjectModel& model,
                                   const AnalyzeOptions& options);
std::vector<Finding> RunLintPass(const ProjectModel& model);

/// Baseline of intentional findings: (pass, key) -> justification.
struct Baseline {
  std::map<std::pair<std::string, std::string>, std::string> entries;
};

/// Parses a baseline file. Each non-blank, non-# line is
/// `<pass> <key> <justification...>`; a missing justification or unknown
/// pass id is a config error (returns false and sets `error`).
bool ParseBaseline(const std::string& text, Baseline* baseline,
                   std::string* error);

/// Removes findings whose (pass, key) appears in `baseline` and appends
/// one "stale baseline entry" finding for every baseline entry (of a
/// pass id in `passes_run`) that suppressed nothing.
std::vector<Finding> ApplyBaseline(std::vector<Finding> findings,
                                   const Baseline& baseline,
                                   const std::vector<std::string>& passes_run);

}  // namespace sketchml::analysis

#endif  // SKETCHML_ANALYSIS_PASSES_H_

// sketchml_analyze: the repo's static analyzer.
//
// Builds a project model (src/analysis/project_model.h) over src/ +
// tools/ and runs four cross-TU passes, then the per-file lint rules over
// src/ + tests/ + tools/ + bench/:
//
//   layering   include graph respects the layer DAG; no include cycles
//   wire       Serialize/SerializeTail/SaveState methods have matching
//              readers issuing the same Write*/Read* field sequence
//   names      metric/trace literals consumed in reports, the trace
//              analyzer, and docs have matching registration sites
//   replay     no wall-clock / ambient randomness reachable from the
//              replay-critical entry points (trainer epoch loop, codec
//              Encode/Decode, fault and membership oracles)
//   lint       per-line rules (src/analysis/lint.cc), printed as
//              `file:line: [rule-id] message`; a justified
//              `NOLINT(rule-id): <why>` is their only escape hatch
//
// Usage: sketchml_analyze [--root=DIR] [--pass=ID] [--baseline=FILE]
//                         [--replay-entry=SPEC]... [--docs=DIR]
//                         [--list-passes] [--quiet]
//
// Intentional semantic-pass findings are recorded in the baseline file
// (default <root>/tools/analysis_baseline.txt when present): one
// `<pass> <key> <justification>` line each. The baseline key for every
// such finding is printed with the diagnostic. Stale entries are
// findings.
//
// Exit codes: 0 clean, 1 findings, 2 usage/config error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "analysis/project_model.h"

namespace {

using sketchml::analysis::AnalyzeOptions;
using sketchml::analysis::ApplyBaseline;
using sketchml::analysis::Baseline;
using sketchml::analysis::Finding;
using sketchml::analysis::ParseBaseline;
using sketchml::analysis::ProjectModel;

const char* const kPassIds[] = {"layering", "wire", "names", "replay",
                                "lint"};

int Usage() {
  std::fprintf(
      stderr,
      "usage: sketchml_analyze [--root=DIR] [--pass=ID] [--baseline=FILE]\n"
      "                        [--replay-entry=SPEC]... [--docs=DIR]\n"
      "                        [--list-passes] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string only_pass;
  std::string baseline_path;
  bool baseline_explicit = false;
  bool docs_explicit = false;
  bool quiet = false;
  AnalyzeOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg.rfind("--pass=", 0) == 0) {
      only_pass = value("--pass=");
      bool known = false;
      for (const char* id : kPassIds) known = known || only_pass == id;
      if (!known) {
        std::fprintf(stderr, "sketchml_analyze: unknown pass '%s'\n",
                     only_pass.c_str());
        return 2;
      }
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
      baseline_explicit = true;
    } else if (arg.rfind("--replay-entry=", 0) == 0) {
      options.replay_entries.push_back(value("--replay-entry="));
    } else if (arg.rfind("--docs=", 0) == 0) {
      options.docs_dir = value("--docs=");
      docs_explicit = true;
    } else if (arg == "--list-passes") {
      for (const char* id : kPassIds) std::printf("%s\n", id);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "sketchml_analyze: root '%s' is not a directory\n",
                 root.c_str());
    return 2;
  }
  if (!baseline_explicit) {
    const fs::path candidate = fs::path(root) / "tools/analysis_baseline.txt";
    if (fs::exists(candidate, ec)) baseline_path = candidate.string();
  }
  if (!docs_explicit) {
    const fs::path candidate = fs::path(root) / "docs";
    if (fs::is_directory(candidate, ec)) {
      options.docs_dir = candidate.string();
    }
  }

  Baseline baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "sketchml_analyze: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!ParseBaseline(buf.str(), &baseline, &error)) {
      std::fprintf(stderr, "sketchml_analyze: %s\n", error.c_str());
      return 2;
    }
  }

  ProjectModel model;
  std::string error;
  if (!sketchml::analysis::LoadProjectTree(root, {"src", "tools"}, &model,
                                           &error)) {
    std::fprintf(stderr, "sketchml_analyze: %s\n", error.c_str());
    return 2;
  }
  if (model.files.empty()) {
    std::fprintf(stderr, "sketchml_analyze: no sources under '%s'\n",
                 root.c_str());
    return 2;
  }

  size_t files_scanned = model.files.size();
  std::vector<Finding> findings;
  std::vector<std::string> passes_run;
  const auto want = [&](const char* id) {
    return only_pass.empty() || only_pass == id;
  };
  if (want("layering")) {
    passes_run.push_back("layering");
    for (Finding& f : sketchml::analysis::RunLayeringPass(model)) {
      findings.push_back(std::move(f));
    }
  }
  if (want("wire")) {
    passes_run.push_back("wire");
    for (Finding& f : sketchml::analysis::RunWirePass(model)) {
      findings.push_back(std::move(f));
    }
  }
  if (want("names")) {
    passes_run.push_back("names");
    for (Finding& f : sketchml::analysis::RunNamesPass(model, options)) {
      findings.push_back(std::move(f));
    }
  }
  if (want("replay")) {
    passes_run.push_back("replay");
    for (Finding& f : sketchml::analysis::RunReplayPass(model, options)) {
      findings.push_back(std::move(f));
    }
  }
  if (want("lint")) {
    passes_run.push_back("lint");
    ProjectModel lint_model;
    if (!sketchml::analysis::LoadProjectTree(
            root, {"src", "tests", "tools", "bench"}, &lint_model, &error)) {
      std::fprintf(stderr, "sketchml_analyze: %s\n", error.c_str());
      return 2;
    }
    files_scanned = lint_model.files.size();  // A superset of `model`.
    for (Finding& f : sketchml::analysis::RunLintPass(lint_model)) {
      findings.push_back(std::move(f));
    }
  }

  findings = ApplyBaseline(std::move(findings), baseline, passes_run);
  for (const Finding& f : findings) {
    const std::string where =
        f.file.empty() ? "(project)"
                       : f.file + ":" + std::to_string(f.line);
    if (f.pass == "lint") {  // Keyed by rule id; NOLINT, not the baseline.
      std::printf("%s: [%s] %s\n", where.c_str(), f.key.c_str(),
                  f.message.c_str());
      continue;
    }
    std::printf("%s: [%s] %s (baseline key: %s)\n", where.c_str(),
                f.pass.c_str(), f.message.c_str(), f.key.c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "sketchml_analyze: %zu file(s), %zu finding(s)\n",
                 files_scanned, findings.size());
  }
  return findings.empty() ? 0 : 1;
}

#ifndef SKETCHML_ANALYSIS_PROJECT_MODEL_H_
#define SKETCHML_ANALYSIS_PROJECT_MODEL_H_

// Whole-project source model for cross-translation-unit analysis.
//
// The lint pass reasons about one file at a time; the semantic passes
// in `tools/sketchml_analyze` need properties no single TU can show: the
// include graph (layering, cycles), matched serialize/deserialize method
// pairs (wire-format symmetry), registration vs. consumption of
// metric/trace name literals, and call-graph reachability (replay
// purity). This model is the shared substrate: every scanned
// file stripped to code (see stripped_source.h), its quoted project
// includes, and a heuristic function index — qualified name, owning
// class, body line range, call sites, and string literals per function.
//
// The function scanner is deliberately an 80% parser: it tracks brace
// depth, namespace/class scopes, and distinguishes definitions from
// declarations by walking a signature to `{` vs `;`. That is enough to
// index every function in this repo; pathological C++ that confuses it
// degrades analysis coverage, never correctness of the build.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stripped_source.h"

namespace sketchml::analysis {

/// One identifier-followed-by-'(' occurrence inside a function body.
struct CallSite {
  std::string name;       // Callee as written, without qualifiers.
  std::string qualified;  // With any explicit A::B:: qualifier chain.
  size_t line = 0;        // 1-based.
};

/// One function (or method) definition.
struct FunctionDef {
  std::string name;       // Unqualified name.
  std::string qualified;  // namespace::Class::name as resolvable from the
                          // scope stack plus explicit qualifiers.
  std::string owner;      // Innermost class (scope or explicit qualifier),
                          // "" for free functions.
  int file = -1;          // Index into ProjectModel::files.
  size_t line = 0;        // 1-based line of the signature's '('.
  size_t body_begin = 0;  // 1-based first line of the body (the '{').
  size_t body_end = 0;    // 1-based line of the closing '}'.
  std::vector<CallSite> calls;
  std::vector<std::pair<std::string, size_t>> literals;  // (text, line).
};

/// One scanned file.
struct ProjectFile {
  StrippedSource src;
  std::vector<std::string> includes;  // Quoted project-relative includes.
  std::vector<size_t> include_lines;  // 1-based, aligned with `includes`.
};

struct ProjectModel {
  std::vector<ProjectFile> files;
  std::vector<FunctionDef> functions;
  // Unqualified name -> indices into `functions`.
  std::map<std::string, std::vector<int>, std::less<>> functions_by_name;

  /// Index of the file whose repo-relative path is `rel`, or -1.
  int FileIndex(std::string_view rel) const;

  /// All functions defined in class/struct `owner`.
  std::vector<const FunctionDef*> MethodsOf(std::string_view owner) const;
};

/// Parses one stripped file into the model: appends the file, extracts
/// its includes, and indexes its function definitions.
void AddFileToModel(StrippedSource src, ProjectModel* model);

/// Loads every .h/.cc under `root`/<subdir> for each subdir (links
/// followed; paths containing "analysis_fixtures" *below* the scanned
/// subdir are skipped, so a fixture tree can itself be the root) and
/// builds the model. Returns false and sets `error`
/// when a subdir exists but a file cannot be read; nonexistent subdirs
/// are silently skipped so fixture trees can be partial.
bool LoadProjectTree(const std::string& root,
                     const std::vector<std::string>& subdirs,
                     ProjectModel* model, std::string* error);

}  // namespace sketchml::analysis

#endif  // SKETCHML_ANALYSIS_PROJECT_MODEL_H_

// The `lint` pass: per-file, per-line rules that generic tooling cannot
// know, run over the stripped view of every scanned file (comments and
// literal contents blanked, see stripped_source.h):
//
//   sketchml-discarded-status      no bare-statement or (void)-cast calls
//                                  to known Status/Result-returning APIs
//   sketchml-banned-random         no std::rand/srand/random_device/time()
//                                  seeding outside common/random
//   sketchml-wallclock             no raw clock reads outside the timing
//                                  infrastructure (stopwatch/trace)
//   sketchml-stdout                no std::cout / printf / puts in src/
//                                  libraries (logging or snprintf only)
//   sketchml-include-hygiene       a .cc includes its own header first; no
//                                  <bits/...> internal headers anywhere
//   sketchml-naked-new             no naked new/delete in src/ (containers
//                                  and smart pointers own memory)
//   sketchml-raw-simd              vector intrinsics only inside the
//                                  src/common/simd* dispatch seam
//   sketchml-trace-category        TraceSpan/EmitSpan categories are
//                                  string literals from the allowlist
//   sketchml-nolint-justification  every suppression marker names the
//                                  rule(s) it silences and says why
//
// Escape hatch: `// NOLINT(sketchml-<rule>): <why>` on the offending line
// or `// NOLINTNEXTLINE(sketchml-<rule>): <why>` on the line above. The
// justification audit itself cannot be suppressed, and the baseline file
// never covers lint findings; rule rationales live in
// docs/static_analysis.md.

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/passes.h"

namespace sketchml::analysis {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------------------
// Rules.

void Report(const StrippedSource& file, size_t line_idx,
            const std::string& rule, std::string message,
            std::vector<Finding>* out) {
  if (Suppressed(file, line_idx, rule)) return;
  out->push_back({"lint", rule, file.rel, line_idx + 1, std::move(message)});
}

bool InSrc(const StrippedSource& f) { return StartsWith(f.rel, "src/"); }

bool PathIsOneOf(const StrippedSource& f,
                 std::initializer_list<std::string_view> stems) {
  for (std::string_view stem : stems) {
    if (f.rel.find(stem) != std::string::npos) return true;
  }
  return false;
}

// sketchml-banned-random: nondeterminism sources outside common/random.
void CheckBannedRandom(const StrippedSource& file, std::vector<Finding>* out) {
  if (PathIsOneOf(file, {"common/random."})) return;
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (ContainsToken(line, "random_device")) {
      Report(file, i, "sketchml-banned-random",
             "std::random_device is nondeterministic; derive seeds from "
             "common::Rng / LaneSeed",
             out);
    }
    if (ContainsCall(line, "rand") || ContainsCall(line, "srand")) {
      Report(file, i, "sketchml-banned-random",
             "C PRNG breaks seed-lane determinism; use common::Rng", out);
    }
    if (ContainsCall(line, "time")) {
      Report(file, i, "sketchml-banned-random",
             "time() seeding makes runs unreplayable; use a fixed or "
             "flag-provided seed",
             out);
    }
  }
}

// sketchml-wallclock: clock reads outside the timing infrastructure.
void CheckWallclock(const StrippedSource& file, std::vector<Finding>* out) {
  // Stopwatch and the trace ring are *the* sanctioned clock owners.
  if (PathIsOneOf(file, {"common/stopwatch.", "common/trace."})) return;
  static const char* kClocks[] = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime", "gmtime",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const char* clock : kClocks) {
      if (ContainsToken(line, clock)) {
        Report(file, i, "sketchml-wallclock",
               std::string(clock) +
                   " read outside stopwatch/trace; route timing through "
                   "common::Stopwatch or obs::NowNs",
               out);
      }
    }
  }
}

// sketchml-stdout: library code must not print to stdout.
void CheckStdout(const StrippedSource& file, std::vector<Finding>* out) {
  if (!InSrc(file)) return;
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (ContainsToken(line, "cout")) {
      Report(file, i, "sketchml-stdout",
             "std::cout in library code; use SKETCHML_LOG or return data",
             out);
    }
    if (ContainsCall(line, "printf") || ContainsCall(line, "puts")) {
      Report(file, i, "sketchml-stdout",
             "printf/puts writes to stdout from library code; use "
             "SKETCHML_LOG (std::snprintf into a buffer is fine)",
             out);
    }
  }
}

// sketchml-include-hygiene: own header first, no <bits/...>.
void CheckIncludeHygiene(const StrippedSource& file,
                         std::vector<Finding>* out) {
  std::string first_include;
  size_t first_include_line = 0;
  for (size_t i = 0; i < file.code.size(); ++i) {
    // Detect the directive on the stripped line (so commented-out
    // includes don't count) but match header names on the raw line — the
    // stripper blanks quoted include paths like any string literal.
    if (file.code[i].find("#include") == std::string::npos) continue;
    const std::string& line = file.raw[i];
    if (line.find("<bits/") != std::string::npos) {
      Report(file, i, "sketchml-include-hygiene",
             "<bits/...> is a libstdc++ internal header; include the "
             "standard header instead",
             out);
    }
    if (first_include.empty()) {
      first_include = line;
      first_include_line = i;
    }
  }
  // Own-header-first applies to library/tool .cc files with a sibling .h.
  if (file.rel.size() > 3 && StartsWith(file.rel, "src/") &&
      file.rel.substr(file.rel.size() - 3) == ".cc" && !first_include.empty()) {
    // src/<dir>/<stem>.cc includes "<dir>/<stem>.h" (project-relative).
    const std::string project_rel =
        file.rel.substr(4, file.rel.size() - 4 - 3);  // "<dir>/<stem>"
    const std::string own_header = "\"" + project_rel + ".h\"";
    bool has_own_header = false;
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (file.code[i].find("#include") != std::string::npos &&
          file.raw[i].find(own_header) != std::string::npos) {
        has_own_header = true;
        break;
      }
    }
    if (has_own_header &&
        first_include.find(own_header) == std::string::npos) {
      Report(file, first_include_line, "sketchml-include-hygiene",
             "a .cc file includes its own header first (found " +
                 first_include.substr(first_include.find("#include")) +
                 " before " + own_header + ")",
             out);
    }
  }
}

// sketchml-naked-new: manual memory management in src/.
void CheckNakedNew(const StrippedSource& file, std::vector<Finding>* out) {
  if (!InSrc(file)) return;
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (ContainsToken(line, "new")) {
      // make_shared/make_unique lines never contain a naked `new` token;
      // placement new and `new (std::nothrow)` are still flagged.
      Report(file, i, "sketchml-naked-new",
             "naked new in library code; use std::make_unique/make_shared "
             "or a container",
             out);
    }
    if (ContainsToken(line, "delete")) {
      // `= delete` (deleted special members) is not memory management.
      size_t pos = line.find("delete");
      bool deleted_fn = false;
      while (pos != std::string::npos) {
        size_t before = pos;
        while (before > 0 && line[before - 1] == ' ') --before;
        if (before > 0 && line[before - 1] == '=') deleted_fn = true;
        pos = line.find("delete", pos + 1);
      }
      if (!deleted_fn) {
        Report(file, i, "sketchml-naked-new",
               "naked delete in library code; let RAII own the lifetime",
               out);
      }
    }
  }
}

// sketchml-raw-simd: vector intrinsics only inside the dispatch seam
// (src/common/simd*), keeping scalar/SIMD parity testable in one place.
void CheckRawSimd(const StrippedSource& file, std::vector<Finding>* out) {
  if (PathIsOneOf(file, {"common/simd"})) return;
  static const char* kIntrinHeaders[] = {
      "immintrin.h", "x86intrin.h", "xmmintrin.h", "emmintrin.h",
      "pmmintrin.h", "smmintrin.h", "tmmintrin.h", "nmmintrin.h",
      "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "arm_neon.h",
  };
  static const char* kIntrinPrefixes[] = {
      "_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    if (line.find("#include") != std::string::npos) {
      // Angle-bracket paths survive stripping, but match against the raw
      // line so quoted includes are covered too.
      for (const char* header : kIntrinHeaders) {
        if (file.raw[i].find(header) != std::string::npos) {
          Report(file, i, "sketchml-raw-simd",
                 std::string(header) +
                     " included outside src/common/simd*; add a kernel to "
                     "the dispatch seam instead",
                 out);
          break;
        }
      }
      continue;
    }
    for (const char* prefix : kIntrinPrefixes) {
      if (ContainsTokenPrefix(line, prefix)) {
        Report(file, i, "sketchml-raw-simd",
               std::string(prefix) +
                   "* intrinsic outside src/common/simd*; add a kernel to "
                   "the dispatch seam instead",
               out);
        break;  // One diagnostic per line.
      }
    }
  }
}

// sketchml-trace-category: span categories are literals from the documented
// allowlist. Covers TraceSpan constructions, EmitSpan/EmitSpanWithParent
// calls, and optional<TraceSpan>::emplace through span-named receivers
// (the trainer's conditional spans). common/trace.* declares the API and
// is exempt.
void CheckTraceCategory(const StrippedSource& file, std::vector<Finding>* out) {
  if (PathIsOneOf(file, {"common/trace."})) return;
  static const char* kAllowed[] = {"trainer", "codec", "network", "test",
                                   "bench"};
  const auto allowed = [](std::string_view category) {
    for (const char* c : kAllowed) {
      if (category == c) return true;
    }
    return false;
  };

  // Checks the first argument of a span construction whose '(' sits at
  // (line_idx, paren). The argument may start on a following line
  // (clang-format wraps long EmitSpan calls after the open paren); the
  // literal text is read from the raw line because the stripper blanks
  // literal contents while preserving columns.
  const auto check_first_arg = [&](size_t line_idx, size_t paren) {
    size_t li = line_idx;
    size_t pos = paren + 1;
    for (int hop = 0; hop < 3 && li < file.code.size(); ++hop) {
      const std::string& code = file.code[li];
      pos = code.find_first_not_of(' ', pos);
      if (pos == std::string::npos) {
        ++li;
        pos = 0;
        continue;
      }
      if (code[pos] == ')') return;  // Empty argument list: a declaration.
      if (code[pos] != '"') {
        Report(file, li, "sketchml-trace-category",
               "span category is not a string literal; the trace ring "
               "stores the category pointer and filters compare exact "
               "names — pass a literal from the docs/observability.md "
               "allowlist",
               out);
        return;
      }
      // Literal contents are blanked in `code`, so the next '"' closes it.
      const size_t close = code.find('"', pos + 1);
      if (close == std::string::npos || li >= file.raw.size() ||
          close >= file.raw[li].size()) {
        return;  // Malformed or misaligned; nothing safe to check.
      }
      const std::string category =
          file.raw[li].substr(pos + 1, close - pos - 1);
      if (!allowed(category)) {
        Report(file, li, "sketchml-trace-category",
               "span category \"" + category +
                   "\" is not in the documented allowlist (trainer, codec, "
                   "network, test, bench); use an existing category or "
                   "extend docs/observability.md and this rule together",
               out);
      }
      return;
    }
  };

  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (std::string_view token :
         {std::string_view("TraceSpan"), std::string_view("EmitSpan"),
          std::string_view("EmitSpanWithParent")}) {
      size_t pos = 0;
      while ((pos = line.find(token, pos)) != std::string::npos) {
        const size_t end = pos + token.size();
        const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
        const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
        pos = end;
        if (!left_ok || !right_ok) continue;
        size_t after = line.find_first_not_of(' ', end);
        if (after == std::string::npos) continue;
        if (token == "TraceSpan" && IsIdentChar(line[after])) {
          // `TraceSpan name(...)`: a named local; skip the variable name.
          while (after < line.size() && IsIdentChar(line[after])) ++after;
          after = line.find_first_not_of(' ', after);
          if (after == std::string::npos) continue;
        }
        // Anything but '(' here is a type use (optional<TraceSpan>,
        // `const TraceSpan&`, a plain declaration), not a construction.
        if (line[after] != '(') continue;
        check_first_arg(i, after);
      }
    }
    // optional<TraceSpan>::emplace — tie to span-named receivers so
    // unrelated container emplace calls never match.
    size_t epos = 0;
    while ((epos = line.find("emplace", epos)) != std::string::npos) {
      const size_t eend = epos + 7;
      const bool is_call = epos > 0 &&
                           (line[epos - 1] == '.' || line[epos - 1] == '>') &&
                           eend < line.size() && line[eend] == '(';
      epos = eend;
      if (!is_call) continue;
      size_t rcv_end = eend - 7 - (line[eend - 8] == '>' ? 2 : 1);
      size_t rcv_begin = rcv_end;
      while (rcv_begin > 0 && IsIdentChar(line[rcv_begin - 1])) --rcv_begin;
      const std::string_view receiver =
          std::string_view(line).substr(rcv_begin, rcv_end - rcv_begin);
      const bool span_receiver =
          receiver == "span" ||
          (receiver.size() >= 5 &&
           (receiver.substr(receiver.size() - 5) == "_span" ||
            receiver.substr(receiver.size() - 4) == "Span"));
      if (span_receiver) check_first_arg(i, eend);
    }
  }
}

// sketchml-discarded-status: bare-statement calls to APIs known to return
// Status/Result, and (void)-casts silencing [[nodiscard]] without NOLINT.
//
// The compiler enforces the general case via [[nodiscard]] on Status and
// Result; this rule closes the two remaining holes: `(void)` casts added
// without justification, and calls through names whose declarations live
// outside the build (scripts, generated code).
void CheckDiscardedStatus(const StrippedSource& file,
                          std::vector<Finding>* out) {
  // Method/function names whose return is a Status/Result in this repo.
  static const char* kStatusCalls[] = {
      "Encode",      "Decode",          "EncodeImpl",    "DecodeImpl",
      "Deserialize", "DeserializeMeans", "UnframeMessage", "Validate",
      "ValidateClusterConfig", "ValidateFaultPlan", "ValidateEncodable",
      "ReadU8",      "ReadU16",  "ReadU32",  "ReadU64",  "ReadI32",
      "ReadI64",     "ReadFloat", "ReadDouble", "ReadUintN", "ReadVarint",
      "ReadRaw",     "ReadSpan", "RunEpoch", "WriteObsOutputs",
      "WriteLibSvmFile",        "MergeRuns",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    // Hole 1: `(void)` cast of a status call.
    if (line.find("(void)") != std::string::npos) {
      for (const char* name : kStatusCalls) {
        const size_t void_pos = line.find("(void)");
        const size_t call_pos = line.find(name, void_pos);
        if (call_pos != std::string::npos &&
            ContainsCall(line.substr(void_pos), name)) {
          Report(file, i, "sketchml-discarded-status",
                 std::string("(void)-discarded ") + name +
                     "() hides a Status; justify with NOLINT or handle it",
                 out);
          break;
        }
      }
    }
    // Hole 2: bare statement `obj.Call(...);` or `Call(...);` whose value
    // is unused. Heuristic: the trimmed line starts with the call chain
    // (no assignment/return/guard) and ends the statement on this line or
    // a later one without the value being consumed.
    std::string trimmed = line;
    const size_t start = trimmed.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    trimmed = trimmed.substr(start);
    for (const char* name : kStatusCalls) {
      // Candidate shapes: "Name(", "obj.Name(", "ptr->Name(", "ns::Name(".
      size_t pos = trimmed.find(name);
      if (pos == std::string::npos) continue;
      std::string head = trimmed.substr(0, pos);
      // Head must be only an object path (identifiers, ., ->, ::, *, this).
      const bool head_is_path =
          head.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz"
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:->()*") ==
          std::string::npos;
      if (!head_is_path) continue;
      if (head.find('=') != std::string::npos) continue;
      // `(void)`-cast discards are hole 1's job; don't double-report.
      if (head.find("(void)") != std::string::npos) continue;
      // `Class::Encode(...)` / `Class::Decode(...)` are the static void
      // byte-coders (HuffmanByteCoder etc.), not the Status-returning
      // instance codecs, which are always invoked through an object.
      if (head.size() >= 2 && head.compare(head.size() - 2, 2, "::") == 0 &&
          (std::string_view(name) == "Encode" ||
           std::string_view(name) == "Decode")) {
        continue;
      }
      // The token after the name must open a call.
      size_t after = pos + std::string(name).size();
      if (after >= trimmed.size() || trimmed[after] != '(') continue;
      // Must not itself be consumed: statement ends with ");" and head is
      // not part of return/if/while/macro-wrapped expressions.
      if (StartsWith(trimmed, "return") || StartsWith(trimmed, "if") ||
          StartsWith(trimmed, "while") || StartsWith(trimmed, "for") ||
          StartsWith(trimmed, "switch")) {
        continue;
      }
      // Walk to the matching close paren (possibly multi-line; cap at 8).
      int depth = 0;
      bool terminated_bare = false;
      size_t scan_line = i;
      size_t scan_pos = after;
      for (int hop = 0; hop < 8 && scan_line < file.code.size(); ++hop) {
        const std::string& l = file.code[scan_line];
        for (size_t p = scan_pos; p < l.size(); ++p) {
          if (l[p] == '(') ++depth;
          if (l[p] == ')') {
            --depth;
            if (depth == 0) {
              size_t q = p + 1;
              while (q < l.size() && l[q] == ' ') ++q;
              terminated_bare = q < l.size() && l[q] == ';';
              hop = 8;  // Done scanning.
              break;
            }
          }
        }
        ++scan_line;
        scan_pos = 0;
      }
      if (!terminated_bare) continue;
      // Declarations ("Status Encode(...) ;" in headers) start with a type
      // name before the call name — head would contain a space.
      if (head.find(' ') != std::string::npos) continue;
      Report(file, i, "sketchml-discarded-status",
             std::string("result of ") + name +
                 "() is discarded; assign it, propagate it, or justify "
                 "with NOLINT",
             out);
      break;
    }
  }
}

// sketchml-nolint-justification: every comment-leading suppression marker
// must name the rule(s) it silences and carry a ': <why>' justification,
// e.g. `// NOLINT(sketchml-naked-new): leaked singleton, safe at exit.`
// Suppressed() treats a comment-leading marker with no rule list as
// suppress-everything, so a bare marker is an unbounded, unexplained
// escape — including accidental ones, where a prose comment merely
// *starts* with the word NOLINTNEXTLINE and silently disables every rule
// on the next line. Findings are appended directly rather than through
// Report() so a suppression can never silence its own audit. Markers
// mentioned mid-comment (docs, rule rationales) are prose, not
// suppressions, and are not audited.
void CheckNolintJustification(const StrippedSource& file,
                              std::vector<Finding>* out) {
  constexpr const char* kRule = "sketchml-nolint-justification";
  for (size_t i = 0; i < file.comments.size(); ++i) {
    const std::string& comment = file.comments[i];
    const size_t start = comment.find_first_not_of("/* \t");
    if (start == std::string::npos) continue;
    const std::string_view body = std::string_view(comment).substr(start);
    size_t marker_len = 0;
    if (StartsWith(body, "NOLINTNEXTLINE")) {
      marker_len = 14;
    } else if (StartsWith(body, "NOLINT")) {
      marker_len = 6;
    } else {
      continue;
    }
    const std::string marker(body.substr(0, marker_len));
    const std::string_view rest = body.substr(marker_len);
    if (rest.empty() || rest[0] != '(') {
      out->push_back({"lint", kRule, file.rel, i + 1,
                      "bare " + marker +
                          " suppresses every rule with no audit trail; use " +
                          marker + "(<rule>): <why>"});
      continue;
    }
    const size_t close = rest.find(')');
    if (close == std::string_view::npos ||
        rest.substr(1, close - 1).find_first_not_of(" \t") ==
            std::string_view::npos) {
      out->push_back({"lint", kRule, file.rel, i + 1,
                      marker + " has an empty or unterminated rule list; "
                              "name the rule(s) it silences"});
      continue;
    }
    const std::string_view after = rest.substr(close + 1);
    const size_t colon = after.find_first_not_of(" \t");
    const bool justified =
        colon != std::string_view::npos && after[colon] == ':' &&
        after.find_first_not_of(" \t", colon + 1) != std::string_view::npos;
    if (!justified) {
      out->push_back({"lint", kRule, file.rel, i + 1,
                      marker + "(" + std::string(rest.substr(1, close - 1)) +
                          ") lacks a justification; append \": <why>\""});
    }
  }
}

}  // namespace

std::vector<Finding> RunLintPass(const ProjectModel& model) {
  using RuleFn = void (*)(const StrippedSource&, std::vector<Finding>*);
  // Ordered by rule id, so each file's findings list rule by rule.
  static constexpr RuleFn kRules[] = {
      CheckBannedRandom, CheckDiscardedStatus,     CheckIncludeHygiene,
      CheckNakedNew,     CheckNolintJustification, CheckRawSimd,
      CheckStdout,       CheckTraceCategory,       CheckWallclock,
  };
  std::vector<Finding> findings;
  for (const ProjectFile& pf : model.files) {
    for (const RuleFn rule : kRules) rule(pf.src, &findings);
  }
  return findings;
}

}  // namespace sketchml::analysis

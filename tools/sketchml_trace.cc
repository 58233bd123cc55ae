// Critical-path profiler for causal Chrome traces written by
// sketchml_train --trace-out:
//
//   sketchml_trace run.trace.json
//       reconstructs the per-batch causal trees, walks each epoch's
//       critical path, and prints the Fig-11-style breakdown: wall time
//       attributed to {compute, encode, decode, aggregate, update,
//       other}, modeled network/retry time, straggler attribution
//       (which worker's push chain bounded each batch), retry
//       amplification, and count/total/max per (category, name) span.
//
//   sketchml_trace run.trace.json --json=report.json
//       additionally writes the report as JSON with separate
//       "structural" (deterministic for a fixed seed) and "timing"
//       (wall-clock) sections, for golden snapshots and A/B diffing.
//
//   sketchml_trace run.trace.json --diff-golden=golden.json
//       compares the trace's structural section against a golden report
//       field-by-field (exact); timing is ignored. Exits 1 on mismatch.
//
// A trace with dropped events (ring wraparound) would yield a
// misleading breakdown — spans are missing, so trees are incomplete —
// and is refused with exit code 2 unless --allow-dropped is given.
//
// Exit codes: 0 ok, 1 structural diff mismatch or orphan spans,
// 2 usage / input / dropped-events error.

#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "dist/report.h"
#include "dist/trace_analysis.h"

namespace {

using namespace sketchml;

constexpr char kUsage[] = R"(sketchml_trace TRACE.JSON [flags]

  TRACE.JSON            Chrome trace from sketchml_train --trace-out
  --json=PATH           write the critical-path report as JSON
  --diff-golden=PATH    compare structural fields against a golden
                        report JSON (timing ignored); exit 1 on mismatch
  --allow-dropped       analyze a trace with dropped events anyway
                        (the breakdown may be misleading)
  --quiet               suppress the rendered table
)";

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n%s", status.ToString().c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = common::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const common::FlagParser& flags = *parsed;

  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  const std::string json_out = flags.GetString("json", "");
  const std::string golden_path = flags.GetString("diff-golden", "");
  const bool allow_dropped = flags.GetBool("allow-dropped", false);
  const bool quiet = flags.GetBool("quiet", false);
  for (const auto& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }
  if (flags.positional().size() != 1) {
    return Fail(common::Status::InvalidArgument(
        "exactly one trace file must be given"));
  }
  const std::string& trace_path = flags.positional()[0];

  auto trace = dist::LoadChromeTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  if (trace->dropped_events > 0 && !allow_dropped) {
    std::fprintf(stderr,
                 "error: %s dropped %llu trace events to ring wraparound; "
                 "the causal trees are incomplete and the breakdown would "
                 "be misleading.\nRaise the trace ring capacity (or sample "
                 "fewer batches via --trace-sample-every), or pass "
                 "--allow-dropped to analyze anyway.\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(trace->dropped_events));
    return 2;
  }

  auto report = dist::AnalyzeTrace(*trace);
  if (!report.ok()) return Fail(report.status());

  if (!quiet) {
    std::printf("%s", dist::RenderCriticalPathReport(*report).c_str());
  }

  const std::string report_json = dist::CriticalPathReportToJson(*report);
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary | std::ios::trunc);
    out << report_json;
    if (!out) {
      return Fail(common::Status::IoError("cannot write " + json_out));
    }
  }

  int exit_code = 0;
  if (report->orphan_spans > 0 || report->multi_root_traces > 0) {
    std::fprintf(stderr,
                 "error: causal reconstruction incomplete: %llu orphan "
                 "spans, %llu multi-root traces\n",
                 static_cast<unsigned long long>(report->orphan_spans),
                 static_cast<unsigned long long>(report->multi_root_traces));
    exit_code = 1;
  }

  if (!golden_path.empty()) {
    auto golden_text = dist::ReadFileToString(golden_path);
    if (!golden_text.ok()) return Fail(golden_text.status());
    auto mismatches = dist::DiffStructuralJson(*golden_text, report_json);
    if (!mismatches.ok()) return Fail(mismatches.status());
    if (mismatches->empty()) {
      std::printf("structural diff vs %s: OK (%s)\n", golden_path.c_str(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "structural diff vs %s: %zu mismatch(es)\n",
                   golden_path.c_str(), mismatches->size());
      for (const std::string& mismatch : *mismatches) {
        std::fprintf(stderr, "  %s\n", mismatch.c_str());
      }
      exit_code = 1;
    }
  }
  return exit_code;
}

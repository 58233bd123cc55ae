#include "dist/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "dist/report.h"

namespace sketchml::dist {
namespace {

using common::JsonValue;

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool IsSpan(const TraceSpanRecord& span, std::string_view category,
            std::string_view name) {
  return span.category == category && span.name == name;
}

/// The wall-phase bucket a span's self-time on the critical path belongs
/// to. Structural spans (epoch, batch, push, broadcast) and anything
/// unrecognized fall through to `other`.
double* PhaseBucket(PhaseAttribution* attribution,
                    const TraceSpanRecord& span) {
  if (span.category == "trainer") {
    if (span.name == "compute") return &attribution->compute_us;
    if (span.name == "aggregate") return &attribution->aggregate_us;
    if (span.name == "update") return &attribution->update_us;
  } else if (span.category == "codec") {
    if (StartsWith(span.name, "encode/")) return &attribution->encode_us;
    if (StartsWith(span.name, "decode/")) return &attribution->decode_us;
  }
  return &attribution->other_us;
}

/// Nodes of the reconstructed causal forest: span index plus wall
/// children (modeled "network" spans carry simulated durations on a wall
/// timestamp, so they are kept out of the wall walk).
struct TreeIndex {
  std::unordered_map<uint64_t, size_t> by_span_id;
  std::unordered_map<uint64_t, std::vector<size_t>> wall_children;
  /// Per span index: the wall spans whose innermost enclosing span on
  /// the same thread is this one, by start time. Spans on one thread
  /// nest like a stack, so these siblings never overlap.
  std::vector<std::vector<size_t>> thread_nested;
};

/// Slack for the thread-nesting test: timestamps are whole nanoseconds
/// printed in microseconds, so ts + dur may round past the parent's end.
constexpr double kNestSlackUs = 1e-3;

/// Fills `index->thread_nested`: per thread, a stack walk over the wall
/// spans in start order (outer span first on a tie).
void IndexThreadNesting(const std::vector<TraceSpanRecord>& spans,
                        TreeIndex* index) {
  index->thread_nested.assign(spans.size(), {});
  std::map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].category != "network") by_thread[spans[i].tid].push_back(i);
  }
  for (auto& [tid, order] : by_thread) {
    std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
      if (spans[a].ts_us != spans[b].ts_us) {
        return spans[a].ts_us < spans[b].ts_us;
      }
      return spans[a].end_us() > spans[b].end_us();
    });
    std::vector<size_t> open;
    for (size_t i : order) {
      while (!open.empty() &&
             spans[i].end_us() > spans[open.back()].end_us() + kNestSlackUs) {
        open.pop_back();
      }
      if (!open.empty()) index->thread_nested[open.back()].push_back(i);
      open.push_back(i);
    }
  }
}

constexpr int kMaxWalkDepth = 64;  // Spans nest ~5 deep; cycles bail out.

void WalkCriticalPath(const std::vector<TraceSpanRecord>& spans,
                      const TreeIndex& index, size_t span_index,
                      double lo_us, double hi_us, int depth,
                      PhaseAttribution* attribution);

/// Attributes [lo_us, hi_us], a stretch of `span`'s window in which none
/// of its causal children ran. Wall spans that ran on span's thread in
/// that stretch without being its children (a driver phase overlapped
/// with this span, such as the previous batch's broadcast) are walked
/// like children; the rest is span's own time.
void WalkGap(const std::vector<TraceSpanRecord>& spans,
             const TreeIndex& index, size_t span_index, double lo_us,
             double hi_us, int depth, PhaseAttribution* attribution) {
  const TraceSpanRecord& span = spans[span_index];
  double* self_bucket = PhaseBucket(attribution, span);
  const std::vector<size_t>& nested = index.thread_nested[span_index];
  // Latest-starting first; the siblings are disjoint, so that is also
  // latest-ending first, and the scan stops at the first one that ended
  // before the gap.
  auto it = std::lower_bound(
      nested.begin(), nested.end(), hi_us,
      [&spans](size_t i, double t) { return spans[i].ts_us < t; });
  double cursor = hi_us;
  while (it != nested.begin() && cursor > lo_us) {
    const TraceSpanRecord& other = spans[*--it];
    if (other.end_us() <= lo_us) break;
    if (span.span_id != 0 && other.parent_span_id == span.span_id) continue;
    const double other_hi = std::min(other.end_us(), cursor);
    const double other_lo = std::max(other.ts_us, lo_us);
    if (other_hi <= other_lo) continue;
    *self_bucket += cursor - other_hi;
    WalkCriticalPath(spans, index, *it, other_lo, other_hi, depth + 1,
                     attribution);
    cursor = other_lo;
  }
  if (cursor > lo_us) *self_bucket += cursor - lo_us;
}

/// Backward critical-path walk. Attributes the window [lo_us, hi_us] of
/// `span` exactly: descend into the latest-ending wall child first, jump
/// to its begin, repeat; every gap between children (and before the
/// first) goes to WalkGap. The recursion clips children to the window,
/// so the attributed total equals hi_us - lo_us by construction.
void WalkCriticalPath(const std::vector<TraceSpanRecord>& spans,
                      const TreeIndex& index, size_t span_index,
                      double lo_us, double hi_us, int depth,
                      PhaseAttribution* attribution) {
  const TraceSpanRecord& span = spans[span_index];
  if (depth >= kMaxWalkDepth) {
    *PhaseBucket(attribution, span) += hi_us - lo_us;
    return;
  }
  const auto children_it = index.wall_children.find(span.span_id);
  double cursor = hi_us;
  if (children_it != index.wall_children.end()) {
    std::vector<size_t> order = children_it->second;
    std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
      return spans[a].end_us() > spans[b].end_us();
    });
    for (size_t child_index : order) {
      if (cursor <= lo_us) break;
      const TraceSpanRecord& child = spans[child_index];
      const double child_hi = std::min(child.end_us(), cursor);
      const double child_lo = std::max(child.ts_us, lo_us);
      if (child_hi <= child_lo) continue;  // Outside the window.
      WalkGap(spans, index, span_index, child_hi, cursor, depth, attribution);
      WalkCriticalPath(spans, index, child_index, child_lo, child_hi,
                       depth + 1, attribution);
      cursor = child_lo;
    }
  }
  if (cursor > lo_us) {
    WalkGap(spans, index, span_index, lo_us, cursor, depth, attribution);
  }
}

void AppendJsonKey(std::ostream& out, std::string_view key, bool* first) {
  if (!*first) out << ',';
  *first = false;
  out << '"' << key << "\":";
}

void AppendJsonNumber(std::ostream& out, std::string_view key, double value,
                      bool* first) {
  AppendJsonKey(out, key, first);
  char buf[40];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out << buf;
}

std::string FormatSeconds(double us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%10.6f", us / 1e6);
  return buf;
}

/// Recursive exact comparison of two structural JSON values; mismatches
/// are appended as "<path>: golden <a> != candidate <b>" lines.
void CompareStructural(const std::string& path, const JsonValue* golden,
                       const JsonValue* candidate,
                       std::vector<std::string>* mismatches) {
  if (golden == nullptr) {
    mismatches->push_back(path + ": missing from golden");
    return;
  }
  if (candidate == nullptr) {
    mismatches->push_back(path + ": missing from candidate");
    return;
  }
  if (golden->is_object() || candidate->is_object()) {
    if (!golden->is_object() || !candidate->is_object()) {
      mismatches->push_back(path + ": object/non-object mismatch");
      return;
    }
    for (const auto& [key, value] : golden->object_items()) {
      CompareStructural(path + "." + key, &value, candidate->Find(key),
                        mismatches);
    }
    for (const auto& [key, value] : candidate->object_items()) {
      if (golden->Find(key) == nullptr) {
        mismatches->push_back(path + "." + key + ": missing from golden");
      }
    }
    return;
  }
  if (golden->is_number() && candidate->is_number()) {
    if (golden->number_value() != candidate->number_value()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s: golden %.17g != candidate %.17g",
                    path.c_str(), golden->number_value(),
                    candidate->number_value());
      mismatches->push_back(buf);
    }
    return;
  }
  if (golden->is_string() && candidate->is_string()) {
    if (golden->string_value() != candidate->string_value()) {
      mismatches->push_back(path + ": golden \"" + golden->string_value() +
                            "\" != candidate \"" + candidate->string_value() +
                            "\"");
    }
    return;
  }
  if (golden->type() != candidate->type()) {
    mismatches->push_back(path + ": type mismatch");
  }
}

}  // namespace

double TraceSpanRecord::ArgOr(std::string_view key,
                              double default_value) const {
  for (const auto& [arg_key, value] : args) {
    if (arg_key == key) return value;
  }
  return default_value;
}

common::Result<ParsedTrace> ParseChromeTrace(std::string_view json_text) {
  SKETCHML_ASSIGN_OR_RETURN(const JsonValue root,
                            JsonValue::Parse(json_text));
  if (!root.is_object()) {
    return common::Status::InvalidArgument("trace root is not an object");
  }
  ParsedTrace trace;
  trace.dropped_events =
      static_cast<uint64_t>(root.NumberOr("droppedEvents", 0.0));
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return common::Status::InvalidArgument("trace has no traceEvents array");
  }
  for (const JsonValue& event : events->array_items()) {
    if (event.StringOr("ph", "") != "X") continue;  // Metadata / flows.
    TraceSpanRecord span;
    span.category = event.StringOr("cat", "");
    span.name = event.StringOr("name", "");
    span.tid = static_cast<uint32_t>(event.NumberOr("tid", 0.0));
    span.ts_us = event.NumberOr("ts", 0.0);
    span.dur_us = event.NumberOr("dur", 0.0);
    if (const JsonValue* args = event.Find("args");
        args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->object_items()) {
        if (!value.is_number()) continue;
        const auto id = static_cast<uint64_t>(value.number_value());
        if (key == "trace_id") {
          span.trace_id = id;
        } else if (key == "span_id") {
          span.span_id = id;
        } else if (key == "parent_span_id") {
          span.parent_span_id = id;
        } else {
          span.args.emplace_back(key, value.number_value());
        }
      }
    }
    trace.spans.push_back(std::move(span));
  }
  return trace;
}

common::Result<ParsedTrace> LoadChromeTrace(const std::string& path) {
  SKETCHML_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  auto parsed = ParseChromeTrace(text);
  if (!parsed.ok()) {
    return common::Status::InvalidArgument(path + ": " +
                                           parsed.status().message());
  }
  return parsed;
}

common::Result<CriticalPathReport> AnalyzeTrace(const ParsedTrace& trace) {
  CriticalPathReport report;
  report.dropped_events = trace.dropped_events;

  TreeIndex index;
  index.by_span_id.reserve(trace.spans.size());
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpanRecord& span = trace.spans[i];
    if (span.span_id != 0) index.by_span_id.emplace(span.span_id, i);
  }

  std::map<std::string, uint64_t> by_category;
  std::map<std::pair<std::string, std::string>, SpanTotal> totals;
  std::unordered_map<uint64_t, uint64_t> roots_per_trace;
  std::map<int, uint64_t> straggler_counts;
  std::vector<size_t> epoch_spans;

  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpanRecord& span = trace.spans[i];
    ++by_category[span.category];
    SpanTotal& total = totals[{span.category, span.name}];
    ++total.count;
    total.total_us += span.dur_us;
    total.max_us = std::max(total.max_us, span.dur_us);
    if (span.trace_id != 0) {
      if (span.parent_span_id == 0) {
        ++roots_per_trace[span.trace_id];
      } else if (index.by_span_id.count(span.parent_span_id) == 0) {
        ++report.orphan_spans;
      } else if (span.category != "network") {
        index.wall_children[span.parent_span_id].push_back(i);
      }
    }
    if (IsSpan(span, "trainer", "epoch")) {
      epoch_spans.push_back(i);
    } else if (IsSpan(span, "trainer", "batch")) {
      ++report.batches;
    } else if (IsSpan(span, "trainer", "push")) {
      ++report.pushes;
    } else if (IsSpan(span, "network", "transfer")) {
      ++report.transfers;
      const auto attempt = static_cast<int>(span.ArgOr("attempt", 0.0));
      const auto bytes = static_cast<uint64_t>(span.ArgOr("bytes", 0.0));
      if (attempt >= 1) {
        ++report.retry_attempts;
        report.retransmit_bytes += bytes;
      } else {
        report.first_attempt_bytes += bytes;
      }
    } else if (IsSpan(span, "network", "retry")) {
      ++report.retry_spans;
      report.modeled.retry_us += span.dur_us;
    } else if (IsSpan(span, "network", "gather")) {
      report.modeled.gather_us += span.dur_us;
      report.bytes_up += static_cast<uint64_t>(span.ArgOr("bytes", 0.0));
    } else if (IsSpan(span, "network", "broadcast")) {
      report.modeled.broadcast_us += span.dur_us;
      report.bytes_down += static_cast<uint64_t>(span.ArgOr("bytes", 0.0));
    }
  }
  report.epochs = epoch_spans.size();
  if (report.epochs == 0) {
    return common::Status::InvalidArgument(
        "no (\"trainer\", \"epoch\") span: trace was not recorded by the "
        "trainer, or the trainer category was filtered out");
  }
  for (const auto& [trace_id, roots] : roots_per_trace) {
    if (roots > 1) ++report.multi_root_traces;
  }
  report.spans_by_category.assign(by_category.begin(), by_category.end());
  for (auto& [key, total] : totals) {
    total.category = key.first;
    total.name = key.second;
    report.span_totals.push_back(std::move(total));
  }
  std::stable_sort(report.span_totals.begin(), report.span_totals.end(),
                   [](const SpanTotal& a, const SpanTotal& b) {
                     return a.total_us > b.total_us;
                   });

  // Wall attribution: partition each epoch span's duration exactly.
  IndexThreadNesting(trace.spans, &index);
  for (size_t epoch_index : epoch_spans) {
    const TraceSpanRecord& epoch = trace.spans[epoch_index];
    report.epoch_total_us += epoch.dur_us;
    WalkCriticalPath(trace.spans, index, epoch_index, epoch.ts_us,
                     epoch.end_us(), 0, &report.attribution);
  }

  // Straggler attribution: the latest-ending push under each batch is
  // the chain that bounded it.
  for (const TraceSpanRecord& span : trace.spans) {
    if (!IsSpan(span, "trainer", "batch")) continue;
    const auto children_it = index.wall_children.find(span.span_id);
    if (children_it == index.wall_children.end()) continue;
    const TraceSpanRecord* bounding = nullptr;
    for (size_t child_index : children_it->second) {
      const TraceSpanRecord& child = trace.spans[child_index];
      if (!IsSpan(child, "trainer", "push")) continue;
      if (bounding == nullptr || child.end_us() > bounding->end_us()) {
        bounding = &child;
      }
    }
    if (bounding != nullptr) {
      ++straggler_counts[static_cast<int>(bounding->ArgOr("worker", -1.0))];
    }
  }
  for (const auto& [worker, count] : straggler_counts) {
    report.stragglers.push_back({worker, count});
  }
  std::sort(report.stragglers.begin(), report.stragglers.end(),
            [](const StragglerRow& a, const StragglerRow& b) {
              if (a.batches_bounded != b.batches_bounded) {
                return a.batches_bounded > b.batches_bounded;
              }
              return a.worker < b.worker;
            });
  return report;
}

std::string RenderCriticalPathReport(const CriticalPathReport& report) {
  std::ostringstream out;
  const PhaseAttribution& a = report.attribution;
  const double total = a.TotalUs();
  out << "== critical path (wall) ==\n";
  out << "  phase          seconds   share\n";
  const auto row = [&](const char* label, double us) {
    char share[16];
    std::snprintf(share, sizeof(share), "%5.1f%%",
                  total > 0.0 ? 100.0 * us / total : 0.0);
    out << "  " << label << FormatSeconds(us) << "  " << share << "\n";
  };
  row("compute   ", a.compute_us);
  row("encode    ", a.encode_us);
  row("decode    ", a.decode_us);
  row("aggregate ", a.aggregate_us);
  row("update    ", a.update_us);
  row("other     ", a.other_us);
  out << "  total     " << FormatSeconds(total) << "  (epoch spans "
      << FormatSeconds(report.epoch_total_us) << ")\n";
  out << "== modeled network (simulated links) ==\n";
  out << "  gather    " << FormatSeconds(report.modeled.gather_us)
      << "\n  broadcast " << FormatSeconds(report.modeled.broadcast_us)
      << "\n  retry     " << FormatSeconds(report.modeled.retry_us) << "\n";
  out << "== structure ==\n";
  out << "  epochs " << report.epochs << ", batches " << report.batches
      << ", pushes " << report.pushes << ", transfers " << report.transfers
      << " (" << report.retry_attempts << " retries), orphans "
      << report.orphan_spans << ", multi-root traces "
      << report.multi_root_traces << "\n";
  out << "  bytes: up " << report.bytes_up << ", down " << report.bytes_down
      << ", retransmitted " << report.retransmit_bytes;
  char amp[32];
  std::snprintf(amp, sizeof(amp), " (amplification %.3f)\n",
                report.RetryAmplification());
  out << amp;
  if (!report.stragglers.empty()) {
    out << "== stragglers (push chain bounding the batch) ==\n";
    for (const StragglerRow& s : report.stragglers) {
      out << "  worker " << s.worker << ": " << s.batches_bounded << "/"
          << report.batches << " batches\n";
    }
  }
  out << "== span totals (network spans: modeled time) ==\n";
  out << "       count       total         max  span\n";
  for (const SpanTotal& t : report.span_totals) {
    char count[24];
    std::snprintf(count, sizeof(count), "%10llu",
                  static_cast<unsigned long long>(t.count));
    out << "  " << count << "  " << FormatSeconds(t.total_us) << "  "
        << FormatSeconds(t.max_us) << "  " << t.category << '/' << t.name
        << '\n';
  }
  if (report.dropped_events > 0) {
    out << "!! dropped events: " << report.dropped_events
        << " (timeline truncated; raise the trace ring capacity)\n";
  }
  return out.str();
}

std::string CriticalPathReportToJson(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "{\"structural\":{";
  bool first = true;
  const auto number = [&](std::string_view key, double value) {
    AppendJsonNumber(out, key, value, &first);
  };
  number("epochs", static_cast<double>(report.epochs));
  number("batches", static_cast<double>(report.batches));
  number("pushes", static_cast<double>(report.pushes));
  number("transfers", static_cast<double>(report.transfers));
  number("retry_attempts", static_cast<double>(report.retry_attempts));
  number("retry_spans", static_cast<double>(report.retry_spans));
  number("orphan_spans", static_cast<double>(report.orphan_spans));
  number("multi_root_traces", static_cast<double>(report.multi_root_traces));
  number("bytes_up", static_cast<double>(report.bytes_up));
  number("bytes_down", static_cast<double>(report.bytes_down));
  number("first_attempt_bytes",
         static_cast<double>(report.first_attempt_bytes));
  number("retransmit_bytes", static_cast<double>(report.retransmit_bytes));
  number("retry_amplification", report.RetryAmplification());
  AppendJsonKey(out, "spans_by_category", &first);
  out << '{';
  bool first_category = true;
  for (const auto& [category, count] : report.spans_by_category) {
    AppendJsonNumber(out, category, static_cast<double>(count),
                     &first_category);
  }
  out << '}';
  out << "},\"timing\":{";
  first = true;
  number("epoch_total_us", report.epoch_total_us);
  number("compute_us", report.attribution.compute_us);
  number("encode_us", report.attribution.encode_us);
  number("decode_us", report.attribution.decode_us);
  number("aggregate_us", report.attribution.aggregate_us);
  number("update_us", report.attribution.update_us);
  number("other_us", report.attribution.other_us);
  number("modeled_gather_us", report.modeled.gather_us);
  number("modeled_broadcast_us", report.modeled.broadcast_us);
  number("modeled_retry_us", report.modeled.retry_us);
  AppendJsonKey(out, "stragglers", &first);
  out << '[';
  bool first_straggler = true;
  for (const StragglerRow& s : report.stragglers) {
    if (!first_straggler) out << ',';
    first_straggler = false;
    out << "{\"worker\":" << s.worker << ",\"batches_bounded\":"
        << s.batches_bounded << '}';
  }
  out << ']';
  AppendJsonKey(out, "span_totals", &first);
  out << '[';
  bool first_total = true;
  for (const SpanTotal& t : report.span_totals) {
    if (!first_total) out << ',';
    first_total = false;
    out << "{\"category\":\"" << t.category << "\",\"name\":\"" << t.name
        << '"';
    bool first_field = false;  // Fields follow "name".
    AppendJsonNumber(out, "count", static_cast<double>(t.count),
                     &first_field);
    AppendJsonNumber(out, "total_us", t.total_us, &first_field);
    AppendJsonNumber(out, "max_us", t.max_us, &first_field);
    out << '}';
  }
  out << ']';
  out << "},\"dropped_events\":" << report.dropped_events << "}\n";
  return out.str();
}

common::Result<std::vector<std::string>> DiffStructuralJson(
    std::string_view golden_json, std::string_view candidate_json) {
  SKETCHML_ASSIGN_OR_RETURN(const JsonValue golden,
                            JsonValue::Parse(golden_json));
  SKETCHML_ASSIGN_OR_RETURN(const JsonValue candidate,
                            JsonValue::Parse(candidate_json));
  const JsonValue* golden_structural = golden.Find("structural");
  const JsonValue* candidate_structural = candidate.Find("structural");
  if (golden_structural == nullptr) {
    return common::Status::InvalidArgument(
        "golden report has no \"structural\" section");
  }
  if (candidate_structural == nullptr) {
    return common::Status::InvalidArgument(
        "candidate report has no \"structural\" section");
  }
  std::vector<std::string> mismatches;
  CompareStructural("structural", golden_structural, candidate_structural,
                    &mismatches);
  return mismatches;
}

}  // namespace sketchml::dist

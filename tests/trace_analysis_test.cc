// Critical-path trace analysis: Chrome-trace parsing, causal tree
// reconstruction (orphans, multi-root detection), the backward-walk
// phase attribution (must partition each epoch span exactly), straggler
// attribution, retry amplification, structural golden diffing, and an
// end-to-end pass over a real DistributedTrainer trace.

#include "dist/trace_analysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/obs.h"
#include "common/trace.h"
#include "core/codec_factory.h"
#include "dist/fault.h"
#include "dist/trainer.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::dist {
namespace {

TraceSpanRecord MakeSpan(const char* category, const char* name,
                         double ts_us, double dur_us, uint64_t trace_id,
                         uint64_t span_id, uint64_t parent_span_id) {
  TraceSpanRecord span;
  span.category = category;
  span.name = name;
  span.ts_us = ts_us;
  span.dur_us = dur_us;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent_span_id;
  return span;
}

/// One epoch [0, 100] with one batch [0, 90]: two pushes, the later one
/// (worker 7, ending at 80) bounds the batch. Compute fills most of each
/// push; modeled transfers hang off the pushes.
ParsedTrace TwoWorkerTrace() {
  ParsedTrace trace;
  trace.spans.push_back(MakeSpan("trainer", "epoch", 0, 100, 1, 1, 0));
  trace.spans.push_back(MakeSpan("trainer", "batch", 0, 90, 1, 2, 1));
  trace.spans.push_back(MakeSpan("trainer", "push", 0, 50, 1, 3, 2));
  trace.spans.back().args = {{"worker", 0.0}};
  trace.spans.push_back(MakeSpan("trainer", "compute", 0, 40, 1, 4, 3));
  trace.spans.push_back(MakeSpan("trainer", "push", 10, 70, 1, 5, 2));
  trace.spans.back().args = {{"worker", 7.0}};
  trace.spans.push_back(MakeSpan("trainer", "compute", 10, 60, 1, 6, 5));
  trace.spans.push_back(
      MakeSpan("network", "transfer", 70, 500, 1, 7, 5));
  trace.spans.back().args = {{"attempt", 0.0}, {"bytes", 1000.0}};
  trace.spans.push_back(
      MakeSpan("network", "transfer", 70, 800, 1, 8, 5));
  trace.spans.back().args = {{"attempt", 1.0}, {"bytes", 250.0}};
  trace.spans.push_back(MakeSpan("trainer", "aggregate", 82, 4, 1, 9, 2));
  trace.spans.push_back(MakeSpan("trainer", "update", 87, 2, 1, 10, 2));
  trace.spans.push_back(MakeSpan("network", "gather", 81, 300, 1, 11, 2));
  trace.spans.back().args = {{"bytes", 1250.0}};
  return trace;
}

TEST(TraceAnalysisTest, ParsesChromeTraceEventsArgsAndFooter) {
  const std::string json = R"({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}},
{"ph":"X","pid":1,"tid":3,"ts":1.5,"dur":2.5,"cat":"trainer","name":"push",
 "args":{"worker":4,"trace_id":9,"span_id":10,"parent_span_id":8}},
{"ph":"s","pid":1,"tid":1,"ts":1.5,"id":10,"cat":"trainer","name":"push"},
{"ph":"f","bp":"e","pid":1,"tid":3,"ts":1.5,"id":10,"cat":"trainer",
 "name":"push"}
],"displayTimeUnit":"ms","droppedEvents":6})";
  auto trace = ParseChromeTrace(json);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->dropped_events, 6u);
  ASSERT_EQ(trace->spans.size(), 1u);  // Only the "X" event.
  const TraceSpanRecord& span = trace->spans[0];
  EXPECT_EQ(span.category, "trainer");
  EXPECT_EQ(span.name, "push");
  EXPECT_EQ(span.tid, 3u);
  EXPECT_DOUBLE_EQ(span.ts_us, 1.5);
  EXPECT_DOUBLE_EQ(span.dur_us, 2.5);
  EXPECT_EQ(span.trace_id, 9u);
  EXPECT_EQ(span.span_id, 10u);
  EXPECT_EQ(span.parent_span_id, 8u);
  EXPECT_DOUBLE_EQ(span.ArgOr("worker", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(span.ArgOr("missing", -1.0), -1.0);
}

TEST(TraceAnalysisTest, ParseRejectsNonTraceJson) {
  EXPECT_FALSE(ParseChromeTrace("{}").ok());
  EXPECT_FALSE(ParseChromeTrace("not json").ok());
}

TEST(TraceAnalysisTest, RejectsTracesWithoutAnEpochSpan) {
  ParsedTrace trace;
  trace.spans.push_back(MakeSpan("trainer", "batch", 0, 10, 1, 1, 0));
  const auto report = AnalyzeTrace(trace);
  ASSERT_FALSE(report.ok());
}

TEST(TraceAnalysisTest, AttributionPartitionsTheEpochExactly) {
  const auto report = AnalyzeTrace(TwoWorkerTrace());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->epoch_total_us, 100.0);
  // The walk partitions [0, 100] exactly.
  EXPECT_DOUBLE_EQ(report->attribution.TotalUs(), 100.0);
  // Critical path: epoch→batch→push(w7)→compute [10,70] = 60, and
  // before push(w7) began the frontier was push(w0)'s compute, clipped
  // to [0,10] = 10 more. aggregate [82,86] = 4; update [87,89] = 2; the
  // rest is structural self-time (push tails, batch gaps, epoch tail).
  EXPECT_DOUBLE_EQ(report->attribution.compute_us, 70.0);
  EXPECT_DOUBLE_EQ(report->attribution.aggregate_us, 4.0);
  EXPECT_DOUBLE_EQ(report->attribution.update_us, 2.0);
  EXPECT_DOUBLE_EQ(report->attribution.other_us, 24.0);
  // Modeled spans stay out of the wall walk but are summed separately.
  EXPECT_DOUBLE_EQ(report->modeled.gather_us, 300.0);
}

TEST(TraceAnalysisTest, SelfTimeGapsGoToSpansOverlappedOnTheSameThread) {
  // The trainer runs batch b's broadcast on the driver thread (tid 1)
  // while batch b+1's workers run on the pool (tid 2). The broadcast is
  // batch b's child but runs inside batch b+1's window, so each stretch
  // of batch b+1 with no child of its own running is charged to the
  // broadcast and its codec children instead of to batch b+1. The last
  // broadcast runs after the last batch, inside the epoch's own time.
  ParsedTrace trace;
  const auto add = [&trace](const char* category, const char* name,
                            double ts, double dur, uint64_t id,
                            uint64_t parent, uint32_t tid) {
    trace.spans.push_back(MakeSpan(category, name, ts, dur, 1, id, parent));
    trace.spans.back().tid = tid;
  };
  add("trainer", "epoch", 0, 100, 1, 0, 1);
  add("trainer", "batch", 0, 40, 2, 1, 1);
  add("trainer", "push", 0, 30, 3, 2, 2);
  add("trainer", "compute", 0, 28, 4, 3, 2);
  add("trainer", "aggregate", 32, 4, 5, 2, 1);
  add("trainer", "batch", 40, 55, 10, 1, 1);
  add("trainer", "push", 42, 28, 11, 10, 2);
  add("trainer", "compute", 42, 26, 12, 11, 2);
  add("trainer", "broadcast", 41, 39, 20, 2, 1);  // Batch 2's window.
  add("codec", "encode/sketchml", 45, 30, 21, 20, 1);
  add("trainer", "aggregate", 82, 8, 13, 10, 1);
  add("trainer", "broadcast", 95, 4, 30, 10, 1);  // After the last batch.
  add("codec", "decode/sketchml", 96, 2, 31, 30, 1);
  const auto report = AnalyzeTrace(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->orphan_spans, 0u);
  const PhaseAttribution& a = report->attribution;
  EXPECT_DOUBLE_EQ(a.TotalUs(), 100.0);
  // Batch 2's critical path is aggregate <- push (compute to 68). The
  // broadcast covers the gaps [70, 80] and [41, 42] of that path, and
  // its encode the part [70, 75] of the first.
  EXPECT_DOUBLE_EQ(a.encode_us, 5.0);
  // The epoch tail [95, 100]: the last broadcast's decode [96, 98].
  EXPECT_DOUBLE_EQ(a.decode_us, 2.0);
  EXPECT_DOUBLE_EQ(a.compute_us, 28.0 + 26.0);
  EXPECT_DOUBLE_EQ(a.aggregate_us, 4.0 + 8.0);
  EXPECT_DOUBLE_EQ(a.other_us, 27.0);
}

TEST(TraceAnalysisTest, CountsStructureStragglersAndRetries) {
  const auto report = AnalyzeTrace(TwoWorkerTrace());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->epochs, 1u);
  EXPECT_EQ(report->batches, 1u);
  EXPECT_EQ(report->pushes, 2u);
  EXPECT_EQ(report->transfers, 2u);
  EXPECT_EQ(report->retry_attempts, 1u);
  EXPECT_EQ(report->orphan_spans, 0u);
  EXPECT_EQ(report->multi_root_traces, 0u);
  EXPECT_EQ(report->bytes_up, 1250u);
  EXPECT_EQ(report->first_attempt_bytes, 1000u);
  EXPECT_EQ(report->retransmit_bytes, 250u);
  EXPECT_DOUBLE_EQ(report->RetryAmplification(), 0.25);
  // Worker 7's push ends last: it bounded the only batch.
  ASSERT_EQ(report->stragglers.size(), 1u);
  EXPECT_EQ(report->stragglers[0].worker, 7);
  EXPECT_EQ(report->stragglers[0].batches_bounded, 1u);
}

TEST(TraceAnalysisTest, DetectsOrphansAndMultiRootTraces) {
  ParsedTrace trace = TwoWorkerTrace();
  // Parent 99 exists nowhere: orphan.
  trace.spans.push_back(MakeSpan("trainer", "compute", 5, 1, 1, 20, 99));
  // A second root inside trace 1.
  trace.spans.push_back(MakeSpan("trainer", "stray", 6, 1, 1, 21, 0));
  const auto report = AnalyzeTrace(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphan_spans, 1u);
  EXPECT_EQ(report->multi_root_traces, 1u);
}

TEST(TraceAnalysisTest, JsonRoundTripsAndStructuralDiffCatchesDrift) {
  const auto report = AnalyzeTrace(TwoWorkerTrace());
  ASSERT_TRUE(report.ok());
  const std::string golden = CriticalPathReportToJson(*report);

  // Identical reports diff clean.
  auto clean = DiffStructuralJson(golden, golden);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->empty());

  // A structural change (one more push) is flagged...
  ParsedTrace changed = TwoWorkerTrace();
  changed.spans.push_back(MakeSpan("trainer", "push", 20, 30, 1, 30, 2));
  const auto changed_report = AnalyzeTrace(changed);
  ASSERT_TRUE(changed_report.ok());
  auto flagged =
      DiffStructuralJson(golden, CriticalPathReportToJson(*changed_report));
  ASSERT_TRUE(flagged.ok());
  ASSERT_FALSE(flagged->empty());
  bool saw_pushes = false;
  for (const std::string& mismatch : *flagged) {
    if (mismatch.find("structural.pushes") != std::string::npos) {
      saw_pushes = true;
    }
  }
  EXPECT_TRUE(saw_pushes);

  // ...while a timing-only change is not: same structure, shifted walls.
  ParsedTrace slower = TwoWorkerTrace();
  for (TraceSpanRecord& span : slower.spans) span.dur_us *= 3.0;
  const auto slower_report = AnalyzeTrace(slower);
  ASSERT_TRUE(slower_report.ok());
  auto timing_only =
      DiffStructuralJson(golden, CriticalPathReportToJson(*slower_report));
  ASSERT_TRUE(timing_only.ok());
  EXPECT_TRUE(timing_only->empty());
}

// -- End to end over a real trainer trace ------------------------------

class ScopedTracing {
 public:
  ScopedTracing() : was_enabled_(obs::TracingEnabled()) {
    obs::SetTracingEnabled(true);
    obs::TraceLog::Global().Reset();
  }
  ~ScopedTracing() {
    obs::TraceLog::Global().Reset();
    obs::SetTracingEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

struct Fixture {
  Fixture() {
    ml::SyntheticConfig config;
    config.num_instances = 2000;
    config.dim = 1 << 14;
    config.avg_nnz = 30;
    config.seed = 17;
    ml::Dataset all = ml::GenerateSynthetic(config);
    auto [tr, te] = all.Split(0.25);
    train = std::make_unique<ml::Dataset>(std::move(tr));
    test = std::make_unique<ml::Dataset>(std::move(te));
    loss = ml::MakeLoss("lr");
  }

  std::unique_ptr<ml::Dataset> train, test;
  std::unique_ptr<ml::Loss> loss;
};

common::Result<CriticalPathReport> RunTrainerAndAnalyze(
    const Fixture& fixture, int trace_sample_every, int num_threads) {
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.seed = 11;
  cluster.faults.drop_prob = 0.05;  // Exercises retries.
  cluster.faults.max_retries = 3;
  TrainerConfig config;
  config.num_threads = num_threads;
  config.trace_sample_every = trace_sample_every;
  DistributedTrainer trainer(
      fixture.train.get(), fixture.test.get(), fixture.loss.get(),
      std::move(core::MakeCodec("sketchml")).value(), cluster, config);
  auto result = trainer.RunEpoch();
  if (!result.ok()) return result.status();

  std::ostringstream out;
  obs::TraceLog::Global().WriteChromeTrace(out);
  SKETCHML_ASSIGN_OR_RETURN(const ParsedTrace trace,
                            ParseChromeTrace(out.str()));
  return AnalyzeTrace(trace);
}

TEST(TraceAnalysisTest, TrainerTraceReconstructsEveryBatchRooted) {
  Fixture fixture;
  ScopedTracing scoped;
  auto report = RunTrainerAndAnalyze(fixture, /*trace_sample_every=*/1,
                                     /*num_threads=*/3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->epochs, 1u);
  EXPECT_EQ(report->batches, 10u);  // batch_ratio 0.1.
  EXPECT_EQ(report->pushes, 40u);   // 4 workers x 10 batches.
  EXPECT_GE(report->transfers, report->pushes);
  EXPECT_GT(report->retry_attempts, 0u);  // 5% drop, 40+ messages.
  EXPECT_EQ(report->orphan_spans, 0u);
  EXPECT_EQ(report->multi_root_traces, 0u);
  EXPECT_GT(report->bytes_up, 0u);
  EXPECT_GT(report->bytes_down, 0u);
  // The acceptance bound: attribution sums to the epoch span's duration
  // within 1% (the walk is exact, so this holds with margin to spare).
  EXPECT_NEAR(report->attribution.TotalUs(), report->epoch_total_us,
              report->epoch_total_us * 0.01);
  EXPECT_GT(report->attribution.compute_us, 0.0);
  EXPECT_GT(report->attribution.encode_us, 0.0);
  EXPECT_GT(report->attribution.decode_us, 0.0);
  // Every batch got a bounding worker.
  uint64_t bounded = 0;
  for (const StragglerRow& row : report->stragglers) {
    bounded += row.batches_bounded;
  }
  EXPECT_EQ(bounded, report->batches);
}

TEST(TraceAnalysisTest, SpanTotalsPerCategoryAndName) {
  ScopedTracing scoped;
  {
    obs::TraceSpan outer("trainer", "epoch");
    obs::TraceSpan inner("codec", "encode/sketchml");
  }
  { obs::TraceSpan again("codec", "encode/sketchml"); }
  std::ostringstream out;
  obs::TraceLog::Global().WriteChromeTrace(out);
  auto trace = ParseChromeTrace(out.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto report = AnalyzeTrace(*trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const SpanTotal* encode = nullptr;
  for (const SpanTotal& total : report->span_totals) {
    if (total.category == "codec" && total.name == "encode/sketchml") {
      encode = &total;
    }
  }
  ASSERT_NE(encode, nullptr);
  EXPECT_EQ(encode->count, 2u);
  EXPECT_GT(encode->total_us, 0.0);
  EXPECT_GE(encode->max_us, encode->total_us / 2.0);
  EXPECT_NE(RenderCriticalPathReport(*report).find("codec/encode/sketchml"),
            std::string::npos);

  // Totals are wall-clock facts: JSON "timing" carries them, "structural"
  // (which the golden gate diffs exactly) never does.
  auto json = common::JsonValue::Parse(CriticalPathReportToJson(*report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("structural")->Find("span_totals"), nullptr);
  const common::JsonValue* totals = json->Find("timing")->Find("span_totals");
  ASSERT_NE(totals, nullptr);
  ASSERT_TRUE(totals->is_array());
  EXPECT_EQ(totals->array_items().size(), report->span_totals.size());
}

TEST(TraceAnalysisTest, SamplingRecordsEveryNthBatchTree) {
  Fixture fixture;
  ScopedTracing scoped;
  auto report = RunTrainerAndAnalyze(fixture, /*trace_sample_every=*/3,
                                     /*num_threads=*/1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Global batches 0..9, sampled at 0, 3, 6, 9.
  EXPECT_EQ(report->batches, 4u);
  EXPECT_EQ(report->pushes, 16u);
  EXPECT_EQ(report->orphan_spans, 0u);
  // Epoch and driver phase spans are always recorded.
  EXPECT_EQ(report->epochs, 1u);
}

}  // namespace
}  // namespace sketchml::dist

// Causal tracing: span identity, the thread-local context stack,
// cross-thread hand-off via TraceContextScope, multi-arg EmitSpan
// parenting, category filtering, flow events in the Chrome export, and
// dropped-event accounting under concurrent multi-thread recording.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/trace.h"

namespace sketchml::obs {
namespace {

/// Enables tracing for one test, clears the log and the category filter,
/// and restores the previous state.
class ScopedTracing {
 public:
  ScopedTracing() : was_enabled_(TracingEnabled()) {
    SetTracingEnabled(true);
    SetTraceCategories("");
    TraceLog::Global().Reset();
  }
  ~ScopedTracing() {
    TraceLog::Global().Reset();
    SetTraceCategories("");
    SetTracingEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

const TraceEvent* FindByName(const std::vector<TraceEvent>& events,
                             std::string_view name) {
  for (const TraceEvent& event : events) {
    if (event.name == name) return &event;
  }
  return nullptr;
}

TEST(TraceContextTest, NestedSpansFormOneRootedTree) {
  ScopedTracing scoped;
  {
    TraceSpan outer("test", "outer");
    {
      TraceSpan inner("test", "inner");
      { TraceSpan leaf("test", "leaf"); }
    }
    TraceSpan sibling("test", "sibling");
  }
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 4u);
  const TraceEvent* outer = FindByName(events, "outer");
  const TraceEvent* inner = FindByName(events, "inner");
  const TraceEvent* leaf = FindByName(events, "leaf");
  const TraceEvent* sibling = FindByName(events, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(sibling, nullptr);
  // One trace, rooted at outer.
  EXPECT_NE(outer->trace_id, 0u);
  EXPECT_EQ(outer->parent_span_id, 0u);
  for (const TraceEvent* event : {inner, leaf, sibling}) {
    EXPECT_EQ(event->trace_id, outer->trace_id);
  }
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_EQ(leaf->parent_span_id, inner->span_id);
  EXPECT_EQ(sibling->parent_span_id, outer->span_id);
  // Span ids are unique.
  EXPECT_NE(inner->span_id, outer->span_id);
  EXPECT_NE(leaf->span_id, inner->span_id);
}

TEST(TraceContextTest, SiblingRootsStartSeparateTraces) {
  ScopedTracing scoped;
  { TraceSpan a("test", "a"); }
  { TraceSpan b("test", "b"); }
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].trace_id, events[1].trace_id);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_EQ(events[1].parent_span_id, 0u);
}

TEST(TraceContextTest, CurrentSpanContextTracksTheOpenSpan) {
  ScopedTracing scoped;
  EXPECT_FALSE(CurrentSpanContext().valid());
  {
    TraceSpan span("test", "open");
    const SpanContext ctx = CurrentSpanContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.span_id, span.context().span_id);
    EXPECT_EQ(ctx.trace_id, span.context().trace_id);
  }
  EXPECT_FALSE(CurrentSpanContext().valid());
}

TEST(TraceContextTest, ContextScopeHandsSpanAcrossThreads) {
  ScopedTracing scoped;
  SpanContext parent_ctx;
  {
    TraceSpan parent("test", "parent");
    parent_ctx = parent.context();
    std::thread worker([parent_ctx] {
      TraceContextScope scope(parent_ctx);
      TraceSpan child("test", "child");
    });
    worker.join();
  }
  const auto events = TraceLog::Global().CollectEvents();
  const TraceEvent* parent = FindByName(events, "parent");
  const TraceEvent* child = FindByName(events, "child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, parent->trace_id);
  EXPECT_EQ(child->parent_span_id, parent->span_id);
  EXPECT_NE(child->tid, parent->tid);  // Recorded on the worker thread.
}

TEST(TraceContextTest, InvalidContextScopeIsANoOp) {
  ScopedTracing scoped;
  {
    TraceContextScope scope(SpanContext{});
    TraceSpan span("test", "rooted");
  }
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].parent_span_id, 0u);  // Still roots its own trace.
}

TEST(TraceContextTest, EmitSpanTakesTwoArgsAndParentsUnderCurrent) {
  ScopedTracing scoped;
  SpanContext emitted;
  SpanContext parent_ctx;
  {
    TraceSpan parent("test", "parent");
    parent_ctx = parent.context();
    emitted = EmitSpan("test", "modeled", 100, 200,
                       {{"attempt", 2.0}, {"bytes", 512.0}, {"extra", 9.0}});
  }
  ASSERT_TRUE(emitted.valid());
  EXPECT_EQ(emitted.trace_id, parent_ctx.trace_id);
  const auto events = TraceLog::Global().CollectEvents();
  const TraceEvent* modeled = FindByName(events, "modeled");
  ASSERT_NE(modeled, nullptr);
  EXPECT_EQ(modeled->parent_span_id, parent_ctx.span_id);
  // kMaxArgs stick; the third arg is dropped.
  ASSERT_EQ(modeled->num_args, TraceEvent::kMaxArgs);
  EXPECT_STREQ(modeled->args[0].key, "attempt");
  EXPECT_DOUBLE_EQ(modeled->args[0].value, 2.0);
  EXPECT_STREQ(modeled->args[1].key, "bytes");
  EXPECT_DOUBLE_EQ(modeled->args[1].value, 512.0);
}

TEST(TraceContextTest, EmitSpanWithParentChainsSyntheticSpans) {
  ScopedTracing scoped;
  const SpanContext first = EmitSpan("test", "first", 10, 5);
  const SpanContext second =
      EmitSpanWithParent("test", "second", 20, 5, first);
  ASSERT_TRUE(second.valid());
  EXPECT_EQ(second.trace_id, first.trace_id);
  const auto events = TraceLog::Global().CollectEvents();
  const TraceEvent* second_event = FindByName(events, "second");
  ASSERT_NE(second_event, nullptr);
  EXPECT_EQ(second_event->parent_span_id, first.span_id);
}

TEST(TraceContextTest, CategoryFilterDropsOtherCategories) {
  ScopedTracing scoped;
  SetTraceCategories("trainer, network");
  EXPECT_TRUE(TraceCategoryEnabled("trainer"));
  EXPECT_TRUE(TraceCategoryEnabled("network"));
  EXPECT_FALSE(TraceCategoryEnabled("codec"));
  { TraceSpan kept("trainer", "kept"); }
  { TraceSpan filtered("codec", "filtered"); }
  const SpanContext emitted = EmitSpan("codec", "filtered_too", 1, 2);
  EXPECT_FALSE(emitted.valid());
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "kept");
  SetTraceCategories("");
  EXPECT_TRUE(TraceCategoryEnabled("codec"));
}

TEST(TraceContextTest, FilteredSpanDoesNotBreakTheParentChain) {
  ScopedTracing scoped;
  SetTraceCategories("trainer");
  TraceEvent child_event;
  {
    TraceSpan parent("trainer", "parent");
    const SpanContext parent_ctx = parent.context();
    {
      // Filtered: inactive, pushes no context.
      TraceSpan filtered("codec", "filtered");
      EXPECT_FALSE(filtered.context().valid());
      TraceSpan child("trainer", "child");
      EXPECT_EQ(child.context().trace_id, parent_ctx.trace_id);
    }
  }
  const auto events = TraceLog::Global().CollectEvents();
  const TraceEvent* parent = FindByName(events, "parent");
  const TraceEvent* child = FindByName(events, "child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  // The filtered middle span is transparent: child parents to parent.
  EXPECT_EQ(child->parent_span_id, parent->span_id);
  SetTraceCategories("");
}

TEST(TraceContextTest, ChromeTraceCarriesIdsAndCrossThreadFlows) {
  ScopedTracing scoped;
  {
    TraceSpan parent("test", "parent");
    const SpanContext ctx = parent.context();
    std::thread worker([ctx] {
      TraceContextScope scope(ctx);
      TraceSpan child("test", "child");
    });
    worker.join();
  }
  std::ostringstream out;
  TraceLog::Global().WriteChromeTrace(out);
  const std::string json = out.str();
  // Causal ids are exported as args.
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":"), std::string::npos);
  // The cross-thread edge produces a flow start/finish pair.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
}

TEST(TraceContextTest, SameThreadChildEmitsNoFlowPair) {
  ScopedTracing scoped;
  {
    TraceSpan parent("test", "parent");
    TraceSpan child("test", "child");
  }
  std::ostringstream out;
  TraceLog::Global().WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

// Satellite: ring wraparound + DroppedEvents() under concurrent
// multi-thread recording (the single-thread paths are pinned in
// trace_span_test.cc).
TEST(TraceContextTest, ConcurrentWraparoundCountsDropsPerThread) {
  ScopedTracing scoped;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  constexpr size_t kCapacity = 16;
  TraceLog::Global().SetRingCapacity(kCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        // Built with += : gcc 12's -Wrestrict misfires on "lit" + string.
        std::string name = "t";
        name += std::to_string(t);
        name += '_';
        name += std::to_string(i);
        TraceSpan span("test", name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto events = TraceLog::Global().CollectEvents();
  EXPECT_EQ(events.size(), kThreads * kCapacity);
  EXPECT_EQ(TraceLog::Global().DroppedEvents(),
            static_cast<uint64_t>(kThreads) * (kSpansPerThread - kCapacity));

  const auto by_thread = TraceLog::Global().DroppedEventsByThread();
  ASSERT_EQ(by_thread.size(), static_cast<size_t>(kThreads));
  uint64_t sum = 0;
  uint32_t last_tid = 0;
  for (const ThreadDroppedEvents& entry : by_thread) {
    EXPECT_EQ(entry.dropped, kSpansPerThread - kCapacity);
    EXPECT_GT(entry.tid, last_tid);  // Sorted, unique tids.
    last_tid = entry.tid;
    sum += entry.dropped;
  }
  EXPECT_EQ(sum, TraceLog::Global().DroppedEvents());
  TraceLog::Global().SetRingCapacity(1 << 14);
}

TEST(TraceContextTest, PublishDroppedEventsExportsPerThreadGauges) {
  ScopedTracing scoped;
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  TraceLog::Global().SetRingCapacity(16);
  std::thread worker([] {
    for (int i = 0; i < 20; ++i) {
      TraceSpan span("test", "overflow" + std::to_string(i));
    }
  });
  worker.join();
  const auto by_thread = TraceLog::Global().DroppedEventsByThread();
  ASSERT_EQ(by_thread.size(), 1u);
  TraceLog::Global().PublishDroppedEvents();

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.GaugeValueOf("trace/dropped_events"), 4.0);
  const std::string labeled = LabeledName(
      "trace/dropped_events", {{"thread", std::to_string(by_thread[0].tid)}});
  EXPECT_DOUBLE_EQ(snapshot.GaugeValueOf(labeled), 4.0);

  TraceLog::Global().SetRingCapacity(1 << 14);
  SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace sketchml::obs

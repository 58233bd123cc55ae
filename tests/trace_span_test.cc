#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/obs.h"

namespace sketchml::obs {
namespace {

/// Enables tracing for one test and restores the previous state.
class ScopedTracing {
 public:
  ScopedTracing() : was_enabled_(TracingEnabled()) {
    SetTracingEnabled(true);
    TraceLog::Global().Reset();
  }
  ~ScopedTracing() {
    TraceLog::Global().Reset();
    SetTracingEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

/// Minimal JSON syntax checker: consumes one JSON value and reports
/// whether the whole input is exactly one well-formed value. Strict
/// enough to reject every malformed construct the exporter could emit
/// (trailing commas, bare words, unterminated strings, NaN/Inf).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!ParseValue()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool ParseValue() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return ParseString();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return ParseNumber();
    }
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!ParseString()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!ParseValue()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipSpace();
      if (!ParseValue()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool ParseString() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string NameOf(const TraceEvent& e) { return e.name; }

TEST(TraceSpanTest, RecordsCompletedSpanWithArgs) {
  ScopedTracing scoped;
  {
    TraceSpan span("test", "phase_a");
    span.Arg("bytes", 128.0);
    span.Arg("pairs", 16.0);
  }
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(NameOf(events[0]), "phase_a");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_EQ(events[0].num_args, 2);
  EXPECT_STREQ(events[0].args[0].key, "bytes");
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 128.0);
}

TEST(TraceSpanTest, NestedSpansCompleteInnerFirstAndCoverInner) {
  ScopedTracing scoped;
  {
    TraceSpan outer("test", "outer");
    {
      TraceSpan inner("test", "inner");
    }
  }
  auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  // CollectEvents sorts by begin time: outer began first.
  EXPECT_EQ(NameOf(events[0]), "outer");
  EXPECT_EQ(NameOf(events[1]), "inner");
  // The outer span fully covers the inner one.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_GE(events[0].ts_ns + events[0].dur_ns,
            events[1].ts_ns + events[1].dur_ns);
}

TEST(TraceSpanTest, DisabledSpansRecordNothing) {
  ScopedTracing scoped;
  SetTracingEnabled(false);
  {
    TraceSpan span("test", "invisible");
    span.Arg("x", 1.0);
  }
  SetTracingEnabled(true);
  EXPECT_TRUE(TraceLog::Global().CollectEvents().empty());
}

TEST(TraceSpanTest, LongNamesAreTruncatedNotOverflowed) {
  ScopedTracing scoped;
  const std::string long_name(200, 'x');
  { TraceSpan span("test", long_name); }
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(NameOf(events[0]),
            std::string(TraceEvent::kNameCapacity, 'x'));
}

TEST(TraceSpanTest, RingWraparoundKeepsNewestAndCountsDropped) {
  ScopedTracing scoped;
  TraceLog::Global().SetRingCapacity(16);
  // Capacity applies to threads that record their first event afterward,
  // so wrap on a fresh thread.
  std::thread worker([] {
    for (int i = 0; i < 40; ++i) {
      // Built with += : gcc 12's -Wrestrict misfires on "lit" + string.
      std::string name = "w";
      name += std::to_string(i);
      TraceSpan span("test", name);
    }
  });
  worker.join();
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(TraceLog::Global().DroppedEvents(), 24u);
  // The retained window is the newest 16 spans, oldest first.
  EXPECT_EQ(NameOf(events.front()), "w24");
  EXPECT_EQ(NameOf(events.back()), "w39");
  TraceLog::Global().SetRingCapacity(1 << 14);
}

TEST(TraceSpanTest, EmitSpanRecordsSyntheticDuration) {
  ScopedTracing scoped;
  EmitSpan("network", "modeled", 1000, 5000, {{"bytes", 42.0}});
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 5000u);
  EXPECT_EQ(events[0].num_args, 1);
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 42.0);
}

TEST(TraceSpanTest, ChromeTraceJsonRoundTrips) {
  ScopedTracing scoped;
  {
    TraceSpan span("trainer", "epoch");
    span.Arg("epoch", 1.0);
    TraceSpan inner("codec", "encode/\"quoted\\name\"");
  }
  EmitSpan("network", "gather", 10, 20);
  std::ostringstream out;
  TraceLog::Global().WriteChromeTrace(out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonParser(json).Valid()) << json;
  // Chrome trace essentials: a traceEvents array of "X" complete events.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
  // Names with JSON metacharacters stay escaped.
  EXPECT_NE(json.find("encode/\\\"quoted\\\\name\\\""), std::string::npos);
}

TEST(TraceSpanTest, ChromeTraceFooterReportsDroppedEvents) {
  ScopedTracing scoped;
  TraceLog::Global().SetRingCapacity(16);  // 16 is the clamp minimum.
  std::thread worker([] {
    for (int i = 0; i < 28; ++i) {
      TraceSpan span("test", "drop" + std::to_string(i));
    }
  });
  worker.join();
  ASSERT_EQ(TraceLog::Global().DroppedEvents(), 12u);

  std::ostringstream out;
  TraceLog::Global().WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonParser(json).Valid()) << json;
  // Both the machine-readable top-level field and the metadata event that
  // surfaces truncation inside the Chrome/Perfetto UI.
  EXPECT_NE(json.find("\"droppedEvents\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":12"), std::string::npos);

  // The same count lands in the metrics registry for the sampler/report.
  const bool was_metrics = MetricsEnabled();
  SetMetricsEnabled(true);
  TraceLog::Global().PublishDroppedEvents();
  const auto snap = MetricsRegistry::Global().Snapshot();
  EXPECT_DOUBLE_EQ(snap.GaugeValueOf("trace/dropped_events"), 12.0);
  SetMetricsEnabled(was_metrics);
  TraceLog::Global().SetRingCapacity(1 << 14);
}

TEST(TraceSpanTest, CleanRunReportsZeroDropped) {
  ScopedTracing scoped;
  { TraceSpan span("test", "kept"); }
  std::ostringstream out;
  TraceLog::Global().WriteChromeTrace(out);
  EXPECT_NE(out.str().find("\"droppedEvents\":0"), std::string::npos);
}

TEST(TraceSpanTest, EventsFromManyThreadsGetDistinctTids) {
  ScopedTracing scoped;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] { TraceSpan span("test", "thread_span"); });
  }
  for (auto& thread : threads) thread.join();
  const auto events = TraceLog::Global().CollectEvents();
  ASSERT_EQ(events.size(), 4u);
  std::vector<uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

}  // namespace
}  // namespace sketchml::obs

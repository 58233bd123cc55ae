#include "sketch/min_max_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"

namespace sketchml::sketch {
namespace {

TEST(MinMaxSketchTest, ExactWithoutCollisions) {
  MinMaxSketch sketch(3, 4096);
  for (uint64_t key = 0; key < 50; ++key) {
    sketch.Insert(key, static_cast<uint8_t>(key % 200));
  }
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(sketch.Query(key), key % 200) << "key " << key;
  }
}

TEST(MinMaxSketchTest, NeverOverestimates) {
  // The defining property (§3.3): hash collisions may only shrink the
  // stored value, so Query(key) <= inserted value, always.
  MinMaxSketch sketch(2, 100);  // Cramped: heavy collisions.
  common::Rng rng(73);
  std::map<uint64_t, uint8_t> truth;
  for (uint64_t key = 0; key < 1000; ++key) {
    const uint8_t v = static_cast<uint8_t>(rng.NextBounded(254));
    truth[key] = v;
    sketch.Insert(key, v);
  }
  for (const auto& [key, v] : truth) {
    EXPECT_LE(sketch.Query(key), v) << "key " << key;
  }
}

TEST(MinMaxSketchTest, CellHoldsMinimumOfCollidingValues) {
  // Theorem A.4: each bin equals the minimum value among keys mapping to
  // it. With rows = 1 the query returns that bin directly.
  MinMaxSketch sketch(1, 10);
  common::Rng rng(79);
  std::map<uint64_t, uint8_t> truth;
  for (uint64_t key = 0; key < 200; ++key) {
    const uint8_t v = static_cast<uint8_t>(rng.NextBounded(200));
    truth[key] = v;
    sketch.Insert(key, v);
  }
  // Recompute the per-bin minimum via a parallel single-row sketch probe:
  // query of key k must equal min over keys that share k's bin.
  MinMaxSketch probe(1, 10, sketch.seed());
  for (const auto& [key, v] : truth) {
    uint8_t expected = MinMaxSketch::kEmpty;
    for (const auto& [other_key, other_v] : truth) {
      // Same bin iff single-row probe maps them together. Use a sketch
      // with one distinct value to detect sharing.
      MinMaxSketch pair_probe(1, 10, sketch.seed());
      pair_probe.Insert(other_key, 0);
      if (pair_probe.Query(key) == 0) {
        expected = std::min(expected, other_v);
      }
    }
    EXPECT_EQ(sketch.Query(key), expected) << "key " << key;
  }
}

TEST(MinMaxSketchTest, MoreRowsReduceError) {
  common::Rng rng(83);
  std::vector<std::pair<uint64_t, uint8_t>> items;
  for (uint64_t key = 0; key < 2000; ++key) {
    items.emplace_back(key, static_cast<uint8_t>(rng.NextBounded(250)));
  }
  double err_by_rows[5] = {0};
  for (int rows : {1, 2, 4}) {
    MinMaxSketch sketch(rows, 800);
    for (const auto& [k, v] : items) sketch.Insert(k, v);
    double err = 0;
    for (const auto& [k, v] : items) {
      err += static_cast<double>(v) - sketch.Query(k);
    }
    err_by_rows[rows == 1 ? 0 : (rows == 2 ? 1 : 2)] = err;
  }
  EXPECT_LE(err_by_rows[1], err_by_rows[0]);
  EXPECT_LE(err_by_rows[2], err_by_rows[1]);
}

TEST(MinMaxSketchTest, QueryUnknownKeyReturnsEmptyOnFreshSketch) {
  MinMaxSketch sketch(3, 64);
  EXPECT_EQ(sketch.Query(42), MinMaxSketch::kEmpty);
}

TEST(MinMaxSketchTest, InsertingMaxIndexActsAsNoOp) {
  MinMaxSketch sketch(2, 16);
  sketch.Insert(1, MinMaxSketch::kEmpty);  // Legal; same as untouched bin.
  EXPECT_EQ(sketch.Query(1), MinMaxSketch::kEmpty);
  sketch.Insert(1, 7);
  EXPECT_EQ(sketch.Query(1), 7);
}

TEST(MinMaxSketchTest, SerializationRoundTrips) {
  MinMaxSketch sketch(2, 333, /*seed=*/99);
  common::Rng rng(89);
  for (uint64_t key = 0; key < 500; ++key) {
    sketch.Insert(key * 7 + 1, static_cast<uint8_t>(rng.NextBounded(100)));
  }
  common::ByteWriter writer;
  sketch.Serialize(&writer);
  EXPECT_GE(writer.size(), sketch.SizeBytes());

  common::ByteReader reader(writer.buffer());
  MinMaxSketch restored(1, 1);
  ASSERT_TRUE(MinMaxSketch::Deserialize(&reader, &restored).ok());
  EXPECT_EQ(restored.rows(), 2);
  EXPECT_EQ(restored.cols(), 333);
  EXPECT_EQ(restored.seed(), 99u);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(restored.Query(key * 7 + 1), sketch.Query(key * 7 + 1));
  }
}

TEST(MinMaxSketchTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0xff, 0xff, 0xff, 0xff, 0xff};
  common::ByteReader reader(junk.data(), junk.size());
  MinMaxSketch out(1, 1);
  EXPECT_FALSE(MinMaxSketch::Deserialize(&reader, &out).ok());
}

TEST(MinMaxSketchTest, DeserializeRejectsTruncatedTable) {
  MinMaxSketch sketch(2, 100);
  sketch.Insert(1, 7);
  common::ByteWriter writer;
  sketch.Serialize(&writer);
  auto bytes = writer.buffer();
  bytes.resize(bytes.size() - 10);  // Chop the table.
  common::ByteReader reader(bytes.data(), bytes.size());
  MinMaxSketch out(1, 1);
  EXPECT_EQ(MinMaxSketch::Deserialize(&reader, &out).code(),
            common::StatusCode::kCorruptedData);
}

// Regression: a corrupt header whose rows * cols wraps uint64_t (e.g.
// rows=2, cols=2^63) used to dodge the size bound and attempt a giant
// allocation; same for cols that fit the bound but overflow the `int`
// constructor parameter.
TEST(MinMaxSketchTest, DeserializeRejectsOverflowingShape) {
  const auto try_shape = [](uint64_t rows, uint64_t cols) {
    common::ByteWriter writer;
    writer.WriteVarint(rows);
    writer.WriteVarint(cols);
    writer.WriteU64(13);  // Seed.
    // A little "table" so the header itself is not truncated.
    writer.WriteBytes(std::vector<uint8_t>(16, 0xff));
    common::ByteReader reader(writer.buffer());
    MinMaxSketch out(1, 1);
    return MinMaxSketch::Deserialize(&reader, &out);
  };
  // rows * cols == 2^64 exactly: wraps to 0.
  EXPECT_EQ(try_shape(2, uint64_t{1} << 63).code(),
            common::StatusCode::kCorruptedData);
  // Wraps to a small plausible-looking product (17 * (2^64/17 rounded)).
  EXPECT_EQ(try_shape(17, 0xf0f0f0f0f0f0f0fULL + 1).code(),
            common::StatusCode::kCorruptedData);
  // Fits uint64_t but cols overflows int.
  EXPECT_EQ(try_shape(1, uint64_t{1} << 32).code(),
            common::StatusCode::kCorruptedData);
  // Zero dimensions and absurd row counts are equally corrupt.
  EXPECT_EQ(try_shape(0, 10).code(), common::StatusCode::kCorruptedData);
  EXPECT_EQ(try_shape(10, 0).code(), common::StatusCode::kCorruptedData);
  EXPECT_EQ(try_shape(65, 1).code(), common::StatusCode::kCorruptedData);
  // Sanity: an honest small shape with a complete table still loads.
  EXPECT_TRUE(try_shape(2, 8).ok());
}

// -- Merge: elastic shard re-partitioning moves MinMax state by merging.

std::vector<uint8_t> SerializedBytes(const MinMaxSketch& sketch) {
  common::ByteWriter writer;
  sketch.Serialize(&writer);
  return writer.buffer();
}

// `count` seeded (key, value) pairs into a table small enough that keys
// collide, so min-on-insert and min-on-merge both matter.
MinMaxSketch StreamSketch(uint64_t stream_seed, int count) {
  MinMaxSketch sketch(3, 64, /*seed=*/21);
  common::Rng rng(stream_seed);
  for (int i = 0; i < count; ++i) {
    sketch.Insert(rng.NextUint64(),
                  static_cast<uint8_t>(rng.NextBounded(200)));
  }
  return sketch;
}

TEST(MinMaxSketchTest, MergeIsCommutativeAndAssociative) {
  const MinMaxSketch a = StreamSketch(1, 300);
  const MinMaxSketch b = StreamSketch(2, 300);
  const MinMaxSketch c = StreamSketch(3, 300);

  MinMaxSketch ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  MinMaxSketch ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  EXPECT_EQ(SerializedBytes(ab), SerializedBytes(ba));
  EXPECT_EQ(ab.NumInsertions(), ba.NumInsertions());
  EXPECT_NE(SerializedBytes(ab), SerializedBytes(a));  // Merge did work.

  MinMaxSketch ab_c = ab;
  ASSERT_TRUE(ab_c.Merge(c).ok());
  MinMaxSketch bc = b;
  ASSERT_TRUE(bc.Merge(c).ok());
  MinMaxSketch a_bc = a;
  ASSERT_TRUE(a_bc.Merge(bc).ok());
  EXPECT_EQ(SerializedBytes(ab_c), SerializedBytes(a_bc));
  EXPECT_EQ(ab_c.NumInsertions(), 900u);
  EXPECT_EQ(a_bc.NumInsertions(), 900u);
}

TEST(MinMaxSketchTest, SplitThenMergeEqualsWholeStream) {
  MinMaxSketch whole(3, 64, /*seed=*/21);
  std::vector<MinMaxSketch> shards(3, MinMaxSketch(3, 64, /*seed=*/21));
  common::Rng rng(77);
  for (int i = 0; i < 900; ++i) {
    const uint64_t key = rng.NextUint64();
    const auto value = static_cast<uint8_t>(rng.NextBounded(200));
    whole.Insert(key, value);
    shards[key % shards.size()].Insert(key, value);
  }
  MinMaxSketch merged = shards[0];
  ASSERT_TRUE(merged.Merge(shards[1]).ok());
  ASSERT_TRUE(merged.Merge(shards[2]).ok());
  EXPECT_EQ(SerializedBytes(merged), SerializedBytes(whole));
  EXPECT_EQ(merged.NumInsertions(), whole.NumInsertions());
}

TEST(MinMaxSketchTest, MergeRejectsMismatchedGeometryOrSeed) {
  MinMaxSketch base = StreamSketch(5, 100);
  const std::vector<uint8_t> before = SerializedBytes(base);
  for (const MinMaxSketch& other :
       {MinMaxSketch(4, 64, 21), MinMaxSketch(3, 65, 21),
        MinMaxSketch(3, 64, 22)}) {
    EXPECT_EQ(base.Merge(other).code(), common::StatusCode::kInvalidArgument);
  }
  // A rejected merge leaves the sketch untouched.
  EXPECT_EQ(SerializedBytes(base), before);
  EXPECT_EQ(base.NumInsertions(), 100u);
}

// Correctness rate (Appendix A.2, Eq. 2): the fraction of keys whose query
// is exact matches the closed form within sampling noise.
class MinMaxCorrectnessRateTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MinMaxCorrectnessRateTest, MatchesClosedForm) {
  const int rows = std::get<0>(GetParam());
  const int cols = std::get<1>(GetParam());
  const int v_items = std::get<2>(GetParam());
  MinMaxSketch sketch(rows, cols, /*seed=*/1234 + rows * 100 + cols);

  // Insert v items with *distinct* frequencies-as-values so Eq. 2's
  // "all elements have different frequencies" case applies; element l
  // (1-based) has the l-th smallest value.
  for (int l = 0; l < v_items; ++l) {
    sketch.Insert(static_cast<uint64_t>(l) * 2654435761ULL + 7,
                  static_cast<uint8_t>(l * 250 / v_items));
  }
  int correct = 0;
  for (int l = 0; l < v_items; ++l) {
    const uint8_t got =
        sketch.Query(static_cast<uint64_t>(l) * 2654435761ULL + 7);
    if (got == static_cast<uint8_t>(l * 250 / v_items)) ++correct;
  }
  const double measured = static_cast<double>(correct) / v_items;

  double expected = 0.0;
  for (int l = 1; l <= v_items; ++l) {
    const double p_row = std::pow(1.0 - 1.0 / cols, v_items - l);
    expected += 1.0 - std::pow(1.0 - p_row, rows);
  }
  expected /= v_items;

  // Eq. 2 is a lower bound (ties only help); allow sampling slack.
  EXPECT_GE(measured, expected - 0.08)
      << "rows=" << rows << " cols=" << cols << " v=" << v_items;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MinMaxCorrectnessRateTest,
    ::testing::Values(std::make_tuple(2, 200, 1000),
                      std::make_tuple(2, 500, 1000),
                      std::make_tuple(4, 200, 1000),
                      std::make_tuple(1, 1000, 2000),
                      std::make_tuple(3, 100, 500)));

}  // namespace
}  // namespace sketchml::sketch

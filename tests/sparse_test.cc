#include "common/sparse.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "common/bit_util.h"
#include "common/random.h"

namespace sketchml::common {
namespace {

TEST(SparseGradientTest, SortByKey) {
  SparseGradient grad = {{5, 1.0}, {1, 2.0}, {3, 3.0}};
  SortByKey(&grad);
  EXPECT_EQ(grad[0].key, 1u);
  EXPECT_EQ(grad[1].key, 3u);
  EXPECT_EQ(grad[2].key, 5u);
  EXPECT_DOUBLE_EQ(grad[0].value, 2.0);
}

// The reference SumByKey must reproduce bit for bit: `map[key] += value`
// in input order, emitted in ascending key order.
SparseGradient MapSum(const SparseGradient& pairs) {
  std::map<uint64_t, double> sums;
  for (const auto& pair : pairs) sums[pair.key] += pair.value;
  SparseGradient out;
  for (const auto& [key, value] : sums) out.push_back({key, value});
  return out;
}

void ExpectSumByKeyMatchesMap(uint64_t lo, uint64_t span,
                              const SparseGradient& pairs) {
  const SparseGradient expected = MapSum(pairs);
  SparseGradient got = pairs;
  SumByKey(lo, span, &got);
  ASSERT_EQ(got.size(), expected.size()) << "lo " << lo << " span " << span;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expected[i].key) << "at " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].value),
              std::bit_cast<uint64_t>(expected[i].value))
        << "key " << got[i].key << ": " << got[i].value << " vs "
        << expected[i].value;
  }
}

TEST(SumByKeyTest, RandomDuplicatesMatchMapBitForBit) {
  Rng rng(61);
  // Spans of one to six 11-bit passes; few distinct keys, so runs are
  // long and their sums depend on the order the values are added in.
  const uint64_t spans[] = {2,       100,          2048,     2049,
                            1 << 17, 1ULL << 22,   1ULL << 33,
                            1ULL << 60};
  for (const uint64_t span : spans) {
    for (int trial = 0; trial < 8; ++trial) {
      const uint64_t lo = rng.NextBounded(1ULL << 40);
      const size_t n = rng.NextBounded(3000);
      const size_t distinct = 1 + rng.NextBounded(std::min<uint64_t>(span, 50));
      std::vector<uint64_t> keys(distinct);
      for (auto& key : keys) key = lo + rng.NextBounded(span);
      SparseGradient pairs(n);
      for (auto& pair : pairs) {
        pair.key = keys[rng.NextBounded(distinct)];
        pair.value = rng.NextGaussian() * std::pow(10.0, rng.NextBounded(32));
      }
      ExpectSumByKeyMatchesMap(lo, span, pairs);
    }
  }
}

TEST(SumByKeyTest, AddsEachKeysValuesInInputOrder) {
  // (1e16 + 1) - 1e16 is 0 but (1e16 - 1e16) + 1 is 1: a sort that
  // reorders equal keys changes the sum.
  SparseGradient pairs = {{7, 1e16}, {3, 5.0}, {7, 1.0}, {7, -1e16}};
  SumByKey(0, 8, &pairs);
  EXPECT_EQ(pairs, (SparseGradient{{3, 5.0}, {7, 0.0}}));
  pairs = {{7, 1e16}, {7, -1e16}, {3, 5.0}, {7, 1.0}};
  SumByKey(0, 8, &pairs);
  EXPECT_EQ(pairs, (SparseGradient{{3, 5.0}, {7, 1.0}}));
}

TEST(SumByKeyTest, KeysAtBothEndsOfTheRange) {
  for (const uint64_t span : {uint64_t{2}, uint64_t{2048}, uint64_t{2049},
                              uint64_t{1} << 32, uint64_t{1} << 63}) {
    const uint64_t lo = 1000;
    const uint64_t last = lo + span - 1;
    ExpectSumByKeyMatchesMap(
        lo, span,
        {{last, 1.0}, {lo, 2.0}, {last, 3.0}, {lo, -4.0}, {lo + span / 2, 5.0}});
  }
}

TEST(SumByKeyTest, SpanOfOneSumsEveryPair) {
  SparseGradient pairs = {{42, 0.5}, {42, 0.25}, {42, -2.0}};
  ExpectSumByKeyMatchesMap(42, 1, pairs);
  SumByKey(42, 1, &pairs);
  EXPECT_EQ(pairs, (SparseGradient{{42, -1.25}}));
}

TEST(SumByKeyTest, SpanOfTwoToThe32) {
  Rng rng(67);
  SparseGradient pairs(2000);
  for (auto& pair : pairs) {
    pair.key = rng.NextBounded(16) << 28 | rng.NextBounded(3);
    pair.value = rng.NextGaussian();
  }
  pairs.push_back({0, 1.0});
  pairs.push_back({(1ULL << 32) - 1, 1.0});
  ExpectSumByKeyMatchesMap(0, 1ULL << 32, pairs);
}

TEST(SumByKeyTest, SharedHighDigitsKeepTheOrder) {
  // Every key below 2^11: the upper passes see one digit and must leave
  // the stable order from the first pass untouched.
  Rng rng(71);
  SparseGradient pairs(500);
  for (auto& pair : pairs) {
    pair.key = rng.NextBounded(300);
    pair.value = rng.NextGaussian() * 1e8;
  }
  ExpectSumByKeyMatchesMap(0, 1ULL << 40, pairs);
}

TEST(SumByKeyTest, EmptyInput) {
  SparseGradient pairs;
  SumByKey(0, 1 << 20, &pairs);
  EXPECT_TRUE(pairs.empty());
  SumByKey(5, 1, &pairs);
  EXPECT_TRUE(pairs.empty());
}

TEST(SumByKeyTest, NegativeZeroSumsToPositiveZero) {
  // The sum starts at +0.0, and +0.0 + -0.0 is +0.0.
  SparseGradient pairs = {{9, -0.0}};
  SumByKey(0, 16, &pairs);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(std::signbit(pairs[0].value));
  ExpectSumByKeyMatchesMap(0, 16, {{9, -0.0}, {3, -0.0}, {9, -0.0}});
}

TEST(SumByKeyTest, NanAndInfinityPropagate) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const SparseGradient pairs = {{1, inf},  {2, -inf}, {3, inf}, {3, -inf},
                                {4, nan},  {4, 1.0},  {5, 2.0}, {5, nan},
                                {6, -inf}, {6, 7.0},  {1, 3.0}};
  ExpectSumByKeyMatchesMap(0, 8, pairs);
  SparseGradient got = pairs;
  SumByKey(0, 8, &got);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].value, inf);
  EXPECT_EQ(got[1].value, -inf);
  EXPECT_TRUE(std::isnan(got[2].value));
  EXPECT_TRUE(std::isnan(got[3].value));
  EXPECT_TRUE(std::isnan(got[4].value));
  EXPECT_EQ(got[5].value, -inf);
}

// ---------------------------------------------------------------------------
// MergeRuns: the decoders' run merge.

SortedRuns MakeRuns(const std::vector<SparseGradient>& runs) {
  SortedRuns out;
  for (const SparseGradient& run : runs) {
    out.pairs.insert(out.pairs.end(), run.begin(), run.end());
    out.EndRun();
  }
  return out;
}

SparseGradient Concatenated(const std::vector<SparseGradient>& runs) {
  SparseGradient all;
  for (const SparseGradient& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  return all;
}

TEST(MergeRunsTest, NoRunsGiveAnEmptyGradient) {
  SortedRuns runs;
  SparseGradient out = {{7, 1.0}};
  ASSERT_TRUE(MergeRuns(&runs, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MergeRunsTest, OneRunIsCopiedAsIs) {
  const std::vector<SparseGradient> input = {{{1, 0.5}, {4, -1.0}, {9, 2.0}}};
  SortedRuns runs = MakeRuns(input);
  SparseGradient out;
  ASSERT_TRUE(MergeRuns(&runs, &out).ok());
  EXPECT_EQ(out, input[0]);
}

TEST(MergeRunsTest, OddRunCountAndEmptyRunsMerge) {
  const std::vector<SparseGradient> input = {
      {{2, 0.2}, {8, 0.8}},
      {},
      {{1, 0.1}, {5, 0.5}, {13, 1.3}},
      {},
      {{3, 0.3}},
      {},
      {{0, 0.0}, {21, 2.1}},
  };
  SortedRuns runs = MakeRuns(input);
  SparseGradient out;
  ASSERT_TRUE(MergeRuns(&runs, &out).ok());
  SparseGradient expected = Concatenated(input);
  SortByKey(&expected);
  EXPECT_EQ(out, expected);
}

TEST(MergeRunsTest, OnlyEmptyRuns) {
  SortedRuns runs = MakeRuns({{}, {}, {}});
  SparseGradient out;
  ASSERT_TRUE(MergeRuns(&runs, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MergeRunsTest, RandomRunCountsMatchSortByKey) {
  Rng rng(97);
  for (int num_runs = 1; num_runs <= 40; ++num_runs) {
    // Distinct keys dealt to runs at random, each run left ascending.
    std::vector<SparseGradient> input(num_runs);
    const uint64_t num_keys = rng.NextBounded(400);
    for (uint64_t key = 0; key < num_keys; ++key) {
      input[rng.NextBounded(num_runs)].push_back(
          {key * 3 + rng.NextBounded(3), rng.NextGaussian()});
    }
    SortedRuns runs = MakeRuns(input);
    SparseGradient out;
    ASSERT_TRUE(MergeRuns(&runs, &out).ok()) << num_runs;
    SparseGradient expected = Concatenated(input);
    SortByKey(&expected);
    ASSERT_EQ(out, expected) << num_runs << " runs";
  }
}

TEST(MergeRunsTest, KeySharedByTwoRunsIsCorruption) {
  // Two runs and an odd run count, so the shared key meets its twin in
  // the first pass in one case and in a later pass in the other.
  for (const auto& input : std::vector<std::vector<SparseGradient>>{
           {{{1, 0.1}, {5, 0.5}}, {{2, 0.2}, {5, -0.5}}},
           {{{1, 0.1}, {4, 0.4}}, {{2, 0.2}}, {{3, 0.3}, {4, -0.4}}},
       }) {
    SortedRuns runs = MakeRuns(input);
    SparseGradient out;
    const Status status = MergeRuns(&runs, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruptedData);
    EXPECT_EQ(status.message(), "duplicate decoded key");
  }
}

TEST(MergeRunsTest, RunThatIsNotStrictlyAscendingIsCorruption) {
  for (const auto& input : std::vector<std::vector<SparseGradient>>{
           {{{1, 0.1}, {6, 0.6}}, {{7, 0.7}, {3, 0.3}}},  // Descends.
           {{{4, 0.4}, {4, 0.5}}},                        // Repeats.
       }) {
    SortedRuns runs = MakeRuns(input);
    SparseGradient out;
    const Status status = MergeRuns(&runs, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruptedData);
    EXPECT_NE(status.message().find("not strictly ascending"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(SparseGradientTest, IsSortedByKey) {
  EXPECT_TRUE(IsSortedByKey({}));
  EXPECT_TRUE(IsSortedByKey({{1, 0.0}}));
  EXPECT_TRUE(IsSortedByKey({{1, 0.0}, {2, 0.0}}));
  EXPECT_FALSE(IsSortedByKey({{2, 0.0}, {1, 0.0}}));
  EXPECT_FALSE(IsSortedByKey({{1, 0.0}, {1, 0.0}}));  // Duplicates illegal.
}

TEST(SparseGradientTest, KeysAndValuesExtraction) {
  SparseGradient grad = {{1, 0.5}, {9, -2.0}};
  EXPECT_EQ(Keys(grad), (std::vector<uint64_t>{1, 9}));
  EXPECT_EQ(Values(grad), (std::vector<double>{0.5, -2.0}));
}

TEST(SparseGradientTest, PairEquality) {
  EXPECT_EQ((GradientPair{1, 2.0}), (GradientPair{1, 2.0}));
  EXPECT_FALSE((GradientPair{1, 2.0}) == (GradientPair{1, 2.5}));
  EXPECT_FALSE((GradientPair{2, 2.0}) == (GradientPair{1, 2.0}));
}

TEST(BitUtilTest, BytesNeeded) {
  EXPECT_EQ(BytesNeeded(0), 1);
  EXPECT_EQ(BytesNeeded(255), 1);
  EXPECT_EQ(BytesNeeded(256), 2);
  EXPECT_EQ(BytesNeeded(65535), 2);
  EXPECT_EQ(BytesNeeded(65536), 3);
  EXPECT_EQ(BytesNeeded(16777215), 3);
  EXPECT_EQ(BytesNeeded(16777216), 4);
  EXPECT_EQ(BytesNeeded(0xFFFFFFFFull), 4);
  EXPECT_EQ(BytesNeeded(0x100000000ull), 5);
  EXPECT_EQ(BytesNeeded(~0ull), 8);
}

TEST(BitUtilTest, BitsForRange) {
  EXPECT_EQ(BitsForRange(1), 1);
  EXPECT_EQ(BitsForRange(2), 1);
  EXPECT_EQ(BitsForRange(3), 2);
  EXPECT_EQ(BitsForRange(4), 2);
  EXPECT_EQ(BitsForRange(256), 8);
  EXPECT_EQ(BitsForRange(257), 9);
}

TEST(BitUtilTest, RoundUpAndCeilDiv) {
  EXPECT_EQ(RoundUp(0, 8), 0u);
  EXPECT_EQ(RoundUp(1, 8), 8u);
  EXPECT_EQ(RoundUp(8, 8), 8u);
  EXPECT_EQ(RoundUp(9, 8), 16u);
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

}  // namespace
}  // namespace sketchml::common

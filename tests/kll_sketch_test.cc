#include "sketch/kll_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"

namespace sketchml::sketch {
namespace {

double TrueRankFraction(const std::vector<double>& sorted, double value) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), value);
  return static_cast<double>(it - sorted.begin()) / sorted.size();
}

TEST(KllSketchTest, EmptySketchChecksOnQuery) {
  KllSketch sketch;
  EXPECT_EQ(sketch.Count(), 0u);
  EXPECT_DEATH(sketch.Quantile(0.5), "");
  EXPECT_DEATH(sketch.Min(), "");
}

TEST(KllSketchTest, SmallStreamIsExact) {
  KllSketch sketch(256);
  for (double v : {4.0, 2.0, 1.0, 3.0}) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.Min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Max(), 4.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 4.0);
  EXPECT_NEAR(sketch.Quantile(0.5), 2.0, 1.0);
}

class KllErrorTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KllErrorTest, RankErrorSmall) {
  const int k = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  KllSketch sketch(k, /*seed=*/5);
  common::Rng rng(31);
  std::vector<double> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Heavy-tailed mix to mimic gradient value distributions.
    const double v = rng.NextBernoulli(0.9) ? rng.NextGaussian() * 0.01
                                            : rng.NextGaussian();
    data.push_back(v);
    sketch.Update(v);
  }
  std::sort(data.begin(), data.end());

  // Expected rank error ~ O(1/k); allow a safety factor.
  const double tolerance = k >= 256 ? 0.02 : 0.05;
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double estimate = sketch.Quantile(q);
    EXPECT_NEAR(TrueRankFraction(data, estimate), q, tolerance)
        << "k=" << k << " n=" << n << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KllErrorTest,
                         ::testing::Combine(::testing::Values(128, 256, 512),
                                            ::testing::Values(10000, 100000)));

TEST(KllSketchTest, SpaceIsBounded) {
  KllSketch sketch(256);
  common::Rng rng(37);
  for (int i = 0; i < 500000; ++i) sketch.Update(rng.NextDouble());
  // Retained items ~ k * sum(decay^i) = k * 3 = 768; generous bound.
  EXPECT_LT(sketch.NumRetained(), 4096u);
  EXPECT_EQ(sketch.Count(), 500000u);
}

TEST(KllSketchTest, MinMaxAlwaysExact) {
  KllSketch sketch(64);
  common::Rng rng(41);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.NextGaussian() * 100;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sketch.Update(v);
  }
  EXPECT_DOUBLE_EQ(sketch.Min(), lo);
  EXPECT_DOUBLE_EQ(sketch.Max(), hi);
}

TEST(KllSketchTest, MergeMatchesCombinedStream) {
  common::Rng rng(43);
  KllSketch a(256, 1), b(256, 2);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.NextGaussian();
    all.push_back(v);
    (i % 2 == 0 ? a : b).Update(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 50000u);
  std::sort(all.begin(), all.end());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(TrueRankFraction(all, a.Quantile(q)), q, 0.03);
  }
}

TEST(KllSketchTest, MergeEmptySketches) {
  KllSketch a, b;
  a.Merge(b);
  EXPECT_EQ(a.Count(), 0u);
  b.Update(1.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 1.0);
}

TEST(KllSketchTest, RankIsMonotone) {
  KllSketch sketch(256);
  common::Rng rng(47);
  for (int i = 0; i < 20000; ++i) sketch.Update(rng.NextGaussian());
  double previous = -1.0;
  for (double v = -3.0; v <= 3.0; v += 0.25) {
    const double r = sketch.Rank(v);
    EXPECT_GE(r, previous);
    previous = r;
  }
  EXPECT_NEAR(sketch.Rank(0.0), 0.5, 0.03);
}

TEST(KllSketchTest, EqualDepthSplitsAreMonotoneAndCoverRange) {
  KllSketch sketch(256);
  common::Rng rng(53);
  for (int i = 0; i < 30000; ++i) sketch.Update(rng.NextGaussian() * 0.1);
  const auto splits = sketch.EqualDepthSplits(256);
  ASSERT_EQ(splits.size(), 257u);
  EXPECT_DOUBLE_EQ(splits.front(), sketch.Min());
  EXPECT_DOUBLE_EQ(splits.back(), sketch.Max());
  EXPECT_TRUE(std::is_sorted(splits.begin(), splits.end()));
}

TEST(KllSketchTest, EqualDepthSplitsEqualizePopulation) {
  KllSketch sketch(512);
  common::Rng rng(59);
  std::vector<double> data;
  for (int i = 0; i < 100000; ++i) {
    const double v = std::exp(rng.NextGaussian());  // Very skewed.
    data.push_back(v);
    sketch.Update(v);
  }
  const int q = 16;
  const auto splits = sketch.EqualDepthSplits(q);
  std::sort(data.begin(), data.end());
  for (int b = 0; b < q; ++b) {
    const auto lo = std::lower_bound(data.begin(), data.end(), splits[b]);
    const auto hi = std::lower_bound(data.begin(), data.end(), splits[b + 1]);
    const double frac = static_cast<double>(hi - lo) / data.size();
    EXPECT_NEAR(frac, 1.0 / q, 0.03) << "bucket " << b;
  }
}

TEST(KllSketchTest, SerializeRoundTripPreservesSummary) {
  KllSketch sketch(256, /*seed=*/7);
  common::Rng rng(61);
  for (int i = 0; i < 50000; ++i) sketch.Update(rng.NextGaussian());

  common::ByteWriter writer(sketch.SerializedSize());
  sketch.Serialize(&writer);
  EXPECT_EQ(writer.size(), sketch.SerializedSize());

  common::ByteReader reader(writer.buffer());
  KllSketch restored;
  ASSERT_TRUE(KllSketch::Deserialize(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(restored.Count(), sketch.Count());
  EXPECT_DOUBLE_EQ(restored.Min(), sketch.Min());
  EXPECT_DOUBLE_EQ(restored.Max(), sketch.Max());
  // The wire format carries the retained items verbatim, so every
  // quantile estimate survives bit-for-bit.
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(restored.Quantile(q), sketch.Quantile(q)) << q;
  }
}

TEST(KllSketchTest, DeserializeRejectsCorruptPayloads) {
  KllSketch sketch(64);
  for (int i = 0; i < 1000; ++i) sketch.Update(i * 0.5);
  common::ByteWriter writer;
  sketch.Serialize(&writer);

  // Truncated at every prefix length: must fail, never crash.
  const std::vector<uint8_t>& bytes = writer.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    common::ByteReader reader(bytes.data(), len);
    KllSketch out;
    EXPECT_FALSE(KllSketch::Deserialize(&reader, &out).ok()) << len;
  }

  // Bad version byte.
  std::vector<uint8_t> bad = bytes;
  bad[0] = 0xFF;
  common::ByteReader reader(bad);
  KllSketch out;
  EXPECT_FALSE(KllSketch::Deserialize(&reader, &out).ok());
}

TEST(KllSketchTest, UpdateWeightedMatchesRepeatedUpdates) {
  // Weight-w insertion must estimate ranks like w copies of the value.
  KllSketch weighted(256, /*seed=*/9);
  KllSketch repeated(256, /*seed=*/9);
  common::Rng rng(67);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian();
    weighted.UpdateWeighted(v, 4);
    for (int r = 0; r < 4; ++r) repeated.Update(v);
  }
  EXPECT_EQ(weighted.Count(), repeated.Count());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(weighted.Quantile(q), repeated.Quantile(q), 0.15) << q;
  }
}

TEST(KllSketchTest, UpdateWeightedRequiresPowerOfTwo) {
  KllSketch sketch(64);
  sketch.UpdateWeighted(1.0, 1);
  sketch.UpdateWeighted(2.0, 8);
  EXPECT_EQ(sketch.Count(), 9u);
  EXPECT_DEATH(sketch.UpdateWeighted(3.0, 3), "");
  EXPECT_DEATH(sketch.UpdateWeighted(3.0, 0), "");
}

std::vector<uint8_t> SerializedBytes(const KllSketch& sketch) {
  common::ByteWriter writer(sketch.SerializedSize());
  sketch.Serialize(&writer);
  return writer.buffer();
}

enum class Stream { kGaussian, kDuplicates, kSignedZeros };

/// `n` values of the given shape: gradient-like Gaussians, a handful of
/// distinct values repeated many times, or Gaussians with +0.0 and -0.0
/// interleaved (the only doubles `<` calls equal but that serialize
/// differently).
std::vector<double> MakeStream(Stream shape, size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    switch (shape) {
      case Stream::kGaussian:
        v = rng.NextGaussian();
        break;
      case Stream::kDuplicates:
        v = static_cast<double>(rng.NextBounded(7)) * 0.25;
        break;
      case Stream::kSignedZeros: {
        const uint64_t pick = rng.NextBounded(4);
        v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.NextGaussian();
        break;
      }
    }
  }
  return values;
}

// UpdateAll appends level-0 fills in blocks; every compaction must still
// fire at the same item and draw the same coin as an Update loop. The tail
// of per-element updates after the block call would diverge if the
// compaction RNG had drawn a different number of coins.
TEST(KllSketchTest, UpdateAllMatchesPerElementUpdateByteForByte) {
  for (int k : {8, 128, 256}) {
    const size_t level0 = static_cast<size_t>(k);  // Fresh sketch: one level.
    for (size_t n : {size_t{0}, size_t{1}, level0 - 1, level0, level0 + 1,
                     size_t{4300}, size_t{100000}}) {
      for (Stream shape :
           {Stream::kGaussian, Stream::kDuplicates, Stream::kSignedZeros}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
          const std::vector<double> values =
              MakeStream(shape, n, seed * 1000 + n);
          const std::vector<double> tail =
              MakeStream(shape, 3 * level0 + 5, seed);
          KllSketch block(k, seed);
          KllSketch single(k, seed);
          block.UpdateAll(values);
          for (double v : values) single.Update(v);
          ASSERT_EQ(SerializedBytes(block), SerializedBytes(single))
              << "k=" << k << " n=" << n << " seed=" << seed;
          for (double v : tail) {
            block.Update(v);
            single.Update(v);
          }
          ASSERT_EQ(SerializedBytes(block), SerializedBytes(single))
              << "tail, k=" << k << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

// Several block calls on a sketch that is already partly full land on
// the same state as one Update loop over their concatenation.
TEST(KllSketchTest, UpdateAllInChunksMatchesOneUpdateLoop) {
  const std::vector<double> values = MakeStream(Stream::kGaussian, 5000, 71);
  KllSketch chunked(128, 5);
  KllSketch single(128, 5);
  size_t begin = 0;
  for (size_t len : {size_t{0}, size_t{1}, size_t{127}, size_t{300},
                     size_t{2000}, size_t{5000}}) {
    const size_t end = std::min(values.size(), begin + len);
    chunked.UpdateAll(std::vector<double>(values.begin() + begin,
                                          values.begin() + end));
    begin = end;
  }
  chunked.UpdateAll(
      std::vector<double>(values.begin() + begin, values.end()));
  for (double v : values) single.Update(v);
  EXPECT_EQ(SerializedBytes(chunked), SerializedBytes(single));
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (uint8_t b : bytes) hash = (hash ^ b) * 1099511628211ULL;
  return hash;
}

// Pins the retained items after a block build, a merge (levels that are
// concatenations of two sketches' runs), weighted inserts (levels fed one
// unsorted item at a time) and a stream holding both zeros, so any change
// to how a level is sorted before compaction, or to when compactions
// fire, shows here.
TEST(KllSketchTest, BuildMergeWeightedDigestIsPinned) {
  KllSketch sketch(128, /*seed=*/7);
  sketch.UpdateAll(MakeStream(Stream::kGaussian, 4300, 11));
  KllSketch other(128, /*seed=*/8);
  other.UpdateAll(MakeStream(Stream::kDuplicates, 9000, 12));
  sketch.Merge(other);
  common::Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t weight = uint64_t{1} << rng.NextBounded(4);
    sketch.UpdateWeighted(rng.NextGaussian(), weight);
  }
  sketch.UpdateAll(MakeStream(Stream::kGaussian, 1000, 14));
  EXPECT_EQ(Fnv1a(SerializedBytes(sketch)), 0xfd7cc807803d4c3bULL);

  KllSketch zeros(128, /*seed=*/9);
  zeros.UpdateAll(MakeStream(Stream::kSignedZeros, 20000, 15));
  EXPECT_EQ(Fnv1a(SerializedBytes(zeros)), 0xd2d4f2cb0f5d6188ULL);
}

TEST(KllSketchTest, NormalizedRankErrorShrinksWithK) {
  const double e128 = KllSketch::NormalizedRankError(128);
  const double e256 = KllSketch::NormalizedRankError(256);
  const double e512 = KllSketch::NormalizedRankError(512);
  EXPECT_GT(e128, e256);
  EXPECT_GT(e256, e512);
  // The published constant for k=256 is ~1.6% — the SLO gate's window.
  EXPECT_NEAR(e256, 0.0156, 0.002);
  KllSketch sketch(256);
  EXPECT_DOUBLE_EQ(sketch.NormalizedRankError(),
                   KllSketch::NormalizedRankError(256));
}

}  // namespace
}  // namespace sketchml::sketch

#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sketchml::common {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Uniformity: each bin expects 10000; allow 10 % slack.
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.NextBernoulli(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

class ZipfSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerTest, HeadIsMostPopular) {
  const double alpha = GetParam();
  ZipfSampler zipf(1000, alpha);
  Rng rng(8);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  // Item 0 beats item 100 by roughly (101)^alpha; just require dominance.
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0], counts[999]);
  // Frequency of item 0 matches the analytic Zipf mass within 20 %.
  double norm = 0.0;
  for (int i = 1; i <= 1000; ++i) norm += 1.0 / std::pow(i, alpha);
  const double expected = 1.0 / norm;
  EXPECT_NEAR(counts[0] / 100000.0, expected, expected * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfSamplerTest,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

// The guide table only narrows the search span, so SampleAt must agree
// with a plain lower_bound over the whole CDF for every u, in particular
// right at and beside the cut points j/K where the span changes, and at
// each CDF entry, where the bisection's comparison flips.
TEST(ZipfSamplerTest, GuideTableMatchesFullBisection) {
  for (const uint64_t n :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1000},
        uint64_t{100003}, uint64_t{1} << 17}) {
    for (const double alpha : {0.5, 1.0, 1.1, 2.0}) {
      const ZipfSampler zipf(n, alpha);
      std::vector<double> cdf(n);
      double total = 0.0;
      for (uint64_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = total;
      }
      for (auto& c : cdf) c /= total;

      std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
      Rng rng(n * 31 + static_cast<uint64_t>(alpha * 10));
      for (int i = 0; i < 100000; ++i) us.push_back(rng.NextDouble());
      const uint64_t k = std::bit_ceil(n);
      for (const double c : cdf) {
        if (c < 1.0) us.push_back(c);
      }
      for (uint64_t j = 0; j < k; ++j) {
        const double cut = static_cast<double>(j) / static_cast<double>(k);
        us.push_back(cut);
        if (j > 0) us.push_back(std::nextafter(cut, 0.0));
        us.push_back(std::nextafter(cut, 1.0));
      }

      for (const double u : us) {
        const uint64_t want = std::min<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(), n - 1);
        const uint64_t got = zipf.SampleAt(u);
        if (got != want) {
          ADD_FAILURE() << "n=" << n << " alpha=" << alpha << " u="
                        << std::hexfloat << u << ": got " << got
                        << ", want " << want;
          break;
        }
        ASSERT_TRUE(zipf.CanSample(got));
      }
    }
  }
}

TEST(ZipfSamplerTest, CanSampleExcludesRanksThatRoundAway) {
  // Every rank of a moderate Zipf has mass well above the u grid.
  const ZipfSampler moderate(1000, 1.1);
  for (uint64_t r = 0; r < 1000; ++r) EXPECT_TRUE(moderate.CanSample(r));

  // At alpha = 60 ranks 1..3 carry < 2^-60 of the mass: the CDF is 1.0
  // from rank 0 on, so only rank 0 is ever drawn.
  const ZipfSampler steep(4, 60.0);
  EXPECT_TRUE(steep.CanSample(0));
  for (uint64_t r = 1; r < 4; ++r) EXPECT_FALSE(steep.CanSample(r));
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(steep.Sample(rng), 0u);
  EXPECT_EQ(steep.SampleAt(std::nextafter(1.0, 0.0)), 0u);
}

TEST(ZipfSamplerTest, SingleItemAlwaysZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

}  // namespace
}  // namespace sketchml::common

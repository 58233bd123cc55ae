#include "ml/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/random.h"
#include "ml/gradient.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::ml {
namespace {

TEST(SgdOptimizerTest, SingleStep) {
  SgdOptimizer opt(4, 0.5);
  opt.Apply({{1, 2.0}, {3, -4.0}});
  EXPECT_DOUBLE_EQ(opt.weights()[0], 0.0);
  EXPECT_DOUBLE_EQ(opt.weights()[1], -1.0);
  EXPECT_DOUBLE_EQ(opt.weights()[2], 0.0);
  EXPECT_DOUBLE_EQ(opt.weights()[3], 2.0);
}

TEST(AdamOptimizerTest, FirstStepIsScaledLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  AdamOptimizer opt(2, 0.1);
  opt.Apply({{0, 0.5}, {1, -3.0}});
  EXPECT_NEAR(opt.weights()[0], -0.1, 1e-6);
  EXPECT_NEAR(opt.weights()[1], 0.1, 1e-6);
  EXPECT_EQ(opt.step(), 1u);
}

TEST(AdamOptimizerTest, AdaptsToGradientScale) {
  // A dimension with persistently tiny gradients still takes ~lr-sized
  // steps — the property §3.3 Solution 2 relies on to compensate
  // MinMaxSketch's decay.
  AdamOptimizer opt(2, 0.01);
  for (int i = 0; i < 100; ++i) {
    opt.Apply({{0, 1e-6}, {1, 1.0}});
  }
  // Both dimensions moved on the order of 100 * lr despite a 1e6 gradient
  // magnitude gap.
  EXPECT_LT(opt.weights()[0], -0.5 * 100 * 0.01 * 0.5);
  EXPECT_LT(opt.weights()[1], -0.5 * 100 * 0.01 * 0.5);
  EXPECT_GT(opt.weights()[0] / opt.weights()[1], 0.5);
}

TEST(AdamOptimizerTest, RejectsBadBetas) {
  EXPECT_DEATH(AdamOptimizer(2, 0.1, 1.0), "");
  EXPECT_DEATH(AdamOptimizer(2, 0.1, 0.9, 1.5), "");
}

TEST(AdamOptimizerTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by feeding its gradient.
  AdamOptimizer opt(1, 0.1);
  for (int i = 0; i < 2000; ++i) {
    const double w = opt.weights()[0];
    opt.Apply({{0, 2 * (w - 3.0)}});
  }
  EXPECT_NEAR(opt.weights()[0], 3.0, 0.05);
}

TEST(GradientTest, BatchGradientMatchesManualComputation) {
  // One instance, squared loss: grad = 2(m - y) x + lambda w.
  std::vector<Instance> instances(1);
  instances[0].features = {{0, 2.0f}, {2, 1.0f}};
  instances[0].label = 1.0;
  Dataset data(std::move(instances), 3);
  SquaredLoss loss;
  DenseVector w = {0.5, 0.0, 1.0};
  // margin = 0.5*2 + 1*1 = 2; scale = 2*(2-1) = 2.
  auto grad = ComputeBatchGradient(loss, w, data, 0, 1, 0.1);
  ASSERT_EQ(grad.size(), 2u);
  EXPECT_EQ(grad[0].key, 0u);
  EXPECT_NEAR(grad[0].value, 2 * 2.0 + 0.1 * 0.5, 1e-12);
  EXPECT_EQ(grad[1].key, 2u);
  EXPECT_NEAR(grad[1].value, 2 * 1.0 + 0.1 * 1.0, 1e-12);
}

TEST(GradientTest, GradientIsSortedAndSparse) {
  SyntheticConfig config;
  config.num_instances = 500;
  config.dim = 1 << 16;
  Dataset data = GenerateSynthetic(config);
  LogisticLoss loss;
  DenseVector w(data.dim(), 0.0);
  auto grad = ComputeBatchGradient(loss, w, data, 0, 100, 0.01);
  EXPECT_TRUE(common::IsSortedByKey(grad));
  EXPECT_GT(grad.size(), 100u);
  EXPECT_LT(grad.size(), data.dim() / 10);
}

// Pins the exact pairs ComputeBatchGradient emits: every key and the bit
// pattern of every value, over batch slices of two presets with nonzero
// weights and both a zero and a nonzero lambda. The regression, trace,
// fault and churn goldens all train on these gradients, so a change to
// how they are summed that moves any bit must fail here first.
TEST(GradientTest, ContentDigestIsPinned) {
  const std::pair<const char*, uint64_t> presets[] = {
      {"kdd12", 0xa1095db3ea5b86beULL}, {"ctr", 0xcfb03dbaddf44a99ULL}};
  const std::pair<size_t, size_t> slices[] = {
      {0, 1}, {0, 64}, {100, 612}, {1000, 2000}};
  for (const auto& [preset, pinned] : presets) {
    SyntheticConfig config = PresetFor(preset);
    config.num_instances = 2000;
    const Dataset data = GenerateSynthetic(config);
    common::Rng rng(53);
    DenseVector w(data.dim());
    for (auto& x : w) x = rng.NextGaussian() * 0.05;
    LogisticLoss loss;
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](uint64_t bits) {
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (const double lambda : {0.0, 0.01}) {
      for (const auto& [begin, end] : slices) {
        const auto grad = ComputeBatchGradient(loss, w, data, begin, end,
                                               lambda);
        fold(grad.size());
        for (const auto& pair : grad) {
          fold(pair.key);
          fold(std::bit_cast<uint64_t>(pair.value));
        }
      }
    }
    EXPECT_EQ(h, pinned) << preset << " digest 0x" << std::hex << h;
  }
}

TEST(GradientTest, EmptyBatchYieldsEmptyGradient) {
  Dataset data({}, 10);
  LogisticLoss loss;
  DenseVector w(10, 0.0);
  auto grad = ComputeBatchGradient(loss, w, data, 0, 0, 0.01);
  EXPECT_TRUE(grad.empty());
}

TEST(GradientTest, FullBatchDescentReducesLoss) {
  SyntheticConfig config;
  config.num_instances = 1000;
  config.dim = 1 << 12;
  config.seed = 11;
  Dataset data = GenerateSynthetic(config);
  LogisticLoss loss;
  SgdOptimizer opt(data.dim(), 0.5);
  const double initial =
      ComputeMeanLoss(loss, opt.weights(), data, 0.01);
  for (int i = 0; i < 20; ++i) {
    opt.Apply(ComputeBatchGradient(loss, opt.weights(), data, 0, data.size(),
                                   0.01));
  }
  const double trained = ComputeMeanLoss(loss, opt.weights(), data, 0.01);
  EXPECT_LT(trained, initial * 0.9);
}

TEST(GradientTest, AccuracyImprovesWithTraining) {
  SyntheticConfig config;
  config.num_instances = 2000;
  config.dim = 1 << 12;
  config.label_noise = 0.02;
  config.seed = 13;
  Dataset data = GenerateSynthetic(config);
  LogisticLoss loss;
  AdamOptimizer opt(data.dim(), 0.05);
  const double before = ComputeAccuracy(opt.weights(), data);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (size_t b = 0; b < data.size(); b += 200) {
      opt.Apply(ComputeBatchGradient(loss, opt.weights(), data, b,
                                     std::min(data.size(), b + 200), 0.001));
    }
  }
  const double after = ComputeAccuracy(opt.weights(), data);
  EXPECT_GT(after, before + 0.1);
  EXPECT_GT(after, 0.7);
}

}  // namespace
}  // namespace sketchml::ml

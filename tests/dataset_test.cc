#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "ml/synthetic.h"
#include "ml/types.h"

namespace sketchml::ml {
namespace {

TEST(LibSvmParseTest, ParsesBasicFile) {
  const std::string text =
      "+1 1:0.5 7:1.0 42:2.5\n"
      "-1 2:1.0\n"
      "# a comment line\n"
      "\n"
      "0 3:4.0 5:0.5\n";
  auto result = ParseLibSvm(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& data = *result;
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data.dim(), 43u);
  EXPECT_DOUBLE_EQ(data.instances()[0].label, 1.0);
  EXPECT_DOUBLE_EQ(data.instances()[1].label, -1.0);
  EXPECT_DOUBLE_EQ(data.instances()[2].label, -1.0);  // 0 -> -1.
  ASSERT_EQ(data.instances()[0].features.size(), 3u);
  EXPECT_EQ(data.instances()[0].features[2].index, 42u);
  EXPECT_FLOAT_EQ(data.instances()[0].features[2].value, 2.5f);
}

TEST(LibSvmParseTest, SortsUnorderedFeatures) {
  auto result = ParseLibSvm("+1 9:1 3:2 5:3\n");
  ASSERT_TRUE(result.ok());
  const auto& feats = result->instances()[0].features;
  EXPECT_EQ(feats[0].index, 3u);
  EXPECT_EQ(feats[1].index, 5u);
  EXPECT_EQ(feats[2].index, 9u);
}

TEST(LibSvmParseTest, RejectsGarbage) {
  EXPECT_FALSE(ParseLibSvm("+1 not-a-feature\n").ok());
  EXPECT_FALSE(ParseLibSvm("abc 1:2\n").ok());
}

TEST(LibSvmParseTest, MissingFileIsIoError) {
  auto result = ReadLibSvmFile("/nonexistent/path/data.libsvm");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIoError);
}

TEST(DatasetTest, SplitPreservesCountsAndDim) {
  SyntheticConfig config;
  config.num_instances = 1000;
  config.dim = 1 << 12;
  Dataset data = GenerateSynthetic(config);
  auto [train, test] = data.Split(0.25);
  EXPECT_EQ(train.size(), 750u);
  EXPECT_EQ(test.size(), 250u);
  EXPECT_EQ(train.dim(), data.dim());
  EXPECT_EQ(test.dim(), data.dim());
}

TEST(DatasetTest, AvgNnz) {
  std::vector<Instance> instances(2);
  instances[0].features = {{1, 1.0f}, {2, 1.0f}};
  instances[1].features = {{3, 1.0f}, {4, 1.0f}, {5, 1.0f}, {6, 1.0f}};
  Dataset data(std::move(instances), 10);
  EXPECT_DOUBLE_EQ(data.AvgNnz(), 3.0);
}

TEST(SyntheticTest, DeterministicForFixedSeed) {
  SyntheticConfig config;
  config.num_instances = 100;
  config.dim = 1 << 10;
  config.seed = 7;
  Dataset a = GenerateSynthetic(config);
  Dataset b = GenerateSynthetic(config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Instance& x = a.instances()[i];
    const Instance& y = b.instances()[i];
    EXPECT_EQ(x.label, y.label);
    ASSERT_EQ(x.features.size(), y.features.size());
    for (size_t f = 0; f < x.features.size(); ++f) {
      EXPECT_EQ(x.features[f].index, y.features[f].index);
      EXPECT_EQ(x.features[f].value, y.features[f].value);
    }
  }
}

// FNV-1a over every label's bytes and every feature's index and value
// bytes, each folded little-endian so the digest is host-independent.
uint64_t ContentDigest(const Dataset& data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t bits, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& inst : data.instances()) {
    fold(std::bit_cast<uint64_t>(inst.label), 8);
    fold(inst.features.size(), 8);
    for (const auto& f : inst.features) {
      fold(f.index, 4);
      fold(std::bit_cast<uint32_t>(f.value), 4);
    }
  }
  return h;
}

// Pins the generator's exact output. Every golden downstream (regression,
// SLO, trace, churn and fault gates, wire CRCs) trains on these datasets,
// so a generator change that moves any byte must fail here first.
TEST(SyntheticTest, ContentDigestIsPinned) {
  struct Case {
    const char* name;
    SyntheticConfig config;
    uint64_t digest;
  };
  std::vector<Case> cases;
  const std::pair<const char*, uint64_t> presets[] = {
      {"kdd10", 0x9756230c1cae1061ULL},
      {"kdd12", 0x62056468761c0f58ULL},
      {"ctr", 0xd17511b772e31a6aULL}};
  for (const auto& [preset, digest] : presets) {
    SyntheticConfig config = PresetFor(preset);
    config.num_instances = 2000;
    cases.push_back({preset, config, digest});
  }
  SyntheticConfig regression;
  regression.num_instances = 2000;
  regression.dim = 1 << 14;
  regression.regression = true;
  regression.seed = 7;
  cases.push_back({"regression", regression, 0xd48b667889c09aabULL});
  SyntheticConfig odd_dim;
  odd_dim.num_instances = 2000;
  odd_dim.dim = 100003;
  odd_dim.seed = 2;
  cases.push_back({"odd_dim", odd_dim, 0x69f71812060e11f8ULL});

  for (const Case& c : cases) {
    const uint64_t digest = ContentDigest(GenerateSynthetic(c.config));
    EXPECT_EQ(digest, c.digest) << c.name << " digest 0x" << std::hex
                                << digest;
  }
}

// Rows asking for more distinct features than the generator can emit are
// clamped to all of them instead of drawing forever, so every row is the
// same set. That set is every feature when the rank shuffle is a
// bijection (dim a power of two: all 16), fewer when it is not (dim 3
// maps onto 2 ids) or when ranks' mass rounds away (alpha 60 leaves only
// rank 0).
TEST(SyntheticTest, NnzAboveDimTerminates) {
  struct Case {
    uint64_t dim;
    double zipf_alpha;
    size_t row_size;
  };
  const Case cases[] = {{16, 1.1, 16}, {3, 1.1, 2}, {16, 60.0, 1}};
  for (const Case& c : cases) {
    SyntheticConfig config;
    config.num_instances = 200;
    config.dim = c.dim;
    config.avg_nnz = 40;
    config.zipf_alpha = c.zipf_alpha;
    const Dataset data = GenerateSynthetic(config);
    const auto& first = data.instances()[0].features;
    ASSERT_EQ(first.size(), c.row_size) << "dim " << c.dim;
    for (const auto& inst : data.instances()) {
      ASSERT_EQ(inst.features.size(), first.size());
      for (size_t f = 0; f < first.size(); ++f) {
        EXPECT_EQ(inst.features[f].index, first[f].index);
      }
    }
  }
}

TEST(SyntheticTest, RespectsShapeParameters) {
  SyntheticConfig config;
  config.num_instances = 2000;
  config.dim = 1 << 16;
  config.avg_nnz = 50;
  Dataset data = GenerateSynthetic(config);
  EXPECT_EQ(data.size(), 2000u);
  EXPECT_EQ(data.dim(), 1u << 16);
  EXPECT_NEAR(data.AvgNnz(), 50.0, 10.0);
  for (const auto& inst : data.instances()) {
    EXPECT_TRUE(inst.label == 1.0 || inst.label == -1.0);
    for (size_t i = 1; i < inst.features.size(); ++i) {
      EXPECT_LT(inst.features[i - 1].index, inst.features[i].index);
    }
  }
}

TEST(SyntheticTest, RegressionLabelsAreContinuous) {
  SyntheticConfig config;
  config.num_instances = 500;
  config.dim = 1 << 12;
  config.regression = true;
  Dataset data = GenerateSynthetic(config);
  int non_binary = 0;
  for (const auto& inst : data.instances()) {
    if (inst.label != 1.0 && inst.label != -1.0) ++non_binary;
  }
  EXPECT_GT(non_binary, 400);
}

TEST(SyntheticTest, LabelsAreLearnableSignal) {
  // A dataset with label noise 0 must be (mostly) linearly separable by
  // the ground-truth model — sanity that labels are not random.
  SyntheticConfig config;
  config.num_instances = 2000;
  config.dim = 1 << 14;
  config.label_noise = 0.0;
  Dataset data = GenerateSynthetic(config);
  int positive = 0;
  for (const auto& inst : data.instances()) positive += inst.label > 0;
  // Both classes present, neither degenerate.
  EXPECT_GT(positive, 200);
  EXPECT_LT(positive, 1800);
}

TEST(SyntheticTest, PresetsHaveDistinctDensityRegimes) {
  const auto kdd10 = PresetFor("kdd10");
  const auto kdd12 = PresetFor("kdd12");
  const auto ctr = PresetFor("ctr");
  EXPECT_LT(kdd12.avg_nnz, ctr.avg_nnz);  // CTR is denser (§4.3.2).
  EXPECT_GT(kdd12.dim, kdd10.dim);        // KDD12 has more features.
  const auto fallback = PresetFor("unknown");
  EXPECT_EQ(fallback.num_instances, SyntheticConfig().num_instances);
}

TEST(LibSvmWriteTest, RoundTripsThroughDisk) {
  SyntheticConfig config;
  config.num_instances = 200;
  config.dim = 1 << 10;
  config.seed = 53;
  const Dataset original = GenerateSynthetic(config);
  const std::string path = ::testing::TempDir() + "/roundtrip.libsvm";
  ASSERT_TRUE(WriteLibSvmFile(original, path).ok());
  auto loaded = ReadLibSvmFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.instances()[i];
    const auto& b = loaded->instances()[i];
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.features.size(), b.features.size());
    for (size_t f = 0; f < a.features.size(); ++f) {
      EXPECT_EQ(a.features[f].index, b.features[f].index);
      EXPECT_FLOAT_EQ(a.features[f].value, b.features[f].value);
    }
  }
}

TEST(LibSvmWriteTest, UnwritablePathIsIoError) {
  const Dataset data({}, 1);
  EXPECT_EQ(WriteLibSvmFile(data, "/nonexistent/dir/out.libsvm").code(),
            common::StatusCode::kIoError);
}

TEST(SyntheticMnistTest, ShapeAndLabels) {
  Dataset data = GenerateSyntheticMnist(200, 20, 10, 3);
  EXPECT_EQ(data.size(), 200u);
  EXPECT_EQ(data.dim(), 400u);
  for (const auto& inst : data.instances()) {
    EXPECT_GE(inst.label, 0.0);
    EXPECT_LT(inst.label, 10.0);
    EXPECT_GT(inst.features.size(), 100u);  // Mostly dense images.
  }
}

}  // namespace
}  // namespace sketchml::ml

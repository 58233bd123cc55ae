#include "ml/synthetic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace sketchml::ml {
namespace {

// A set of feature ids that hands its members back in ascending order:
// one bit per id plus one summary bit per 64-id word, so draining a row
// visits only the words that hold its features and needs no sort. One
// set, emptied by each drain, serves every row without allocating.
class FeatureSet {
 public:
  explicit FeatureSet(uint64_t dim)
      : words_((dim + 63) / 64), summary_((words_.size() + 63) / 64) {}

  // Adds `id`; false if it was already a member.
  bool Insert(uint32_t id) {
    uint64_t& word = words_[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    summary_[id >> 12] |= uint64_t{1} << ((id >> 6) & 63);
    return true;
  }

  // Appends every member, ascending, with `value` and empties the set.
  void Drain(float value, std::vector<Feature>* out) {
    for (size_t s = 0; s < summary_.size(); ++s) {
      for (uint64_t live = std::exchange(summary_[s], 0); live != 0;
           live &= live - 1) {
        const size_t w = s * 64 + std::countr_zero(live);
        for (uint64_t bits = std::exchange(words_[w], 0); bits != 0;
             bits &= bits - 1) {
          out->push_back(
              {static_cast<uint32_t>(w * 64 + std::countr_zero(bits)),
               value});
        }
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;
};

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& config) {
  SKETCHML_CHECK_GT(config.num_instances, 0u);
  SKETCHML_CHECK_GT(config.dim, 0u);
  // Feature::index is a uint32_t.
  SKETCHML_CHECK_LE(config.dim, uint64_t{1} << 32);
  common::Rng rng(config.seed);
  common::ZipfSampler zipf(config.dim, config.zipf_alpha);

  // Sparse ground-truth model: popular features get weights so that the
  // signal is actually learnable from few nonzeros. A random permutation
  // maps Zipf rank -> feature id so "hot" ids are scattered over [0, D),
  // like hashed features in real CTR data.
  // Using a multiplicative shuffle keeps memory O(1).
  const uint64_t a = 0x9E3779B97F4A7C15ULL | 1;  // Odd => invertible mod 2^64.
  // For a power-of-two dim the mask equals the modulo, minus a 64-bit
  // divide per draw.
  const uint64_t mask = std::has_single_bit(config.dim) ? config.dim - 1 : 0;
  auto rank_to_feature = [&](uint64_t rank) {
    const uint64_t h = rank * a + 0x1234567;
    return static_cast<uint32_t>(mask != 0 ? h & mask : h % config.dim);
  };

  // A row holds distinct features, so it can never hold more than the
  // sampler can emit: fewer than dim when the shuffle is not a bijection
  // (dim not a power of two) or ranks' probability rounds to zero. Count
  // them, up to the largest row size, and clamp rows to that below.
  const uint64_t max_nnz =
      std::max<int>(1, static_cast<int>(config.avg_nnz * 1.5));
  uint64_t emittable = 0;
  FeatureSet reachable(config.dim);
  for (uint64_t rank = 0; rank < config.dim && emittable < max_nnz; ++rank) {
    if (zipf.CanSample(rank) && reachable.Insert(rank_to_feature(rank))) {
      ++emittable;
    }
  }

  const uint64_t truth_size = std::min<uint64_t>(config.dim, 4096);
  std::vector<double> truth(truth_size);
  for (auto& w : truth) w = rng.NextGaussian();

  const double value = 1.0;  // Binary features, as in CTR data.
  FeatureSet row(config.dim);
  std::vector<Instance> instances;
  instances.reserve(config.num_instances);
  for (uint64_t i = 0; i < config.num_instances; ++i) {
    Instance inst;
    // Poisson-ish nonzero count around avg_nnz (at least 1).
    const int drawn = std::max<int>(
        1, static_cast<int>(config.avg_nnz * (0.5 + rng.NextDouble())));
    const uint64_t nnz = std::min<uint64_t>(drawn, emittable);
    double signal = 0.0;
    for (uint64_t added = 0; added < nnz;) {
      const uint64_t rank = zipf.Sample(rng);
      if (!row.Insert(rank_to_feature(rank))) continue;
      ++added;
      if (rank < truth_size) signal += truth[rank] * value;
    }
    inst.features.reserve(nnz);
    row.Drain(static_cast<float>(value), &inst.features);

    if (config.regression) {
      inst.label = signal + rng.NextGaussian() * config.label_noise;
    } else {
      double margin = signal;
      if (rng.NextBernoulli(config.label_noise)) margin = -margin;
      inst.label = margin >= 0 ? 1.0 : -1.0;
    }
    instances.push_back(std::move(inst));
  }
  return Dataset(std::move(instances), config.dim);
}

SyntheticConfig PresetFor(const std::string& name, uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // The presets scale Table 1 down while preserving each dataset's
  // *gradient density* regime: the paper's per-executor gradients carry
  // d/D ≈ 10 % nonzeros at batch ratio 0.1 (Figure 8(d)), which is what
  // makes delta keys ~1.27 bytes and amortizes the 8q-byte bucket means.
  if (name == "kdd10") {
    config.num_instances = 40000;
    config.dim = 1 << 16;
    config.avg_nnz = 60;
    config.zipf_alpha = 1.05;
  } else if (name == "kdd12") {
    config.num_instances = 60000;
    config.dim = 1 << 17;
    config.avg_nnz = 40;
    config.zipf_alpha = 1.1;
  } else if (name == "ctr") {
    config.num_instances = 40000;
    config.dim = 1 << 15;
    config.avg_nnz = 150;  // CTR is denser (paper §4.3.2).
    config.zipf_alpha = 1.0;
  }
  return config;
}

Dataset GenerateSyntheticMnist(uint64_t num_instances, int side,
                               int num_classes, uint64_t seed) {
  common::Rng rng(seed);
  const int pixels = side * side;
  // Class templates: smooth random blobs.
  std::vector<std::vector<double>> templates(num_classes,
                                             std::vector<double>(pixels));
  for (auto& tmpl : templates) {
    // Two random Gaussian blobs per class.
    for (int blob = 0; blob < 2; ++blob) {
      const double cx = rng.NextUniform(4, side - 4);
      const double cy = rng.NextUniform(4, side - 4);
      const double sigma = rng.NextUniform(2.0, 4.0);
      for (int y = 0; y < side; ++y) {
        for (int x = 0; x < side; ++x) {
          const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
          tmpl[y * side + x] += std::exp(-d2 / (2 * sigma * sigma));
        }
      }
    }
  }

  std::vector<Instance> instances;
  instances.reserve(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(num_classes));
    Instance inst;
    inst.label = cls;
    inst.features.reserve(pixels);
    for (int p = 0; p < pixels; ++p) {
      const double v = templates[cls][p] + rng.NextGaussian() * 0.15;
      if (std::abs(v) > 1e-3) {
        inst.features.push_back(
            {static_cast<uint32_t>(p), static_cast<float>(v)});
      }
    }
    instances.push_back(std::move(inst));
  }
  return Dataset(std::move(instances), static_cast<uint64_t>(pixels));
}

}  // namespace sketchml::ml

#ifndef SKETCHML_ML_SYNTHETIC_H_
#define SKETCHML_ML_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "ml/dataset.h"

namespace sketchml::ml {

/// Parameters of the synthetic sparse dataset generator.
///
/// The generator is the stand-in for the paper's KDD10 / KDD12 / CTR
/// datasets (Table 1): features follow a Zipf popularity law (a few very
/// common features, a long rare tail — the structure that makes gradient
/// keys clustered and delta-encoding effective), instances carry a fixed
/// average number of nonzeros, and labels come from a sparse
/// ground-truth model plus noise so that losses actually decrease under
/// training.
struct SyntheticConfig {
  uint64_t num_instances = 20000;
  uint64_t dim = 1 << 20;
  double avg_nnz = 40;        // Nonzero features per instance.
  double zipf_alpha = 1.1;    // Feature popularity skew.
  double label_noise = 0.1;   // Fraction of labels flipped / noise sigma.
  bool regression = false;    // Real-valued labels instead of +-1.
  uint64_t seed = 1;
};

/// Generates a dataset per `config`. Deterministic for a fixed seed.
/// `dim` must be in `[1, 2^32]`. A row never holds more distinct
/// features than the generator can emit, so an `avg_nnz` near or above
/// `dim` yields rows holding all of them.
Dataset GenerateSynthetic(const SyntheticConfig& config);

/// Named presets scaled down from Table 1, preserving each dataset's
/// per-executor *gradient density* regime (d/D ≈ 10 % at batch ratio 0.1,
/// per Figure 8(d)) rather than absolute size:
///   "kdd10" — here 2^16 dims, ~60 nnz/instance
///   "kdd12" — here 2^17 dims, ~40 nnz/instance (sparser gradients)
///   "ctr"   — here 2^15 dims, ~150 nnz/instance (denser, compute-heavy)
/// Unknown names fall back to the default config.
SyntheticConfig PresetFor(const std::string& name, uint64_t seed = 1);

/// Generates a synthetic MNIST-like image classification dataset for the
/// Appendix B.3 MLP experiment: `num_classes` Gaussian class templates of
/// `side * side` pixels; each instance is its class template plus pixel
/// noise. Labels are 0..num_classes-1 (stored in Instance::label).
Dataset GenerateSyntheticMnist(uint64_t num_instances, int side = 20,
                               int num_classes = 10, uint64_t seed = 1);

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_SYNTHETIC_H_

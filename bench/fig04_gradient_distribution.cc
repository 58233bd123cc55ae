// Reproduces Figure 4: the nonuniform distribution of gradient values.
//
// The paper trains a public dataset (KDD10) with SGD and plots a
// histogram of the first generated gradient: values concentrate in a
// small range near zero, so uniform quantization wastes its levels.
// This binary prints the same histogram plus the concentration stats
// that motivate quantile-bucket quantification (§3.2).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ml/gradient.h"

namespace {

using sketchml::bench::Banner;
using sketchml::bench::MakeWorkload;
using sketchml::bench::Rule;

}  // namespace

int main() {
  Banner("Gradient value distribution",
         "Figure 4 (nonuniform gradient values, KDD10 + SGD)");

  auto workload = MakeWorkload("kdd10", "lr");
  sketchml::ml::DenseVector w(workload.train.dim(), 0.0);
  // "We ... select the first generated gradient": one mini-batch at the
  // initial model.
  const size_t batch = workload.train.size() / 10;
  auto grad = sketchml::ml::ComputeBatchGradient(
      *workload.loss, w, workload.train, 0, batch, /*lambda=*/0.01);

  std::vector<double> values;
  values.reserve(grad.size());
  double lo = 0, hi = 0;
  for (const auto& p : grad) {
    values.push_back(p.value);
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  std::printf("nonzero gradient values d = %zu, range [%.4f, %.4f]\n",
              values.size(), lo, hi);
  std::printf("(paper's example range: [-0.353, 0.004], most values near "
              "zero)\n\n");

  // 20 equal-width bins over [lo, hi]; out-of-range values clamp to the
  // edge bins. One row per bin, bars scaled to the fullest bin.
  constexpr int kBins = 20;
  constexpr int kBarWidth = 56;
  const double bin_width = (hi - lo) / kBins;
  std::vector<uint64_t> counts(kBins, 0);
  for (double v : values) {
    ++counts[std::clamp(static_cast<int>((v - lo) / bin_width), 0,
                        kBins - 1)];
  }
  const uint64_t max_count =
      std::max<uint64_t>(1, *std::max_element(counts.begin(), counts.end()));
  for (int b = 0; b < kBins; ++b) {
    const int bar = static_cast<int>(static_cast<double>(counts[b]) /
                                     max_count * kBarWidth);
    std::printf("[%+9.4f, %+9.4f) %10llu |%s\n", lo + b * bin_width,
                lo + (b + 1) * bin_width,
                static_cast<unsigned long long>(counts[b]),
                std::string(bar, '#').c_str());
  }
  std::printf("\n");

  // Concentration statistics: the fraction of values within epsilon of 0.
  std::vector<double> magnitudes;
  magnitudes.reserve(values.size());
  for (double v : values) magnitudes.push_back(std::abs(v));
  std::sort(magnitudes.begin(), magnitudes.end());
  const double span = std::max(std::abs(lo), std::abs(hi));
  Rule();
  std::printf("%-44s %10s\n", "concentration", "fraction");
  Rule();
  for (double frac : {0.01, 0.05, 0.10, 0.25}) {
    const double cutoff = span * frac;
    const auto it =
        std::upper_bound(magnitudes.begin(), magnitudes.end(), cutoff);
    std::printf("|v| < %5.1f%% of max magnitude (%.5f)    %9.1f%%\n",
                frac * 100, cutoff,
                100.0 * static_cast<double>(it - magnitudes.begin()) /
                    static_cast<double>(magnitudes.size()));
  }
  Rule();
  std::printf("Shape check vs paper: the overwhelming majority of values\n"
              "sit within a few percent of the max magnitude -> gradients\n"
              "are NOT uniformly distributed; uniform quantization grids\n"
              "collapse them (motivation for quantile-bucket encoding).\n");
  return 0;
}

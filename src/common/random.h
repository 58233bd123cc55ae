#ifndef SKETCHML_COMMON_RANDOM_H_
#define SKETCHML_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace sketchml::common {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// All randomness in the library flows through seeded `Rng` instances so
/// that tests and benchmark harnesses are reproducible run-to-run.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x5EED5EED5EED5EEDULL);

  /// Returns a uniformly distributed 64-bit value.
  uint64_t NextUint64();

  /// Returns a uniform integer in `[0, bound)`. `bound` must be positive.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniform double in `[0, 1)`.
  double NextDouble();

  /// Returns a uniform double in `[lo, hi)`.
  double NextUniform(double lo, double hi);

  /// Returns a standard-normal sample (Box–Muller).
  double NextGaussian();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// The full generator state is the four xoshiro256** words (Box–Muller
  /// discards its spare variate, so nothing else persists between calls).
  /// Save/Restore let checkpoints capture a codec's RNG lane exactly:
  /// restoring replays the same stream from the saved point.
  static constexpr int kStateWords = 4;
  void SaveState(uint64_t out[kStateWords]) const {
    for (int i = 0; i < kStateWords; ++i) out[i] = state_[i];
  }
  void RestoreState(const uint64_t in[kStateWords]) {
    for (int i = 0; i < kStateWords; ++i) state_[i] = in[i];
  }

 private:
  uint64_t state_[4];
};

/// Derives a decorrelated seed for parallel lane `lane` from `base`.
///
/// Parallel components (e.g. one gradient codec per simulated worker)
/// each get their own lane so their per-message seed sequences never
/// depend on cross-lane execution order — the property that makes
/// multi-threaded simulation bit-identical to serial. SplitMix64-style
/// finalizer: every (base, lane) pair maps to a well-mixed 64-bit seed.
inline uint64_t LaneSeed(uint64_t base, uint64_t lane) {
  uint64_t z = base + (lane + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Samples from a Zipf distribution over `{0, ..., n-1}` with exponent
/// `alpha` (> 0). Item 0 is the most popular. Used to synthesize the
/// power-law feature popularity of KDD-style sparse datasets.
///
/// Inversion sampling: a uniform `u` maps to the first CDF entry `>= u`.
/// A guide table of `K = bit_ceil(n)` cut points narrows that search to
/// the entries between `guide[floor(u*K)]` and the next cut, so a draw
/// touches a few adjacent CDF entries instead of bisecting all of them,
/// and still returns exactly the index a full bisection would.
class ZipfSampler {
 public:
  /// Precomputes the CDF and guide table; O(n) memory. `n` must be in
  /// `[1, 2^32]`.
  ZipfSampler(uint64_t n, double alpha);

  /// Draws one sample using `rng` (one `NextDouble`).
  uint64_t Sample(Rng& rng) const { return SampleAt(rng.NextDouble()); }

  /// The sample for uniform `u` in `[0, 1)`: the first index whose CDF
  /// entry is `>= u`, or `n-1` if none is.
  uint64_t SampleAt(double u) const;

  /// True when some value `Rng::NextDouble` can return maps to `rank`.
  /// Ranks whose probability rounds away in the CDF are never drawn.
  bool CanSample(uint64_t rank) const;

  uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  uint64_t n_;
  double alpha_;
  double cuts_;  // K as a double; `u * cuts_` is exact since K = 2^k.
  std::vector<double> cdf_;
  // guide_[j] is the first index with cdf_ >= j/K, clamped to n-1;
  // K+1 entries so guide_[j+1] exists for every j < K.
  std::vector<uint32_t> guide_;
};

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_RANDOM_H_

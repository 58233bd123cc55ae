#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/murmur_hash.h"

namespace sketchml::common {
namespace {

inline uint64_t Rotl64(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion of the seed into four non-zero words.
  uint64_t s = seed;
  for (auto& word : state_) {
    s += 0x9e3779b97f4a7c15ULL;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    word = z ^ (z >> 31);
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl64(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl64(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SKETCHML_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Box–Muller; discards the second variate for simplicity.
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  SKETCHML_CHECK_GT(n, 0u);
  SKETCHML_CHECK_LE(n, uint64_t{1} << 32);  // guide_ holds uint32 indices.
  SKETCHML_CHECK_GT(alpha, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;

  const uint64_t k = std::bit_ceil(n);
  cuts_ = static_cast<double>(k);
  guide_.resize(k + 1);
  uint64_t i = 0;
  for (uint64_t j = 0; j <= k; ++j) {
    const double cut = static_cast<double>(j) / cuts_;  // Exact: K = 2^k.
    while (i < n - 1 && cdf_[i] < cut) ++i;
    guide_[j] = static_cast<uint32_t>(i);
  }
}

uint64_t ZipfSampler::SampleAt(double u) const {
  SKETCHML_DCHECK(u >= 0.0 && u < 1.0);
  // u lies in [j/K, (j+1)/K), so its answer lies in [guide_[j],
  // guide_[j+1]]: no entry before the first one >= j/K can be >= u, and
  // the first one >= (j+1)/K already is. Bisect only that span.
  const uint64_t j = static_cast<uint64_t>(u * cuts_);
  uint64_t lo = guide_[j], hi = guide_[j + 1];
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool ZipfSampler::CanSample(uint64_t rank) const {
  SKETCHML_CHECK_LT(rank, n_);
  if (rank == 0) return true;  // u = 0 maps to rank 0.
  // NextDouble returns m * 2^-53 for m in [0, 2^53). `rank` is drawn iff
  // such a u exists with cdf_[rank-1] < u <= cdf_[rank] (no upper bound
  // for the last rank); test the largest candidate.
  constexpr double kGrid = 0x1.0p53;
  const double top_m =
      rank + 1 == n_ ? kGrid - 1
                     : std::min(std::floor(cdf_[rank] * kGrid), kGrid - 1);
  return top_m / kGrid > cdf_[rank - 1];
}

}  // namespace sketchml::common

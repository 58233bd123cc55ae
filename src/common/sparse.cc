#include "common/sparse.h"

#include <bit>

#include "common/logging.h"

namespace sketchml::common {

void SumByKey(uint64_t lo, uint64_t span, SparseGradient* pairs) {
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr uint64_t kDigitMask = kBuckets - 1;
  SparseGradient& in = *pairs;
  const size_t n = in.size();
  const int bits = span > 1 ? std::bit_width(span - 1) : 0;
  const int passes = (bits + kDigitBits - 1) / kDigitBits;
  if (passes > 0 && n > 1) {
    // One read fills every pass's digit histogram.
    std::vector<size_t> counts(static_cast<size_t>(passes) * kBuckets, 0);
    for (const GradientPair& pair : in) {
      SKETCHML_DCHECK(pair.key - lo < span)
          << "key " << pair.key << " outside [" << lo << ", " << lo + span
          << ")";
      const uint64_t offset = pair.key - lo;
      for (int p = 0; p < passes; ++p) {
        ++counts[p * kBuckets + ((offset >> (p * kDigitBits)) & kDigitMask)];
      }
    }
    SparseGradient scratch(n);
    for (int p = 0; p < passes; ++p) {
      size_t* count = counts.data() + p * kBuckets;
      const int shift = p * kDigitBits;
      // A digit every key shares leaves the order as it is.
      if (count[((in[0].key - lo) >> shift) & kDigitMask] == n) continue;
      size_t start = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        const size_t c = count[b];
        count[b] = start;
        start += c;
      }
      for (const GradientPair& pair : in) {
        scratch[count[((pair.key - lo) >> shift) & kDigitMask]++] = pair;
      }
      in.swap(scratch);
    }
  }
  size_t out = 0;
  for (size_t i = 0; i < n;) {
    const uint64_t key = in[i].key;
    double sum = 0.0;
    for (; i < n && in[i].key == key; ++i) sum += in[i].value;
    in[out++] = {key, sum};
  }
  in.resize(out);
}

}  // namespace sketchml::common

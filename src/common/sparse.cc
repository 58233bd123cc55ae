#include "common/sparse.h"

#include <bit>

#include "common/logging.h"

namespace sketchml::common {
namespace {

/// Stable merge of the key-ascending ranges [a, a_end) and [b, b_end)
/// into `out`. Returns false if the two ranges share a key: with both
/// strictly ascending, equal keys always meet as the two heads.
bool MergeTwoRuns(const GradientPair* a, const GradientPair* a_end,
                  const GradientPair* b, const GradientPair* b_end,
                  GradientPair* out) {
  bool shared = false;
  while (a != a_end && b != b_end) {
    const bool take_b = b->key < a->key;
    shared |= b->key == a->key;
    *out++ = *(take_b ? b : a);
    a += !take_b;
    b += take_b;
  }
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
  return !shared;
}

}  // namespace

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

Status MergeRuns(SortedRuns* runs, SparseGradient* out) {
  SparseGradient& pairs = runs->pairs;
  std::vector<size_t>& ends = runs->ends;
  const size_t n = pairs.size();
  SKETCHML_DCHECK(ends.empty() ? n == 0 : ends.back() == n)
      << "pairs after the last closed run";
  // Check every run and drop the empty ones (a group with no keys).
  size_t kept = 0;
  size_t begin = 0;
  for (size_t r = 0; r < ends.size(); ++r) {
    const size_t end = ends[r];
    if (end == begin) continue;
    for (size_t i = begin + 1; i < end; ++i) {
      if (pairs[i].key <= pairs[i - 1].key) {
        return Status::CorruptedData("decoded run not strictly ascending");
      }
    }
    ends[kept++] = end;
    begin = end;
  }
  ends.resize(kept);

  out->resize(n);
  GradientPair* src = pairs.data();
  GradientPair* dst = out->data();
  while (ends.size() > 1) {
    size_t start = 0;
    size_t merged = 0;
    for (size_t r = 0; r < ends.size(); r += 2) {
      const size_t mid = ends[r];
      const size_t end = r + 1 < ends.size() ? ends[r + 1] : mid;
      if (!MergeTwoRuns(src + start, src + mid, src + mid, src + end,
                        dst + start)) {
        return Status::CorruptedData("duplicate decoded key");
      }
      ends[merged++] = end;
      start = end;
    }
    ends.resize(merged);
    std::swap(src, dst);
  }
  // An even number of passes (none, for a single run) ends in `pairs`.
  if (src != out->data()) std::copy(src, src + n, out->data());
  return Status::Ok();
}

}  // namespace sketchml::common

#ifndef SKETCHML_COMMON_SPARSE_H_
#define SKETCHML_COMMON_SPARSE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sketchml::common {

/// One nonzero element of a sparse gradient: dimension index and value.
/// This is the `(k_j, v_j)` pair of the paper's data model (§2.2).
struct GradientPair {
  uint64_t key = 0;
  double value = 0.0;

  friend bool operator==(const GradientPair& a, const GradientPair& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// A sparse gradient vector: nonzero entries sorted by ascending key.
/// Codecs require (and preserve) the sort order; `SortByKey` restores it.
using SparseGradient = std::vector<GradientPair>;

/// Sorts `grad` by ascending key.
inline void SortByKey(SparseGradient* grad) {
  std::sort(grad->begin(), grad->end(),
            [](const GradientPair& a, const GradientPair& b) {
              return a.key < b.key;
            });
}

/// Sums the values of equal keys: the sparse-gradient reduction that
/// worker gradients and server aggregation both perform.
///
/// `pairs` holds pairs in contribution order, every key in
/// `[lo, lo + span)`. On return it holds one pair per distinct key in
/// ascending key order. Each sum starts at +0.0 and adds that key's values
/// in input order, exactly as `map[key] += value` does, so every result is
/// bit-identical to a hash-map accumulation followed by `SortByKey`
/// (a lone -0.0 comes out as +0.0; NaN and infinities propagate).
///
/// A stable LSD radix sort on `key - lo` with 11-bit digits takes
/// ceil(bit_width(span - 1) / 11) passes; memory is linear in the number
/// of pairs, independent of `span`.
void SumByKey(uint64_t lo, uint64_t span, SparseGradient* pairs);

/// Key-ascending runs laid back to back: what a decoder produces, one run
/// per key block, before they are merged. Owned by the decoder and reused
/// across messages.
struct SortedRuns {
  SparseGradient pairs;
  std::vector<size_t> ends;  // ends[i] = one past run i's last pair.

  void Clear() {
    pairs.clear();
    ends.clear();
  }
  /// Closes the run made of the pairs appended since the previous call.
  void EndRun() { ends.push_back(pairs.size()); }
};

/// Merges `runs` into `out`, ascending by key: the same result as
/// concatenating the runs and calling `SortByKey`, for runs that pass the
/// checks below. Every pair of `runs->pairs` must lie in a closed run.
///
/// Bottom-up: each pass merges neighbouring runs pairwise (a branchless
/// stable merge), ping-ponging between `runs->pairs` and `out`, so R runs
/// take ceil(log2 R) linear passes and no allocation beyond sizing `out`.
/// `runs` is scratch: its contents are unspecified afterwards.
///
/// Returns CorruptedData if a run is not strictly ascending by key, or
/// if two runs share a key ("duplicate decoded key"): an encoder emits
/// each key once, so either means the bytes were not an encoder's. On
/// error `out` is unspecified.
Status MergeRuns(SortedRuns* runs, SparseGradient* out);

/// True if keys are strictly increasing (the codec precondition).
inline bool IsSortedByKey(const SparseGradient& grad) {
  for (size_t i = 1; i < grad.size(); ++i) {
    if (grad[i - 1].key >= grad[i].key) return false;
  }
  return true;
}

/// Extracts just the values.
inline std::vector<double> Values(const SparseGradient& grad) {
  std::vector<double> out;
  out.reserve(grad.size());
  for (const auto& p : grad) out.push_back(p.value);
  return out;
}

/// Extracts just the keys.
inline std::vector<uint64_t> Keys(const SparseGradient& grad) {
  std::vector<uint64_t> out;
  out.reserve(grad.size());
  for (const auto& p : grad) out.push_back(p.key);
  return out;
}

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_SPARSE_H_

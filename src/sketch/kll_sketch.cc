#include "sketch/kll_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/obs.h"

namespace sketchml::sketch {

namespace {
// Per-level capacity decay; 2/3 is the published KLL constant.
constexpr double kLevelDecay = 2.0 / 3.0;
constexpr size_t kMinLevelCapacity = 8;

void CountUpdates(size_t n) {
  static const obs::Counter updates =
      obs::MetricsRegistry::Global().GetCounter("sketch/kll/updates");
  updates.Add(static_cast<double>(n));
}

/// Stable merge of the ascending ranges [a, a_end) and [b, b_end) into
/// `out`; ties take from `a`. The select is written without a branch on
/// the comparison, which a merge of random data would mispredict half
/// the time.
void MergeAscending(const double* a, const double* a_end, const double* b,
                    const double* b_end, double* out) {
  while (a != a_end && b != b_end) {
    const bool take_b = *b < *a;
    *out++ = take_b ? *b : *a;
    a += !take_b;
    b += take_b;
  }
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
}
}  // namespace

KllSketch::KllSketch(int k, uint64_t seed) : k_(k), rng_(seed) {
  SKETCHML_CHECK_GE(k, 8);
  levels_.emplace_back();
  RefreshCapacities();
  levels_[0].reserve(LevelCapacity(0));
}

void KllSketch::RefreshCapacities() {
  // The highest levels get capacity k; deeper (younger) levels decay
  // geometrically. Level 0 is youngest, so decay by the distance from the
  // top level.
  capacities_.resize(levels_.size());
  for (size_t level = 0; level < levels_.size(); ++level) {
    const int depth = static_cast<int>(levels_.size()) - 1 -
                      static_cast<int>(level);
    const double cap = static_cast<double>(k_) * std::pow(kLevelDecay, depth);
    capacities_[level] =
        std::max<size_t>(kMinLevelCapacity, static_cast<size_t>(cap));
  }
}

void KllSketch::Update(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  if (instrumented_ && obs::MetricsEnabled()) CountUpdates(1);
  levels_[0].push_back(value);
  if (levels_[0].size() >= LevelCapacity(0)) CompactFullLevels(0);
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::UpdateAll(const std::vector<double>& values) {
  if (values.empty()) return;
  if (count_ == 0) min_ = max_ = values[0];
  for (double v : values) {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += values.size();
  if (instrumented_ && obs::MetricsEnabled()) CountUpdates(values.size());
  const double* next = values.data();
  const double* const end = next + values.size();
  while (next != end) {
    // Fill level 0 exactly up to the item at which Update would compact.
    // (A level 0 already at capacity, as Deserialize can leave it, takes
    // one item and compacts, as Update does.) Compaction can add a level
    // and so move every level vector: take the reference afresh.
    std::vector<double>& level0 = levels_[0];
    const size_t capacity = LevelCapacity(0);
    const size_t room =
        level0.size() < capacity ? capacity - level0.size() : 1;
    const size_t take = std::min(room, static_cast<size_t>(end - next));
    level0.insert(level0.end(), next, next + take);
    next += take;
    if (level0.size() >= capacity) CompactFullLevels(0);
  }
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::CompactFullLevels(int level) {
  // Re-reads the level count: a compaction at the top adds a level.
  for (; level < static_cast<int>(levels_.size()); ++level) {
    if (levels_[level].size() >= LevelCapacity(level)) Compact(level);
  }
}

bool KllSketch::InvariantsHold() const {
  uint64_t weight = 0;
  for (size_t level = 0; level < levels_.size(); ++level) {
    weight += static_cast<uint64_t>(levels_[level].size()) << level;
  }
  if (weight != count_) return false;  // Compaction lost or forged items.
  return count_ == 0 || min_ <= max_;
}

void KllSketch::Compact(int level) {
  if (levels_[level].size() < 2) return;
  if (instrumented_ && obs::MetricsEnabled()) {
    static const obs::Counter compactions =
        obs::MetricsRegistry::Global().GetCounter("sketch/kll/compactions");
    compactions.Increment();
  }
  // Grow the level list *before* taking references: emplace_back can
  // reallocate and would otherwise dangle them.
  if (level + 1 >= static_cast<int>(levels_.size())) {
    levels_.emplace_back();
    RefreshCapacities();
  }
  auto& buf = levels_[level];
  auto& next = levels_[level + 1];
  // Level 0 fills in stream order; above it a level holds a few sorted
  // runs.
  if (level == 0) {
    std::sort(buf.begin(), buf.end());
  } else {
    SortByRuns(&buf);
  }
  // Random phase: keep either the even- or odd-indexed half. This is the
  // coin NextBounded(2) draws (2 divides 2^64, so it rejects no draw and
  // returns the low bit) without its two 64-bit divisions.
  const size_t phase = rng_.NextUint64() & 1;
  // If the buffer has odd size, one item stays behind at this level so
  // total weight is conserved. Shrink in place rather than swapping in a
  // fresh vector: this runs every few inserts at level 0, and keeping the
  // buffer's capacity keeps the hot path allocation-free.
  size_t n = buf.size();
  const bool odd = (n % 2 == 1);
  if (odd) --n;
  for (size_t i = phase; i < n; i += 2) {
    next.push_back(buf[i]);
  }
  if (odd) buf[0] = buf[n];
  buf.resize(odd ? 1 : 0);
}

void KllSketch::SortByRuns(std::vector<double>* buf) {
  const std::vector<double>& items = *buf;
  const size_t n = items.size();
  run_ends_.clear();
  bool unordered = false;  // Holds a zero or a NaN.
  for (size_t i = 0; i < n; ++i) {
    unordered |= !(items[i] < 0.0 || items[i] > 0.0);
    if (i > 0 && items[i] < items[i - 1]) run_ends_.push_back(i);
  }
  if (unordered) {
    // `<` cannot order +0.0 against -0.0, nor anything against NaN, and
    // std::sort leaves such items in an order of its own. Sort the level
    // as the level-0 path does, so the retained bytes stay the same.
    std::sort(buf->begin(), buf->end());
    return;
  }
  if (run_ends_.empty()) return;  // One run: already sorted.
  run_ends_.push_back(n);
  // Bottom-up: each pass merges neighbouring runs pairwise, ping-ponging
  // between the level and the scratch buffer.
  merge_scratch_.resize(n);
  double* src = buf->data();
  double* dst = merge_scratch_.data();
  while (run_ends_.size() > 1) {
    size_t begin = 0;
    size_t merged = 0;
    for (size_t r = 0; r < run_ends_.size(); r += 2) {
      const size_t mid = run_ends_[r];
      const size_t end = r + 1 < run_ends_.size() ? run_ends_[r + 1] : mid;
      MergeAscending(src + begin, src + mid, src + mid, src + end,
                     dst + begin);
      run_ends_[merged++] = end;
      begin = end;
    }
    run_ends_.resize(merged);
    std::swap(src, dst);
  }
  if (src != buf->data()) buf->swap(merge_scratch_);
  merge_scratch_.clear();  // Keep the capacity; copies stay cheap.
}

std::vector<std::pair<double, uint64_t>> KllSketch::SortedItems() const {
  std::vector<std::pair<double, uint64_t>> items;
  items.reserve(NumRetained());
  for (size_t level = 0; level < levels_.size(); ++level) {
    const uint64_t weight = 1ULL << level;
    for (double v : levels_[level]) items.emplace_back(v, weight);
  }
  std::sort(items.begin(), items.end());
  return items;
}

double KllSketch::Quantile(double q) const {
  SKETCHML_CHECK_GT(count_, 0u);
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  const auto items = SortedItems();
  uint64_t total_weight = 0;
  for (const auto& [v, w] : items) total_weight += w;
  const double target = q * static_cast<double>(total_weight);
  uint64_t cumulative = 0;
  for (const auto& [v, w] : items) {
    cumulative += w;
    if (static_cast<double>(cumulative) >= target) return v;
  }
  return max_;
}

std::vector<double> KllSketch::EqualDepthSplits(int num_splits) const {
  SKETCHML_CHECK_GT(num_splits, 0);
  SKETCHML_CHECK_GT(count_, 0u);
  // One gather-and-sort answers every rank; each split is then a binary
  // search over the prefix weights. Must stay bit-identical to the base
  // class (Quantile per split): Quantile(q) returns the first item whose
  // cumulative weight reaches q * total, which is exactly the
  // lower_bound below, and the interior q values are in (0, 1) so the
  // min/max shortcuts never fire.
  const auto items = SortedItems();
  std::vector<double> cumulative;
  cumulative.reserve(items.size());
  uint64_t running = 0;
  for (const auto& [v, w] : items) {
    running += w;
    cumulative.push_back(static_cast<double>(running));
  }
  const double total_weight = cumulative.empty() ? 0.0 : cumulative.back();

  std::vector<double> splits;
  splits.reserve(num_splits + 1);
  splits.push_back(Min());
  for (int i = 1; i < num_splits; ++i) {
    const double q = static_cast<double>(i) / num_splits;
    const double target = q * total_weight;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), target);
    double v = it == cumulative.end()
                   ? max_
                   : items[static_cast<size_t>(it - cumulative.begin())].first;
    // Quantile estimates can jitter below the running maximum of previous
    // splits; enforce monotonicity so bucket thresholds are well ordered.
    if (v < splits.back()) v = splits.back();
    splits.push_back(v);
  }
  double hi = Max();
  if (hi < splits.back()) hi = splits.back();
  splits.push_back(hi);
  return splits;
}

double KllSketch::Rank(double value) const {
  SKETCHML_CHECK_GT(count_, 0u);
  const auto items = SortedItems();
  uint64_t total_weight = 0;
  uint64_t below = 0;
  for (const auto& [v, w] : items) {
    total_weight += w;
    if (v <= value) below += w;
  }
  return static_cast<double>(below) / static_cast<double>(total_weight);
}

double KllSketch::Min() const {
  SKETCHML_CHECK_GT(count_, 0u);
  return min_;
}

double KllSketch::Max() const {
  SKETCHML_CHECK_GT(count_, 0u);
  return max_;
}

void KllSketch::Merge(const KllSketch& other) {
  if (other.count_ == 0) return;
  const bool instrumented = instrumented_ && obs::MetricsEnabled();
  const uint64_t start_ns = instrumented ? obs::NowNs() : 0;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    RefreshCapacities();
  }
  for (size_t level = 0; level < other.levels_.size(); ++level) {
    auto& dst = levels_[level];
    const auto& src = other.levels_[level];
    dst.insert(dst.end(), src.begin(), src.end());
  }
  CompactFullLevels(0);  // Restore capacity invariants.
  if (instrumented) {
    auto& registry = obs::MetricsRegistry::Global();
    static const obs::Counter merges = registry.GetCounter("sketch/kll/merges");
    static const obs::Histogram merge_ns =
        registry.GetHistogram("sketch/kll/merge_ns");
    merges.Increment();
    merge_ns.Record(static_cast<double>(obs::NowNs() - start_ns));
  }
  SKETCHML_DCHECK(InvariantsHold());
}

size_t KllSketch::NumRetained() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

void KllSketch::UpdateWeighted(double value, uint64_t weight) {
  SKETCHML_CHECK_GT(weight, 0u);
  SKETCHML_CHECK_EQ(weight & (weight - 1), 0u);  // Power of two.
  const int target = std::countr_zero(weight);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  if (target >= static_cast<int>(levels_.size())) {
    levels_.resize(target + 1);
    RefreshCapacities();
  }
  levels_[target].push_back(value);
  if (levels_[target].size() >= LevelCapacity(target)) {
    CompactFullLevels(target);
  }
  SKETCHML_DCHECK(InvariantsHold());
}

namespace {
constexpr uint8_t kKllWireVersion = 1;
}  // namespace

size_t KllSketch::SerializedSize() const {
  size_t size = 1 + 4 + 8 + 8 + 8;  // version, k, count, min, max.
  size += common::ByteWriter::VarintSize(levels_.size());
  for (const auto& level : levels_) {
    size += common::ByteWriter::VarintSize(level.size());
    size += level.size() * sizeof(double);
  }
  return size;
}

void KllSketch::Serialize(common::ByteWriter* writer) const {
  writer->WriteU8(kKllWireVersion);
  writer->WriteU32(static_cast<uint32_t>(k_));
  writer->WriteU64(count_);
  writer->WriteDouble(min_);
  writer->WriteDouble(max_);
  writer->WriteVarint(levels_.size());
  for (const auto& level : levels_) {
    writer->WriteVarint(level.size());
    for (double v : level) writer->WriteDouble(v);
  }
}

common::Status KllSketch::Deserialize(common::ByteReader* reader,
                                      KllSketch* out, uint64_t seed) {
  uint8_t version = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadU8(&version));
  if (version != kKllWireVersion) {
    return common::Status::CorruptedData("unknown KLL wire version");
  }
  uint32_t k = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadU32(&k));
  SKETCHML_RETURN_IF_ERROR(reader->ReadU64(&count));
  SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&min));
  SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&max));
  if (k < 8) return common::Status::CorruptedData("KLL k below minimum");
  uint64_t num_levels = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&num_levels));
  if (num_levels == 0 || num_levels > 64) {
    return common::Status::CorruptedData("KLL level count out of range");
  }
  KllSketch sketch(static_cast<int>(k), seed);
  sketch.levels_.resize(num_levels);
  uint64_t weight = 0;
  for (uint64_t level = 0; level < num_levels; ++level) {
    uint64_t n = 0;
    SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&n));
    if (n > count) return common::Status::CorruptedData("KLL level too large");
    auto& buf = sketch.levels_[level];
    buf.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&buf[i]));
    }
    weight += n << level;
  }
  if (weight != count) {
    return common::Status::CorruptedData("KLL weight/count mismatch");
  }
  sketch.count_ = count;
  sketch.min_ = min;
  sketch.max_ = max;
  sketch.RefreshCapacities();
  if (!sketch.InvariantsHold()) {
    return common::Status::CorruptedData("KLL invariants violated");
  }
  *out = std::move(sketch);
  return common::Status::Ok();
}

void KllSketch::ExpandRange(double lo, double hi) {
  SKETCHML_CHECK_GT(count_, 0u);
  SKETCHML_CHECK_LE(lo, hi);
  min_ = std::min(min_, lo);
  max_ = std::max(max_, hi);
}

double KllSketch::NormalizedRankError(int k) {
  return 2.296 / std::pow(static_cast<double>(k), 0.9);
}

}  // namespace sketchml::sketch

// Host-speed calibration: times fixed work covering the program's kinds
// of operation and prints its duration in seconds on one line.
// perfbench/run.py launches this process right before each trial and
// scales every time the trial measured by a reference duration over this
// one; see "Host-speed calibration" in perfbench/README.md.
//
//   perfbench_calibrate
//
// It runs in a process of its own and links none of the repository's
// code, so no change to the program, its allocations or its heap state
// can alter the time it reports; only the host's current speed and this
// file's compile flags can.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <vector>

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Returns the sum of three medians of 5 repetitions each: integer and
/// floating-point arithmetic; random reads from a table larger than the
/// caches (the sparse dot products); and node-based set and hash-map
/// inserts plus a sort (the synthesis and the aggregation). On the host
/// this was written on, arithmetic alone slowed less than the program
/// when the host slowed, and the containers more.
double CalibrationSeconds() {
  constexpr int kReps = 5;
  uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double acc = 0.0;
  std::vector<double> arithmetic_s;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < (1 << 22); ++i) {
      acc = acc * 0.999999 + static_cast<double>(next() >> 40);
    }
    arithmetic_s.push_back(SecondsSince(start));
  }
  constexpr size_t kTable = size_t{1} << 21;  // 16 MiB of doubles.
  const std::vector<double> table(kTable, 1.0);
  std::vector<double> gather_s;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < (1 << 22); ++i) {
      acc = acc * 0.999999 + table[next() & (kTable - 1)];
    }
    gather_s.push_back(SecondsSince(start));
  }
  size_t sizes = 0;
  std::vector<double> containers_s;
  for (int rep = 0; rep < kReps; ++rep) {
    std::set<uint32_t> set;
    std::unordered_map<uint64_t, double> map;
    std::vector<uint64_t> keys;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 40000; ++i) {
      const uint64_t r = next();
      set.insert(static_cast<uint32_t>(r % 200000));
      map[r % 50000] += 1.0;
      keys.push_back(r);
    }
    std::sort(keys.begin(), keys.end());
    containers_s.push_back(SecondsSince(start));
    sizes += set.size() + map.size() + (keys[0] & 1);
  }
  if (!(acc > 0.0) || sizes == 0) std::abort();  // Uses the results.
  return Median(arithmetic_s) + Median(gather_s) + Median(containers_s);
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: perfbench_calibrate\n");
    return 2;
  }
  std::printf("%.17g\n", CalibrationSeconds());
  return 0;
}

#ifndef DOCS_PERFBENCH_BENCH_MATH_H_
#define DOCS_PERFBENCH_BENCH_MATH_H_

// The benchmark driver's arithmetic, kept free of any system code so
// tests/bench_math_test.cc can pin it: percentiles, open-loop due-time
// latency, and span self time.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile, p in [0, 1]: rank p * (n - 1) between
/// the two nearest order statistics. 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Open-loop latency of a call, in microseconds: from the moment its
/// session was due, not from when the client got round to sending it, so a
/// stall also charges the requests queued behind it. Clamped at 0 for a
/// completion stamped before the due time (clock granularity).
inline double DueLatencyUs(int64_t due_ns, int64_t done_ns) {
  return done_ns > due_ns ? static_cast<double>(done_ns - due_ns) / 1e3 : 0.0;
}

/// One traced interval. `parent` is the id of the span that caused it, 0 for
/// a root; spans of one session share `session`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t session = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span, parallel to `spans`: its duration minus the part
/// of its interval that its children cover. Children are clipped to the
/// parent and overlapping children count once (the union of their
/// intervals), so self time is never negative.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns -
                                       covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // DOCS_PERFBENCH_BENCH_MATH_H_

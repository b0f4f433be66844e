// Pins the benchmark driver's arithmetic: percentiles, open-loop due-time
// latency, and span self time.

#include "bench_math.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> samples = {40, 10, 30, 20};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 25.0);  // rank 1.5
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.9), 37.0);  // rank 2.7
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, ClampsOutOfRangeRanks) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 1.5), 3.0);
}

TEST(DueLatencyTest, ChargesTheWaitBehindAStall) {
  // Due at t = 1 ms; the generator was stalled until 4 ms, the call took
  // 0.5 ms: the open-loop latency is 3.5 ms.
  EXPECT_DOUBLE_EQ(DueLatencyUs(1'000'000, 4'500'000), 3500.0);
  // On time: latency is the call itself.
  EXPECT_DOUBLE_EQ(DueLatencyUs(1'000'000, 1'250'000), 250.0);
  // A stamp before the due time never goes negative.
  EXPECT_DOUBLE_EQ(DueLatencyUs(1'000'000, 999'000), 0.0);
}

TEST(SelfTimeTest, SubtractsChildren) {
  // session [0, 100) with request [10, 30) and submit [40, 45).
  const std::vector<Span> spans = {
      {1, 0, 7, "session", 0, 100},
      {2, 1, 7, "request", 10, 30},
      {3, 1, 7, "submit", 40, 45},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_EQ(self[0], 75);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 5);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100},
      {2, 1, 1, "a", 10, 50},
      {3, 1, 1, "b", 30, 60},  // overlaps a by 20
      {4, 1, 1, "c", 60, 70},  // touches b
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 40);  // 100 - |[10, 70)|
}

TEST(SelfTimeTest, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {
      {5, 0, 1, "parent", 100, 200},
      {6, 5, 1, "early", 50, 120},   // only [100, 120) counts
      {7, 5, 1, "late", 190, 400},   // only [190, 200) counts
      {8, 99, 1, "orphan", 0, 1000},  // unknown parent: a root
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[3], 1000);
}

TEST(SelfTimeTest, NestedLevelsSubtractOnlyDirectChildren) {
  const std::vector<Span> spans = {
      {1, 0, 1, "session", 0, 100},
      {2, 1, 1, "request", 0, 60},
      {3, 2, 1, "facade", 10, 50},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

}  // namespace
}  // namespace perfbench

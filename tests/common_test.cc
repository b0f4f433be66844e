#include <gtest/gtest.h>

#include <errno.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/math_utils.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_utils.h"
#include "common/table_printer.h"

namespace docs {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, OkStatusDropsMessage) {
  Status status(StatusCode::kOk, "ignored");
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(NotFoundError("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusBecomesInternalError) {
  StatusOr<int> result(/*status=*/OkStatus());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.UniformIntRange(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[1]), 3.0, 0.3);
}

TEST(RngTest, SampleDiscreteZeroWeightsUniform) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[rng.SampleDiscrete(weights)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(31);
  auto v = rng.Dirichlet(8, 0.5);
  EXPECT_TRUE(IsDistribution(v, 1e-9));
}

TEST(RngTest, BetaInUnitInterval) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    double v = rng.Beta(2.0, 5.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  auto copy = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

// --- math_utils ----------------------------------------------------------------

TEST(MathTest, EntropyUniformIsLogN) {
  std::vector<double> p = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(Entropy(p), std::log(4.0), 1e-12);
}

TEST(MathTest, EntropyDegenerateIsZero) {
  std::vector<double> p = {1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(Entropy(p), 0.0);
}

TEST(MathTest, KlOfIdenticalIsZero) {
  std::vector<double> p = {0.3, 0.7};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
}

TEST(MathTest, KlNonNegative) {
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    auto p = rng.Dirichlet(5, 1.0);
    auto q = rng.Dirichlet(5, 1.0);
    EXPECT_GE(KlDivergence(p, q), -1e-12);
  }
}

TEST(MathTest, KlInfiniteOnZeroSupport) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {1.0, 0.0};
  EXPECT_TRUE(std::isinf(KlDivergence(p, q)));
}

TEST(MathTest, NormalizeInPlace) {
  std::vector<double> v = {1.0, 3.0};
  double sum = NormalizeInPlace(v);
  EXPECT_DOUBLE_EQ(sum, 4.0);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(MathTest, NormalizeZeroVectorBecomesUniform) {
  std::vector<double> v = {0.0, 0.0, 0.0, 0.0};
  NormalizeInPlace(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(MathTest, ArgMaxFirstOnTies) {
  std::vector<double> v = {0.2, 0.5, 0.5};
  EXPECT_EQ(ArgMax(v), 1u);
}

TEST(MathTest, LogSumExpStable) {
  std::vector<double> x = {-1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(x), -1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, LogSumExpMatchesNaive) {
  std::vector<double> x = {0.1, 0.7, -0.5};
  double naive = std::log(std::exp(0.1) + std::exp(0.7) + std::exp(-0.5));
  EXPECT_NEAR(LogSumExp(x), naive, 1e-12);
}

TEST(MathTest, IsDistribution) {
  EXPECT_TRUE(IsDistribution({0.5, 0.5}));
  EXPECT_FALSE(IsDistribution({0.5, 0.6}));
  EXPECT_FALSE(IsDistribution({1.5, -0.5}));
}

// --- Matrix --------------------------------------------------------------------

TEST(MatrixArenaTest, BlocksAreTaskMajorAndLargeBuffersHugePageAligned) {
  // Blocks follow each other with no gap, and views read what was written.
  MatrixArena arena;
  arena.Reserve(3, 2 * 2 + 2 * 3 + 1 * 5);
  arena.Append(2, 2, 0.5);
  arena.Append(2, 3);
  arena.Append(1, 5, -1.0);
  ASSERT_EQ(arena.size(), 3u);
  arena.block(1)[4] = 7.0;  // row 1, column 1
  EXPECT_EQ(arena[1](1, 1), 7.0);
  EXPECT_EQ(arena[0].data().data() + 4, arena[1].data().data());
  EXPECT_EQ(arena[1].data().data() + 6, arena[2].data().data());
  EXPECT_EQ(arena[2].rows(), 1u);
  EXPECT_EQ(arena[2].cols(), 5u);
  EXPECT_EQ(Matrix(arena[0]).data(), std::vector<double>(4, 0.5));
  // A buffer of at least half a huge page starts on a 2 MiB boundary; a
  // small one comes from operator new.
  std::vector<double, HugePageAllocator<double>> large((size_t{1} << 20) / 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(large.data()) % (size_t{2} << 20), 0u);
  std::vector<double, HugePageAllocator<double>> small(16, 1.0);
  EXPECT_EQ(small.back(), 1.0);
}

TEST(MatrixTest, FillAndAccess) {
  Matrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 0.9;
  EXPECT_DOUBLE_EQ(m(1, 2), 0.9);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m(2, 2);
  m.SetRow(1, {0.3, 0.7});
  EXPECT_EQ(m.Row(1), (std::vector<double>{0.3, 0.7}));
}

TEST(MatrixTest, NormalizeRows) {
  Matrix m(2, 2);
  m.SetRow(0, {2.0, 2.0});
  m.SetRow(1, {0.0, 0.0});  // degenerate row becomes uniform
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
}

TEST(MatrixTest, LeftMultiplyMatchesManual) {
  Matrix m(2, 3);
  m.SetRow(0, {1.0, 2.0, 3.0});
  m.SetRow(1, {4.0, 5.0, 6.0});
  auto out = m.LeftMultiply({0.5, 0.5});
  EXPECT_NEAR(out[0], 2.5, 1e-12);
  EXPECT_NEAR(out[1], 3.5, 1e-12);
  EXPECT_NEAR(out[2], 4.5, 1e-12);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a(1, 2, 0.0), b(1, 2, 0.0);
  b(0, 1) = 0.25;
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.25);
}

// --- string utils ----------------------------------------------------------------

TEST(StringTest, ToLower) { EXPECT_EQ(ToLower("AbC dE"), "abc de"); }

TEST(StringTest, SplitDropsEmpty) {
  EXPECT_EQ(Split("a,,b,", ","), (std::vector<std::string>{"a", "b"}));
}

TEST(StringTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y \t"), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("Does Michael Jordan win? NBA-titles!"),
            (std::vector<std::string>{"does", "michael", "jordan", "win",
                                      "nba", "titles"}));
}

TEST(StringTest, TokenizeKeepsDigits) {
  EXPECT_EQ(TokenizeWords("K2 and 911"),
            (std::vector<std::string>{"k2", "and", "911"}));
}

TEST(StringTest, ForEachWordIsTheTokenizersScanner) {
  std::vector<std::string> words;
  ForEachWord("  SHAQUILLE O'Neal,caf\xc3\xa9\x80K2!",
              [&](std::string_view word) { words.emplace_back(word); });
  EXPECT_EQ(words, (std::vector<std::string>{"shaquille", "o", "neal", "caf",
                                             "k2"}));
  EXPECT_EQ(TokenizeWords("  SHAQUILLE O'Neal,caf\xc3\xa9\x80K2!"), words);
  size_t calls = 0;
  ForEachWord("", [&](std::string_view) { ++calls; });
  ForEachWord(" ?! ", [&](std::string_view) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(StringTest, ErrnoStringMatchesStrerror) {
  // Same text as the libc rendering for real errnos, but from an owned
  // buffer (std::strerror returns static storage — concurrency-mt-unsafe —
  // which is why every multi-threaded error-format site uses this instead).
  for (int errnum : {EINVAL, ENOENT, EAGAIN, 0}) {
    EXPECT_EQ(ErrnoString(errnum), std::strerror(errnum));
  }
  // Bogus errno values still produce a non-empty, non-crashing description.
  EXPECT_FALSE(ErrnoString(-12345).empty());
}

TEST(StringTest, ErrnoStringIsThreadSafe) {
  // Concurrent calls with different errnos must not smear each other's text
  // (the failure mode of the shared strerror buffer). TSan runs in CI give
  // this real teeth; the value checks catch cross-thread smearing anywhere.
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &mismatch] {
      const int errnum = (t % 2 == 0) ? EINVAL : ENOENT;
      const std::string want = ErrnoString(errnum);
      for (int i = 0; i < 2000; ++i) {
        if (ErrnoString(errnum) != want) mismatch.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load());
}

// --- TablePrinter ---------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "2.5"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("| longer"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

// --- Contract regressions (math_utils) ---------------------------------------

TEST(MathTest, EntropyPropagatesNaN) {
  // Regression: `x > 0.0` is false for NaN, so a NaN probability used to be
  // silently skipped and the entropy came back looking healthy. A poisoned
  // distribution must poison the entropy so downstream benefit scores (and
  // the CheckFinite guards around them) can see it.
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(Entropy(std::vector<double>{0.5, nan, 0.25})));
  EXPECT_TRUE(std::isnan(Entropy(std::vector<double>{nan})));
  // Zeros are still fine (0 log 0 = 0 by convention).
  EXPECT_DOUBLE_EQ(Entropy(std::vector<double>{1.0, 0.0}), 0.0);
}

TEST(MathDeathTest, ArgMaxOfEmptyVectorDies) {
  EXPECT_DEATH(ArgMax({}), "ArgMax of an empty vector");
}

TEST(MathDeathTest, KlDivergenceMismatchedSupportsDies) {
  EXPECT_DEATH(KlDivergence({0.5, 0.5}, {1.0}), "mismatched supports");
}

TEST(MathDeathTest, L1DistanceMismatchedSupportsDies) {
  EXPECT_DEATH(L1Distance({0.5, 0.5}, {1.0}), "mismatched supports");
}

}  // namespace
}  // namespace docs

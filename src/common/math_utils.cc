#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace docs {

double KlDivergence(const std::vector<double>& p, const std::vector<double>& q) {
  DOCS_CHECK_EQ(p.size(), q.size()) << "KL divergence over mismatched supports";
  double d = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    if (q[i] <= 0.0) return std::numeric_limits<double>::infinity();
    d += p[i] * std::log(p[i] / q[i]);
  }
  return d;
}

size_t ArgMax(const std::vector<double>& v) {
  DOCS_CHECK(!v.empty()) << "ArgMax of an empty vector has no answer";
  return static_cast<size_t>(
      std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

double LogSumExp(const std::vector<double>& x) {
  if (x.empty()) return -std::numeric_limits<double>::infinity();
  double mx = *std::max_element(x.begin(), x.end());
  if (!std::isfinite(mx)) return mx;
  double acc = 0.0;
  for (double v : x) acc += std::exp(v - mx);
  return mx + std::log(acc);
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  DOCS_CHECK_EQ(a.size(), b.size()) << "L1 distance over mismatched supports";
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::vector<double> UniformDistribution(size_t n) {
  return std::vector<double>(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
}

bool IsDistribution(const std::vector<double>& v, double tol) {
  double total = 0.0;
  for (double x : v) {
    if (x < -tol || x > 1.0 + tol) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tol;
}

}  // namespace docs

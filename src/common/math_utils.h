#ifndef DOCS_COMMON_MATH_UTILS_H_
#define DOCS_COMMON_MATH_UTILS_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace docs {

// Entropy and NormalizeInPlace are inline: the OTA benefit kernel runs
// them on every posterior row of its per-task loop.

/// Shannon entropy of a distribution, H(p) = -sum p_j ln p_j, in nats.
/// Zero entries contribute 0 (lim x->0 of x ln x). A NaN entry propagates to
/// a NaN result rather than being silently skipped; other values are not
/// validated — callers pass normalized distributions.
inline double Entropy(std::span<const double> p) {
  double h = 0.0;
  for (double x : p) {
    // x > 0 is false for NaN too, so without this a poisoned distribution
    // would silently report a clean (and bogus) entropy.
    if (std::isnan(x)) return x;
    if (x > 0.0) h -= x * std::log(x);
  }
  return h;
}

/// Kullback-Leibler divergence D(p || q) = sum p_i ln(p_i / q_i), in nats.
/// Entries with p_i == 0 contribute 0; a positive p_i facing q_i == 0 yields
/// +infinity, matching the mathematical definition.
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q);

/// Normalizes `v` in place so its entries sum to 1. If the sum is <= 0 the
/// vector becomes uniform. Returns the pre-normalization sum.
inline double NormalizeInPlace(std::span<double> v) {
  double total = 0.0;
  for (double x : v) total += x;
  if (total <= 0.0) {
    const double u = v.empty() ? 0.0 : 1.0 / static_cast<double>(v.size());
    for (auto& x : v) x = u;
    return total;
  }
  for (auto& x : v) x /= total;
  return total;
}

/// Returns the index of the largest element (first one on ties). Requires a
/// non-empty vector.
size_t ArgMax(const std::vector<double>& v);

/// Returns log(sum(exp(x_i))) computed stably.
double LogSumExp(const std::vector<double>& x);

/// L1 distance sum |a_i - b_i|. Requires equal sizes.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

/// Returns sum of elements.
double Sum(const std::vector<double>& v);

/// Returns a uniform distribution of length n (n >= 1).
std::vector<double> UniformDistribution(size_t n);

/// True if `v` is a probability distribution within `tol`: entries in
/// [-tol, 1 + tol] and |sum - 1| <= tol.
bool IsDistribution(const std::vector<double>& v, double tol = 1e-9);

}  // namespace docs

#endif  // DOCS_COMMON_MATH_UTILS_H_

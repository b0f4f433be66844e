#include "core/task_assignment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_utils.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

constexpr double kNoBound = std::numeric_limits<double>::infinity();
// Smallest sum r q + (l-1) r w the closed form trusts. Each product that
// underflows is off by at most 2^-1075, so fewer than 2^32 of them move a
// total this large by under 2^-143 of itself, far inside the slack.
constexpr double kNoUnderflow = 0x1p-900;

// Eq. 8's expected posterior entropy H(ŝ_i) over the task's nonzero domain
// rows: `nnz` domain indices `domains` and their weights r_k `weights`. L is
// the choice count when it is known at compile time (2 or 3) and 0 for the
// generic path, which takes `l` at run time and a `buffer` of at least
// l * (l + 1) doubles.
//
// One pass over the support feeds every choice at once, but each per-choice
// quantity — pa[a] (Theorem 2) and posterior row a (Theorem 3 projected
// through r) — keeps its own accumulator, starts from 0.0 and receives the
// same terms in the same ascending-domain order as the per-choice loops of
// the spec kernel. Only independent accumulators interleave, so no sum is
// reassociated and the result is bit-identical. A posterior whose pa <= 0
// is computed and then dropped, exactly where the spec kernel skips it.
template <size_t L>
double ExpectedEntropyKernel(const uint32_t* domains, const double* weights,
                             size_t nnz,
                             const WorkerBenefitFactors::Domain* factors,
                             const double* matrix, size_t l, double* buffer) {
  const size_t n = L > 0 ? L : l;
  double fixed[L > 0 ? L * (L + 1) : 1];
  double* pa = L > 0 ? fixed : buffer;
  double* posterior = pa + n;  // row a: r x M^(i)|a
  for (size_t x = 0; x < n * (n + 1); ++x) pa[x] = 0.0;
  for (size_t e = 0; e < nnz; ++e) {
    const size_t k = domains[e];
    const WorkerBenefitFactors::Domain& f = factors[k];
    const double rk = weights[e];
    const double* row = matrix + k * n;
    for (size_t a = 0; a < n; ++a) {
      pa[a] += rk * (f.quality * row[a] + f.wrong_answer * (1.0 - row[a]));
    }
    for (size_t a = 0; a < n; ++a) {
      double* post = posterior + a * n;
      double denom = 0.0;
      for (size_t j = 0; j < n; ++j) {
        denom += row[j] * ((j == a) ? f.quality : f.wrong_update);
      }
      if (denom > 0.0) {
        for (size_t j = 0; j < n; ++j) {
          post[j] +=
              rk * ((row[j] * ((j == a) ? f.quality : f.wrong_update)) / denom);
        }
      } else {
        const double uniform = 1.0 / static_cast<double>(n);
        for (size_t j = 0; j < n; ++j) post[j] += rk * uniform;
      }
    }
  }
  double expected = 0.0;
  for (size_t a = 0; a < n; ++a) {
    if (pa[a] <= 0.0) continue;
    double* post = posterior + a * n;
    const std::span<double> row_a(post, n);
    NormalizeInPlace(row_a);
    expected += pa[a] * Entropy(row_a);
  }
  return expected;
}

// Dispatches on the choice count: the l = 2 and l = 3 specializations keep
// their accumulators in registers; any other l runs the generic loop over
// `*buffer`.
double ExpectedEntropyOnSupport(const uint32_t* domains,
                                const double* weights, size_t nnz,
                                const WorkerBenefitFactors::Domain* factors,
                                MatrixView truth_matrix, size_t l,
                                std::vector<double>* buffer) {
  DOCS_DCHECK_EQ(truth_matrix.cols(), l);
  const double* matrix = truth_matrix.data().data();
  switch (l) {
    case 2:
      return ExpectedEntropyKernel<2>(domains, weights, nnz, factors, matrix,
                                      l, nullptr);
    case 3:
      return ExpectedEntropyKernel<3>(domains, weights, nnz, factors, matrix,
                                      l, nullptr);
    default:
      buffer->resize(l * (l + 1));
      return ExpectedEntropyKernel<0>(domains, weights, nnz, factors, matrix,
                                      l, buffer->data());
  }
}

}  // namespace

BenefitSupport::BenefitSupport(const std::vector<Task>& tasks) {
  num_domains_ = tasks.empty() ? 0 : tasks.front().domain_vector.size();
  size_t nonzeros = 0;
  for (const Task& task : tasks) {
    DOCS_CHECK_EQ(task.domain_vector.size(), num_domains_)
        << "tasks of one campaign must share the domain count";
    for (double rk : task.domain_vector) nonzeros += rk != 0.0;
    choice_counts_.push_back(task.num_choices);
  }
  DOCS_CHECK_LT(nonzeros, size_t{0xffffffff});
  std::sort(choice_counts_.begin(), choice_counts_.end());
  choice_counts_.erase(std::unique(choice_counts_.begin(), choice_counts_.end()),
                       choice_counts_.end());
  // Exact sizes: the support lives as long as the campaign.
  domains_.reserve(nonzeros);
  weights_.reserve(nonzeros);
  row_begin_.reserve(tasks.size() + 1);
  choice_slot_.reserve(tasks.size());
  weight_sum_.reserve(tasks.size());
  bound_slack_.reserve(tasks.size());
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  for (const Task& task : tasks) {
    double sum = 0.0;
    bool positive = true;
    for (size_t k = 0; k < num_domains_; ++k) {
      const double rk = task.domain_vector[k];
      if (rk != 0.0) {
        domains_.push_back(static_cast<uint32_t>(k));
        weights_.push_back(rk);
        sum += rk;
        positive = positive && rk > 0.0;
      }
    }
    const size_t nnz = domains_.size() - row_begin_.back();
    row_begin_.push_back(static_cast<uint32_t>(domains_.size()));
    choice_slot_.push_back(static_cast<uint32_t>(
        std::lower_bound(choice_counts_.begin(), choice_counts_.end(),
                         task.num_choices) -
        choice_counts_.begin()));
    // The forward-error slack of DESIGN.md §16 "Lazy bound entries".
    const double l = static_cast<double>(task.num_choices);
    const double log_l = task.num_choices > 0 ? std::log(l) : 0.0;
    weight_sum_.push_back(sum);
    bound_slack_.push_back(
        positive ? 8.0 * (static_cast<double>(nnz) + l + 8.0) * kUnitRoundoff *
                       (sum * (log_l + 1.0) + log_l + 1.0)
                 : kNoBound);
  }
}

void WorkerBenefitFactors::Hoist(const std::vector<double>& worker_quality,
                                 double quality_clamp, size_t m,
                                 std::span<const size_t> choice_counts) {
  DOCS_CHECK_GE(worker_quality.size(), m);
  num_domains = m;
  table.resize(choice_counts.size() * m);
  for (size_t k = 0; k < m; ++k) {
    const double q = Clamp(worker_quality[k], quality_clamp);
    for (size_t s = 0; s < choice_counts.size(); ++s) {
      // Theorem 2's factor is 0 at l == 1 and Theorem 3's is 1 - q. For
      // l > 1 both are (1 - q) / (l - 1), and the reference kernel's
      // double(l) - 1.0 is exactly double(l - 1), so one division serves
      // both bit for bit.
      const size_t l = choice_counts[s];
      Domain& d = table[s * m + k];
      d.quality = q;
      d.wrong_answer = l > 1 ? (1.0 - q) / static_cast<double>(l - 1) : 0.0;
      d.wrong_update = l > 1 ? d.wrong_answer : 1.0 - q;
    }
  }
}

double TaskBenefit(const BenefitSupport& support, size_t i,
                   const WorkerBenefitFactors& factors, MatrixView truth_matrix,
                   double truth_entropy) {
  const size_t slot = support.choice_slot(i);
  DOCS_DCHECK_EQ(truth_matrix.rows(), support.num_domains());
  DOCS_DCHECK_EQ(factors.num_domains, support.num_domains());
  DOCS_DCHECK_EQ(factors.table.size(),
                 support.choice_counts().size() * support.num_domains());
  // Only l outside {2, 3} touches the buffer.
  thread_local std::vector<double> buffer;
  const double expected = ExpectedEntropyOnSupport(
      support.domains(i), support.weights(i), support.support_size(i),
      factors.row(slot), truth_matrix, support.choice_counts()[slot], &buffer);
  return truth_entropy - expected;
}

BenefitBounds BenefitBoundsOf(const BenefitSupport& support, size_t i,
                              const WorkerBenefitFactors& factors,
                              double truth_entropy, bool answered) {
  const double slack = support.bound_slack(i);
  // An answered task's bound reads nothing else: a cold rebuild's sweep
  // touches only the per-task arrays it needs.
  if (answered) return {truth_entropy + slack, -kNoBound};
  const size_t slot = support.choice_slot(i);
  const size_t l = support.choice_counts()[slot];
  const size_t nnz = support.support_size(i);
  if (l < 2 || nnz == 0 || slack == kNoBound) {
    return {truth_entropy + slack, -kNoBound};
  }
  // Every row of M^(i) is one constant, so each posterior of Eq. 8 is the
  // same distribution up to which choice holds the correct-answer mass:
  // (right, wrong, ..., wrong) / (right + (l-1) wrong), and the answer
  // probabilities sum to S_i. Both sums, like the kernel's, add positive
  // terms only (no 1 - p cancellation), which is what keeps the slack small.
  const uint32_t* domains = support.domains(i);
  const double* r = support.weights(i);
  const WorkerBenefitFactors::Domain* f = factors.row(slot);
  double right = 0.0;
  double wrong = 0.0;
  for (size_t e = 0; e < nnz; ++e) {
    const size_t k = domains[e];
    right += r[e] * f[k].quality;
    wrong += r[e] * f[k].wrong_update;
  }
  const double wrong_choices = static_cast<double>(l - 1);
  const double total = right + wrong_choices * wrong;
  if (!(total >= kNoUnderflow)) {
    // A product r_k q_k may have underflowed (a subnormal weight passes the
    // checkpoint loader), which the slack's relative-error model does not
    // cover, and a zero total makes p 0/0. H(s_i) still bounds.
    return {truth_entropy + slack, -kNoBound};
  }
  const double p_right = right / total;
  const double p_wrong = wrong / total;
  double entropy = 0.0;
  if (p_right > 0.0) entropy -= p_right * std::log(p_right);
  if (p_wrong > 0.0) entropy -= wrong_choices * (p_wrong * std::log(p_wrong));
  const double closed = truth_entropy - support.weight_sum(i) * entropy;
  return {closed + slack, closed - slack};
}

double AnswerProbability(const Task& task, MatrixView truth_matrix,
                         const std::vector<double>& worker_quality, size_t a,
                         double quality_clamp) {
  const size_t m = task.domain_vector.size();
  DOCS_DCHECK_GE(worker_quality.size(), m);
  DOCS_DCHECK_EQ(truth_matrix.rows(), m);
  const double l = static_cast<double>(task.num_choices);
  double probability = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const double rk = task.domain_vector[k];
    if (rk == 0.0) continue;
    const double q = Clamp(worker_quality[k], quality_clamp);
    const double mka = truth_matrix(k, a);
    const double wrong = l > 1.0 ? (1.0 - q) / (l - 1.0) : 0.0;
    probability += rk * (q * mka + wrong * (1.0 - mka));
  }
  return probability;
}

Matrix UpdatedTruthMatrix(const Task& task, MatrixView truth_matrix,
                          const std::vector<double>& worker_quality, size_t a,
                          double quality_clamp) {
  DOCS_DCHECK_EQ(task.domain_vector.size(), truth_matrix.rows());
  const size_t m = truth_matrix.rows();
  const size_t l = truth_matrix.cols();
  Matrix updated(m, l, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const double q = Clamp(worker_quality[k], quality_clamp);
    const double wrong =
        l > 1 ? (1.0 - q) / static_cast<double>(l - 1) : 1.0 - q;
    double denom = 0.0;
    for (size_t j = 0; j < l; ++j) {
      const double factor = (j == a) ? q : wrong;
      const double value = truth_matrix(k, j) * factor;
      updated(k, j) = value;
      denom += value;
    }
    if (denom > 0.0) {
      for (size_t j = 0; j < l; ++j) updated(k, j) /= denom;
    } else {
      for (size_t j = 0; j < l; ++j) {
        updated(k, j) = 1.0 / static_cast<double>(l);
      }
    }
  }
  return updated;
}

double ExpectedPosteriorEntropy(const Task& task, MatrixView truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp) {
  double expected = 0.0;
  for (size_t a = 0; a < task.num_choices; ++a) {
    const double pa =
        AnswerProbability(task, truth_matrix, worker_quality, a, quality_clamp);
    if (pa <= 0.0) continue;
    Matrix updated =
        UpdatedTruthMatrix(task, truth_matrix, worker_quality, a, quality_clamp);
    std::vector<double> posterior = updated.LeftMultiply(task.domain_vector);
    NormalizeInPlace(posterior);
    expected += pa * Entropy(posterior);
  }
  return expected;
}

double ExpectedPosteriorEntropy(const Task& task, MatrixView truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp,
                                BenefitScratch* scratch) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  DOCS_DCHECK_EQ(truth_matrix.rows(), m);
  scratch->domains.clear();
  scratch->weights.clear();
  for (size_t k = 0; k < m; ++k) {
    if (task.domain_vector[k] != 0.0) {
      scratch->domains.push_back(static_cast<uint32_t>(k));
      scratch->weights.push_back(task.domain_vector[k]);
    }
  }
  scratch->factors.Hoist(worker_quality, quality_clamp, m,
                         std::span<const size_t>(&l, 1));
  return ExpectedEntropyOnSupport(
      scratch->domains.data(), scratch->weights.data(),
      scratch->domains.size(), scratch->factors.row(0), truth_matrix, l,
      &scratch->posterior);
}

double Benefit(const Task& task, MatrixView truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp) {
  return Entropy(task_truth) -
         ExpectedPosteriorEntropy(task, truth_matrix, worker_quality,
                                  quality_clamp);
}

double Benefit(const Task& task, MatrixView truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality, double quality_clamp,
               BenefitScratch* scratch) {
  return Entropy(task_truth) -
         ExpectedPosteriorEntropy(task, truth_matrix, worker_quality,
                                  quality_clamp, scratch);
}

double BenefitOfSetBruteForce(const std::vector<Task>& tasks,
                              const std::vector<Matrix>& matrices,
                              const std::vector<std::vector<double>>& truths,
                              const std::vector<size_t>& subset,
                              const std::vector<double>& worker_quality,
                              double quality_clamp) {
  DOCS_CHECK_EQ(matrices.size(), tasks.size());
  DOCS_CHECK_EQ(truths.size(), tasks.size());
  for (size_t i : subset) {
    DOCS_CHECK_LT(i, tasks.size()) << "assignment subset names unknown task";
  }
  if (subset.empty()) return 0.0;
  // Odometer over all answer combinations phi in Phi (Eq. 9-10).
  std::vector<size_t> phi(subset.size(), 0);
  double expected_benefit = 0.0;
  for (;;) {
    double probability = 1.0;
    double benefit = 0.0;
    for (size_t idx = 0; idx < subset.size(); ++idx) {
      const size_t i = subset[idx];
      const size_t a = phi[idx];
      probability *= AnswerProbability(tasks[i], matrices[i], worker_quality,
                                       a, quality_clamp);
      Matrix updated = UpdatedTruthMatrix(tasks[i], matrices[i],
                                          worker_quality, a, quality_clamp);
      std::vector<double> posterior =
          updated.LeftMultiply(tasks[i].domain_vector);
      NormalizeInPlace(posterior);
      benefit += Entropy(truths[i]) - Entropy(posterior);
    }
    expected_benefit += probability * benefit;
    size_t idx = 0;
    while (idx < subset.size()) {
      if (++phi[idx] < tasks[subset[idx]].num_choices) break;
      phi[idx] = 0;
      ++idx;
    }
    if (idx == subset.size()) break;
  }
  return expected_benefit;
}

void BenefitIndex::SiftDown(size_t slot) {
  Entry entry = heap_[slot];
  const size_t n = heap_.size();
  for (;;) {
    size_t best = 2 * slot + 1;
    if (best >= n) break;
    if (best + 1 < n && Before(heap_[best + 1], heap_[best])) ++best;
    if (!Before(heap_[best], entry)) break;
    heap_[slot] = heap_[best];
    slot = best;
  }
  heap_[slot] = entry;
}

void BenefitIndex::Reset(size_t num_tasks,
                         const std::vector<size_t>& exclude_sorted) {
  // Entry::task holds a task index in a uint32_t.
  DOCS_CHECK_LT(num_tasks, size_t{0xffffffff});
  heap_.clear();
  heap_.reserve(num_tasks);
  size_t e = 0;
  for (size_t task = 0; task < num_tasks; ++task) {
    while (e < exclude_sorted.size() && exclude_sorted[e] < task) ++e;
    if (e < exclude_sorted.size() && exclude_sorted[e] == task) continue;
    heap_.push_back({0.0, static_cast<uint32_t>(task), false});
  }
  num_tasks_ = num_tasks;
}

void BenefitIndex::Heapify(uint64_t worker_epoch, uint64_t generation,
                           uint64_t answers) {
  // Floyd heapify: bottom-up sift-down, O(n) total.
  for (size_t s = heap_.size() / 2; s-- > 0;) SiftDown(s);
  worker_epoch_tag_ = worker_epoch;
  generation_tag_ = generation;
  answers_tag_ = answers;
}

void BenefitIndex::CheckInvariant() const {
  for (size_t slot = 0; slot < heap_.size(); ++slot) {
    DOCS_DCHECK_LT(heap_[slot].task, num_tasks_);
    DOCS_DCHECK(slot == 0 || Before(heap_[(slot - 1) / 2], heap_[slot]))
        << "benefit index heap property violated at slot " << slot;
  }
}

TaskAssigner::TaskAssigner(TaskAssignerOptions options) : options_(options) {}

std::vector<size_t> TaskAssigner::SelectTopK(
    const std::vector<Task>& tasks, const std::vector<Matrix>& matrices,
    const std::vector<std::vector<double>>& truths,
    const std::vector<double>& worker_quality,
    const std::vector<uint8_t>& eligible, size_t k) const {
  // All four parallel arrays must describe the same task list; a mismatch
  // would read a stale eligibility bit (or out of bounds) for some task.
  DOCS_CHECK_EQ(eligible.size(), tasks.size());
  DOCS_CHECK_EQ(matrices.size(), tasks.size());
  DOCS_CHECK_EQ(truths.size(), tasks.size());
  CheckUnitInterval(worker_quality, 1e-9, "OTA worker quality (Eq. 5)");
  std::vector<ScoredTask> scored;
  scored.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!eligible[i]) continue;
    scored.push_back({i, 0.0});
  }
  // Parallel scoring: each eligible task owns one slot, so the benefit
  // vector (and the selection below) is identical for any thread count. The
  // scratch arena is per thread; it only carries intermediates within one
  // Benefit call, so which thread scores a task cannot affect the result.
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  ParallelFor(threads > 1 ? pool_.get() : nullptr, scored.size(),
              [&](size_t s) {
                const size_t i = scored[s].task;
                thread_local BenefitScratch scratch;
                scored[s].value =
                    Benefit(tasks[i], matrices[i], truths[i], worker_quality,
                            options_.quality_clamp, &scratch);
                // A NaN benefit would poison the nth_element comparator
                // (strict weak ordering) below.
                DOCS_DCHECK_FINITE(scored[s].value, "task benefit (Eq. 8)");
              });
  const size_t take = std::min(k, scored.size());
  if (take == 0) return {};
  // Linear selection of the top-k (PICK), then order the selected few.
  std::nth_element(scored.begin(), scored.begin() + (take - 1), scored.end(),
                   BetterScored);
  std::sort(scored.begin(), scored.begin() + take, BetterScored);
  std::vector<size_t> selected;
  selected.reserve(take);
  for (size_t i = 0; i < take; ++i) selected.push_back(scored[i].task);
  return selected;
}

}  // namespace docs::core

#ifndef DOCS_CORE_TASK_ASSIGNMENT_H_
#define DOCS_CORE_TASK_ASSIGNMENT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "core/types.h"

namespace docs::core {

/// Per-campaign scoring shape of a task list (DESIGN.md §11), built once at
/// ingest: the nonzero entries of every task's immutable DVE vector in CSR
/// form (their domain indices and, next to them, their weights r_k), and
/// each task's slot among the campaign's distinct choice counts. The benefit
/// kernel walks only these rows; an r_k == 0 row adds nothing to Eq. 8 (the
/// fused kernel skipped it too), so the walk is bit-identical. Both CSR
/// arrays are flat, so a scorer can prefetch a task's row by index.
class BenefitSupport {
 public:
  BenefitSupport() = default;
  /// All tasks must share one domain count m.
  explicit BenefitSupport(const std::vector<Task>& tasks);

  size_t num_tasks() const { return choice_slot_.size(); }
  size_t num_domains() const { return num_domains_; }
  /// Distinct choice counts of the campaign, ascending.
  const std::vector<size_t>& choice_counts() const { return choice_counts_; }
  /// Index of `task`'s choice count in choice_counts().
  size_t choice_slot(size_t task) const { return choice_slot_[task]; }
  /// Indices k of `task`'s nonzero domains, ascending.
  const uint32_t* domains(size_t task) const {
    return domains_.data() + row_begin_[task];
  }
  /// The weights r_k of those domains, in the same order.
  const double* weights(size_t task) const {
    return weights_.data() + row_begin_[task];
  }
  size_t support_size(size_t task) const {
    return row_begin_[task + 1] - row_begin_[task];
  }
  /// S_i = sum of `task`'s support weights r_k, in ascending-domain order.
  double weight_sum(size_t task) const { return weight_sum_[task]; }
  /// Forward-error slack added to both benefit upper bounds of `task`
  /// (DESIGN.md §16): 8 (nnz + l + 8) u (S_i (ln l + 1) + ln l + 1), with u
  /// the unit roundoff. +infinity when a support weight is negative (the
  /// checkpoint loader admits r_k down to -1e-9): the analysis needs
  /// r_k > 0, so such a task has no finite bound and is always scored.
  double bound_slack(size_t task) const { return bound_slack_[task]; }

 private:
  size_t num_domains_ = 0;
  std::vector<uint32_t> row_begin_ = {0};  // CSR row starts, num_tasks + 1
  std::vector<uint32_t> domains_;
  std::vector<double> weights_;  // parallel to domains_
  std::vector<uint32_t> choice_slot_;
  std::vector<size_t> choice_counts_;
  std::vector<double> weight_sum_;
  std::vector<double> bound_slack_;
};

/// One worker's benefit factors, hoisted once per scoring pass (DESIGN.md
/// §11): the clamped quality q_k and Theorem 2's and Theorem 3's
/// wrong-answer factors for every (choice count, domain) pair of the
/// campaign. The two wrong-answer factors stay separate because the spec
/// kernels disagree on the degenerate l == 1 case (Theorem 2 uses 0,
/// Theorem 3 uses 1-q) and bit-identity is the contract.
struct WorkerBenefitFactors {
  struct Domain {
    double quality = 0.0;       // Clamp(q_k)
    double wrong_answer = 0.0;  // Theorem 2: (1-q)/(l-1), 0 when l == 1
    double wrong_update = 0.0;  // Theorem 3: (1-q)/(l-1), 1-q when l == 1
  };

  /// Fills the table for `worker_quality` (at least m entries) over
  /// `choice_counts`. Reuses the storage: a warm call allocates nothing.
  void Hoist(const std::vector<double>& worker_quality, double quality_clamp,
             size_t num_domains, std::span<const size_t> choice_counts);

  /// Row of the table for choice-count slot `slot`: m entries.
  const Domain* row(size_t slot) const {
    return table.data() + slot * num_domains;
  }

  size_t num_domains = 0;
  std::vector<Domain> table;  // slot-major, num_domains per slot
};

/// Definition 5 on the campaign-shaped kernel: B(t_i) = H(s_i) - H(ŝ_i)
/// for task `i` of `support`, with the worker's factors already hoisted.
/// `truth_entropy` is H(s_i) as the engine caches it (Entropy of s_i, the
/// same call Benefit() makes). The kernel reads the support's CSR domains
/// and weights and the m x l_i rows of `truth_matrix`; it is specialized
/// for l = 2 and l = 3 and replays the fused kernel's floating-point
/// operations in the same order, so the result equals Benefit() bit for bit
/// (tests/ota_test.cc). Thread-safe: no shared scratch.
double TaskBenefit(const BenefitSupport& support, size_t i,
                   const WorkerBenefitFactors& factors, MatrixView truth_matrix,
                   double truth_entropy);

/// Bounds of TaskBenefit(support, i, factors, M^(i), H(s_i)) that hold for
/// any M^(i) consistent with the task's bound inputs (DESIGN.md §16):
/// `truth_entropy` is Entropy(s_i) and `answered` says whether the task has
/// any answer.
///  - upper, any task: H(s_i), since the kernel subtracts an expected
///    entropy >= 0.
///  - upper, an unanswered task (every row of M^(i) is one constant, 1/l or
///    the EM softmax of zeros): the kernel's value in closed form,
///    H(s_i) - S_i H(p, (1-p)/(l-1), ...), with p = sum r_k q_k / S_i over
///    the support and q_k the factors' clamped qualities. Tasks whose
///    answer-mass total sum r_k (q_k + (l-1) w_k) is below 2^-900 (so a
///    product may have underflowed) fall back to H(s_i).
///  - lower: the closed form minus the slack, where it applies; -infinity
///    otherwise.
/// Each side carries support.bound_slack(i). O(1) for answered tasks;
/// O(support) and two logs otherwise.
struct BenefitBounds {
  double upper = 0.0;
  double lower = 0.0;
};
BenefitBounds BenefitBoundsOf(const BenefitSupport& support, size_t i,
                              const WorkerBenefitFactors& factors,
                              double truth_entropy, bool answered);

/// Reusable scratch arena for the single-task fused overloads below. One
/// instance per thread: callers keep a thread_local arena so repeated
/// Benefit calls never touch the heap once the vectors have grown to the
/// campaign's (m, l) shape. Contents are meaningless between calls.
struct BenefitScratch {
  std::vector<uint32_t> domains;   // the task's nonzero domains
  std::vector<double> weights;     // their r_k
  WorkerBenefitFactors factors;    // hoisted for the task's l only
  std::vector<double> posterior;   // generic-l kernel buffer
};

/// Theorem 2: probability that worker with quality `q` gives choice `a` to
/// the task, given its current matrix M^(i):
///   Pr(v^w_i = a | V(i)) = sum_k r_k [ q_k M_{k,a} + (1-q_k)/(l-1) (1-M_{k,a}) ].
double AnswerProbability(const Task& task, MatrixView truth_matrix,
                         const std::vector<double>& worker_quality, size_t a,
                         double quality_clamp = 0.01);

/// Theorem 3: the updated matrix M^(i)|a after the worker answers `a`.
Matrix UpdatedTruthMatrix(const Task& task, MatrixView truth_matrix,
                          const std::vector<double>& worker_quality, size_t a,
                          double quality_clamp = 0.01);

/// Equation 8: the expected posterior entropy
///   H(ŝ_i) = sum_a H(r x M^(i)|a) Pr(v^w_i = a | V(i)).
double ExpectedPosteriorEntropy(const Task& task, MatrixView truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp = 0.01);

/// Fused Eq. 8: folds Theorems 2-3 and the posterior projection together
/// without materializing M^(i)|a, on the same kernel as TaskBenefit. The
/// task's support and the worker's factors are built in `scratch` — zero
/// heap allocations once the arena has warmed up. Bit-identical to the
/// allocating reference above (same floating-point operations in the same
/// order); tests/ota_test.cc asserts exact equality.
double ExpectedPosteriorEntropy(const Task& task, MatrixView truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp, BenefitScratch* scratch);

/// Definition 5: B(t_i) = H(s_i) - H(ŝ_i), the expected ambiguity reduction
/// if the worker answers the task. The allocating spec kernel: no serving
/// path calls it; it is the test oracle the fused kernels are proven
/// bit-identical to (tests/ota_test.cc, tests/reference_selector.h).
double Benefit(const Task& task, MatrixView truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp = 0.01);

/// Definition 5 on the fused, allocation-free kernel, bit-identical to the
/// reference overload above.
double Benefit(const Task& task, MatrixView truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp, BenefitScratch* scratch);

/// Equation 10 computed by brute force: enumerates all prod l_ti answer
/// combinations phi for the given task subset and sums Bphi weighted by the
/// combination probability. Exponential — used in tests to validate
/// Theorem 4 (B(Tk) = sum B(ti)) on small instances.
double BenefitOfSetBruteForce(const std::vector<Task>& tasks,
                              const std::vector<Matrix>& matrices,
                              const std::vector<std::vector<double>>& truths,
                              const std::vector<size_t>& subset,
                              const std::vector<double>& worker_quality,
                              double quality_clamp = 0.01);

/// One scored task: TaskAssigner::SelectTopK's selection unit and, through
/// BetterScored, the benefit index's heap order.
struct ScoredTask {
  size_t task = 0;
  double value = 0.0;
};

/// THE tie-break order of every selection path: value descending, task index
/// ascending. A total order (no two distinct tasks ever compare equal), which
/// is what lets a heap ordered by it emit entries in exactly the sequence a
/// full sort (or PICK's nth_element + prefix sort) produces — the
/// bit-identity contract the benefit index rests on (DESIGN.md §16).
inline bool BetterScored(const ScoredTask& a, const ScoredTask& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.task < b.task;
}

/// Per-worker ordered benefit index (DESIGN.md §16): a binary max-heap over
/// the worker's benefit scores, ordered by BetterScored, and the only store
/// of those scores — its exact entries are the scores, its key their one
/// freshness rule. A RequestTasks reads the top k eligible tasks off the
/// heap with a frontier walk instead of scanning and nth_element-ing all n
/// scores.
///
/// The heap is lazy: an entry holds either the task's exact score or an
/// upper bound of it (a *bound entry*). The walk scores a bound entry only
/// when it would otherwise emit it, so a cold rebuild seeds n cheap bounds
/// and resolves the few hundred entries that can reach the top k. Every
/// emitted entry is exact, and because bound >= exact under BetterScored the
/// emission order equals a full sort's.
///
/// The index caches one rebuild. It remembers the key it was built under —
/// the worker epoch, the invalidation generation and the number of answers
/// the engine had absorbed — and the owner checks that key before every
/// use: a match means every score and bound still holds, a mismatch means
/// Rebuild. Task posteriors move only when the engine absorbs an answer or
/// bumps the generation, so a live engine and a published snapshot with the
/// same key describe one state, and an index built from either serves both.
/// Instances are NOT thread-safe; the owner serializes access per worker
/// (DocsSystem: the worker's shard stripe or the exclusive lock).
class BenefitIndex {
 public:
  /// One heap entry: the task's exact score, or — while `bound` is set — an
  /// upper bound of it that Select resolves before emitting the task.
  struct Entry {
    double value = 0.0;
    uint32_t task = 0;
    bool bound = false;
  };

  /// True when the index was built under (worker_epoch, generation,
  /// answers) over `num_tasks` tasks, so it can be read as it is. Live
  /// generations start at 1, so a never-built index (all tags 0) is stale.
  bool Fresh(uint64_t worker_epoch, uint64_t generation, uint64_t answers,
             size_t num_tasks) const {
    return worker_epoch_tag_ == worker_epoch &&
           generation_tag_ == generation && answers_tag_ == answers &&
           num_tasks_ == num_tasks;
  }

  /// Number of indexed (non-excluded) tasks.
  size_t size() const { return heap_.size(); }

  /// Rebuilds the heap from scratch under the given key: every task except
  /// those in `exclude_sorted` (ascending) is seeded in one batch —
  /// `seed(&entries)` fills the `value` and `bound` of every entry (tasks
  /// ascending), an exact score where the caller has one, an upper bound
  /// otherwise; each entry is independent, so the heap contents are
  /// thread-count invariant however the batch fans out — then heapified
  /// bottom-up in O(n). Bound entries are resolved later by Select. A
  /// template over the seed, so a rebuild builds no type-erased closure.
  template <typename Seed>
  void Rebuild(size_t num_tasks, uint64_t worker_epoch, uint64_t generation,
               uint64_t answers, const std::vector<size_t>& exclude_sorted,
               const Seed& seed);

  /// Reads the top `k` tasks whose `eligible` byte is set off the heap
  /// WITHOUT popping: a candidate-frontier walk that visits nodes in exact
  /// BetterScored order (the heap order is total, so a parent strictly
  /// precedes both children). A visited bound entry that is eligible is
  /// resolved — `resolve(task)` returns its exact score, which replaces the
  /// bound and sifts down inside the slot's unvisited subtree — and the slot
  /// goes back on the frontier; an ineligible entry is skipped unresolved.
  /// Fills `*out` (cleared first) and returns the frontier pops,
  /// resolutions included. Warm calls allocate nothing: the frontier
  /// scratch is a reused member. A template over the resolver, so a warm
  /// walk builds no type-erased closure.
  template <typename Resolve>
  uint64_t Select(const std::vector<uint8_t>& eligible, const Resolve& resolve,
                  size_t k, std::vector<size_t>* out);

  /// O(n) heap-property and task-range audit behind DOCS_DCHECK; call sites
  /// compile it in only under DOCS_DEBUG_CHECKS builds (scripts/ci.sh strict
  /// stage).
  void CheckInvariant() const;

 private:
  static bool Before(const Entry& a, const Entry& b) {
    return BetterScored({a.task, a.value}, {b.task, b.value});
  }
  void SiftDown(size_t slot);
  /// Rebuild's halves: lay out the unseeded entries, then heapify and tag.
  void Reset(size_t num_tasks, const std::vector<size_t>& exclude_sorted);
  void Heapify(uint64_t worker_epoch, uint64_t generation, uint64_t answers);

  std::vector<Entry> heap_;
  /// Select's candidate frontier (heap slots), reused across calls.
  std::vector<uint32_t> frontier_;
  size_t num_tasks_ = 0;
  uint64_t worker_epoch_tag_ = 0;
  uint64_t generation_tag_ = 0;
  uint64_t answers_tag_ = 0;
};

template <typename Seed>
void BenefitIndex::Rebuild(size_t num_tasks, uint64_t worker_epoch,
                           uint64_t generation, uint64_t answers,
                           const std::vector<size_t>& exclude_sorted,
                           const Seed& seed) {
  Reset(num_tasks, exclude_sorted);
  seed(&heap_);
  Heapify(worker_epoch, generation, answers);
}

template <typename Resolve>
uint64_t BenefitIndex::Select(const std::vector<uint8_t>& eligible,
                              const Resolve& resolve, size_t k,
                              std::vector<size_t>* out) {
  out->clear();
  if (k == 0 || heap_.empty()) return 0;
  // Candidate-frontier traversal: the frontier holds heap slots whose
  // parents were already visited, ordered (as a little heap of its own) by
  // the indexed entries' total order. Because BetterScored is total and the
  // main heap satisfies it parent-over-child strictly, the best frontier
  // slot is better than every other unvisited node.
  //
  // A bound entry at the front is resolved in place: its exact score is at
  // most the bound, so the sift-down moves it within its own subtree, whose
  // slots are all unvisited and off the frontier — the frontier heap stays
  // valid, and the slot (now holding its best descendant or the resolved
  // entry) goes back on it. An exact entry at the front therefore precedes
  // every other unvisited entry's bound and so its exact score: emission
  // happens in exact global rank order, matching a full sort's prefix bit
  // for bit.
  frontier_.clear();
  auto frontier_order = [this](uint32_t a, uint32_t b) {
    // std::push/pop_heap keep the *largest* element first under "less-than";
    // "less" here means "worse score".
    return Before(heap_[b], heap_[a]);
  };
  frontier_.push_back(0);
  uint64_t popped = 0;
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), frontier_order);
    const uint32_t slot = frontier_.back();
    frontier_.pop_back();
    ++popped;
    Entry& entry = heap_[slot];
    const bool take = eligible[entry.task] != 0;
    if (take && entry.bound) {
      const double exact = resolve(entry.task);
      DOCS_DCHECK(exact <= entry.value)
          << "benefit bound " << entry.value << " below the exact score "
          << exact << " of task " << entry.task;
      entry.value = exact;
      entry.bound = false;
      SiftDown(slot);
      frontier_.push_back(slot);
      std::push_heap(frontier_.begin(), frontier_.end(), frontier_order);
      continue;
    }
    if (take) {
      out->push_back(entry.task);
      if (out->size() == k) break;
    }
    for (uint32_t child = 2 * slot + 1;
         child <= 2 * slot + 2 && child < heap_.size(); ++child) {
      frontier_.push_back(child);
      std::push_heap(frontier_.begin(), frontier_.end(), frontier_order);
    }
  }
  return popped;
}

/// The k-th largest value offered, in one pass (DESIGN.md §16): the floor
/// of a cold index rebuild's seed. -infinity and NaN are not counted. value()
/// is +infinity for k = 0, -infinity while fewer than k values were counted,
/// and otherwise exactly the value nth_element would place k-th in
/// descending order (ties included). Keeps the running top min(k, counted)
/// in a min-heap in caller-provided storage, so its memory follows the
/// count, never k itself (k arrives unclamped from the wire).
class KthLargest {
 public:
  /// Clears `*storage` and starts an empty selection.
  KthLargest(size_t k, std::vector<double>* storage)
      : k_(k), top_(*storage) {
    top_.clear();
  }

  void Offer(double value) {
    if (!(value > -std::numeric_limits<double>::infinity())) return;
    if (top_.size() < k_) {
      top_.push_back(value);
      std::push_heap(top_.begin(), top_.end(), std::greater<double>());
    } else if (k_ > 0 && value > top_.front()) {
      std::pop_heap(top_.begin(), top_.end(), std::greater<double>());
      top_.back() = value;
      std::push_heap(top_.begin(), top_.end(), std::greater<double>());
    }
  }

  double value() const {
    if (k_ == 0) return std::numeric_limits<double>::infinity();
    if (top_.size() < k_) return -std::numeric_limits<double>::infinity();
    return top_.front();
  }

 private:
  size_t k_;
  std::vector<double>& top_;
};

struct TaskAssignerOptions {
  double quality_clamp = 0.01;
  /// Threads applied to benefit scoring in SelectTopK. 0 = hardware
  /// concurrency, 1 = sequential. Each eligible task's benefit lands in its
  /// own slot before the (serial) top-k selection, so the returned ranking
  /// is identical for every thread count.
  size_t num_threads = 0;
};

/// The OTA module (Section 5.1): scores every eligible task with Definition
/// 5's benefit and returns the k best. Selection is linear via
/// std::nth_element (the PICK algorithm of the paper); the returned indices
/// are ordered by decreasing benefit.
class TaskAssigner {
 public:
  explicit TaskAssigner(TaskAssignerOptions options = {});

  /// Selects up to `k` tasks for the coming worker. `eligible[i]` marks the
  /// tasks in T - T(w) (not yet answered by the worker and still open).
  /// `matrices` and `truths` are the current M^(i) and s_i.
  std::vector<size_t> SelectTopK(const std::vector<Task>& tasks,
                                 const std::vector<Matrix>& matrices,
                                 const std::vector<std::vector<double>>& truths,
                                 const std::vector<double>& worker_quality,
                                 const std::vector<uint8_t>& eligible,
                                 size_t k) const;

  const TaskAssignerOptions& options() const { return options_; }

 private:
  TaskAssignerOptions options_;
  /// Lazy scoring pool (see TaskAssignerOptions::num_threads). Mutable
  /// because SelectTopK is logically const; a TaskAssigner instance is not
  /// itself safe for concurrent use.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TASK_ASSIGNMENT_H_

#ifndef DOCS_CORE_TRUTH_INFERENCE_H_
#define DOCS_CORE_TRUTH_INFERENCE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/parallel.h"
#include "core/types.h"

namespace docs::core {

struct TruthInferenceOptions {
  /// The paper observes convergence within ~20 iterations (Section 6.3).
  size_t max_iterations = 20;
  /// Early-exit threshold on the parameter change Delta of Section 6.3.
  double tolerance = 1e-7;
  /// Quality assumed for a worker in domains where nothing is known yet.
  double default_quality = 0.7;
  /// Qualities are clamped into [clamp, 1 - clamp] when used inside
  /// Equation 4, keeping the likelihood well-defined for perfect workers.
  double quality_clamp = 0.01;
  /// MAP shrinkage on Equation 5: each quality estimate is pulled toward
  /// the worker's seed quality (golden/WorkerStore profile, or
  /// default_quality) with this pseudo-count mass. Equation 5 becomes
  ///   q_k = (sum r s + m0 (prior + u0)) / (sum r + prior + u0)
  /// where (m0, u0) are the seed mean and weight. Without it, a worker with
  /// little mass in a domain can get a spurious q < 1/l and Eq. 4 then
  /// actively inverts her votes. 0 recovers the paper's exact formula.
  double quality_prior_strength = 1.0;
  /// Threads applied to the EM sweep (step 1 per-task matrices, step 2
  /// per-worker quality estimation). 0 = hardware concurrency, 1 = the
  /// sequential loops. Results are bit-identical for every value: step 1
  /// writes only worker-, memo- and task-owned slots (TruthStepKernel) and
  /// step 2 accumulates each worker's evidence in the same global answer
  /// order the sequential sweep used.
  size_t num_threads = 0;
};

struct TruthInferenceResult {
  /// s_i per task: the probabilistic truth distribution over choices.
  std::vector<std::vector<double>> task_truth;
  /// M^(i) per task (m x l_ti), the per-domain truth distributions of Eq. 3.
  std::vector<Matrix> truth_matrices;
  /// argmax_j s_{i,j} per task (the inferred truth v*_i).
  std::vector<size_t> inferred_choice;
  /// Final per-worker quality vectors q^w and weights u^w (Eq. 5).
  std::vector<WorkerQuality> worker_quality;
  /// Delta after each iteration (the convergence curve of Fig. 4(a)).
  std::vector<double> delta_history;
  size_t iterations_run = 0;
};

/// Computes M^(i) for one task from the answers it received and the current
/// worker qualities (Equations 3-4), in log space. `task_answers` must all
/// refer to this task. With no answers every row is uniform. This is the
/// per-task reference form of TruthStepKernel (the baselines, tests and
/// micro benchmarks call it); the two agree bit for bit.
///
/// Stray answers — a worker index with no quality vector of the task's
/// dimension, or a choice outside [0, l) — are skipped instead of indexing
/// out of bounds (the baselines call this directly with caller-supplied
/// answer lists). `skipped_answers`, when non-null, receives the skip count.
Matrix ComputeTruthMatrix(const Task& task,
                          const std::vector<Answer>& task_answers,
                          const std::vector<WorkerQuality>& qualities,
                          double quality_clamp = 0.01,
                          size_t* skipped_answers = nullptr);

/// Step 1 of Section 4.1 (Eq. 3-4) over every task of a fixed answer set:
/// the one kernel behind each EM iteration of TruthInference::Run and the
/// post-EM refresh of IncrementalTruthInference. The constructor lays out
/// the answer set once; each Run() then
///   1. builds log(clamp(q_wk)) and log((1 - clamp(q_wk)) / (l - 1)) once
///      per (worker, domain) for every worker with answers and every choice
///      count l that worker answered, instead of twice per (answer, domain);
///   2. copies a precomputed uniform row (per l) into unanswered tasks;
///   3. copies a softmax block memoized per (worker, l, choice) into tasks
///      with exactly one answer;
///   4. sums table lookups and takes the softmax for the other tasks.
/// Every value comes from the same expression, accumulated from 0.0 in the
/// same answer order, as ComputeTruthMatrix — the output is bit-identical
/// to it, and (all writes are worker-, memo- or task-owned slots) for any
/// thread count. No step does more log/exp work than the per-task form.
class TruthStepKernel {
 public:
  /// `answers_of_task[i]` lists task i's answers in the order they are to
  /// be summed. Every answer must be in bounds: worker < num_workers,
  /// choice < tasks[i].num_choices. `tasks` must outlive the kernel.
  TruthStepKernel(const std::vector<Task>& tasks,
                  const std::vector<std::vector<Answer>>& answers_of_task,
                  size_t num_workers);

  /// Recomputes M^(i) into (*truth_matrices)[i] (reshaped to m_i x l_i) and
  /// s_i = normalize(r_i M^(i)) into (*task_truth)[i] for every task, from
  /// `qualities` (indexed by worker; every answering worker's vector has the
  /// same dimension, at least that of the tasks the worker answered). When
  /// `log_numerators` is non-null its matrices (already m_i x l_i) receive
  /// the log numerators M̂^(i) as well.
  void Run(const std::vector<WorkerQuality>& qualities, double quality_clamp,
           ThreadPool* pool, std::vector<Matrix>* truth_matrices,
           std::vector<std::vector<double>>* task_truth,
           std::vector<Matrix>* log_numerators = nullptr);

 private:
  /// One answer as the kernel reads it: its choice and the table slots of
  /// its worker's log(q) row and log((1-q)/(l-1)) row.
  struct Entry {
    size_t choice;
    size_t correct_slot;
    size_t wrong_slot;
  };
  /// Sums the log terms of domain k over [begin, end) into `row` (size l),
  /// starting from 0.0.
  void AccumulateRow(const Entry* begin, const Entry* end, size_t k,
                     size_t l, std::vector<double>* row) const;

  const std::vector<Task>* tasks_;
  std::vector<size_t> entry_begin_;  // CSR over entries_, n + 1 offsets
  std::vector<Entry> entries_;
  /// Per task: index into uniform_rows_ (no answers) or memos_ (one).
  std::vector<size_t> row_source_;
  std::vector<Matrix> uniform_rows_;  // 1 x l softmax of zeros, per l
  std::vector<size_t> workers_;       // correct slot -> worker id
  std::vector<size_t> wrong_begin_;   // correct slot -> its wrong slots
  std::vector<size_t> wrong_choices_;  // wrong slot -> l
  /// The (worker, l, choice) keys of single-answer tasks; a wrong slot
  /// names both the worker and l.
  std::vector<Entry> memos_;
  /// Per-Run state: the tables (m_ entries per slot) and the m_ x l softmax
  /// block of each memo.
  size_t m_ = 0;
  std::vector<double> log_correct_;
  std::vector<double> log_wrong_;
  std::vector<Matrix> memo_blocks_;
};

/// Initializes worker qualities from their answers to golden tasks
/// (Section 5.2): per domain, the r-weighted fraction of correct golden
/// answers, smoothed toward `options.default_quality`. Weights u are the
/// r-mass of golden tasks answered.
/// Stray inputs — a golden index outside the task list, a golden_tasks entry
/// with no matching golden_truth label (the arrays are parallel; the excess
/// of the longer one is dropped), an answer whose task or worker is out of
/// range — are skipped instead of indexing out of bounds; `skipped_answers`,
/// when non-null, receives the number of ignored entries.
std::vector<WorkerQuality> InitializeQualityFromGolden(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<size_t>& golden_tasks,
    const std::vector<size_t>& golden_truth, double default_quality = 0.7,
    double smoothing = 1.0, size_t* skipped_answers = nullptr);

/// The iterative truth-inference algorithm of Section 4.1: alternates
/// step 1 (qualities -> probabilistic truth, Eq. 2-4) and step 2
/// (probabilistic truth -> qualities, Eq. 5) until convergence.
class TruthInference {
 public:
  explicit TruthInference(TruthInferenceOptions options = {});

  /// Runs inference over `tasks` (with their domain vectors) and `answers`
  /// from `num_workers` workers. `initial_quality`, when provided, seeds the
  /// worker qualities (e.g. from golden tasks or the WorkerStore); otherwise
  /// every worker starts at options.default_quality.
  TruthInferenceResult Run(
      const std::vector<Task>& tasks, size_t num_workers,
      const std::vector<Answer>& answers,
      const std::vector<WorkerQuality>* initial_quality = nullptr) const;

  /// As above but executes on a caller-provided pool (ignoring
  /// options().num_threads), so a surrounding engine can reuse one pool
  /// across repeated runs. `pool == nullptr` runs sequentially.
  TruthInferenceResult Run(const std::vector<Task>& tasks, size_t num_workers,
                           const std::vector<Answer>& answers,
                           const std::vector<WorkerQuality>* initial_quality,
                           ThreadPool* pool) const;

  const TruthInferenceOptions& options() const { return options_; }

 private:
  TruthInferenceOptions options_;
  /// Lazily built pool of options().num_threads threads, reused across Run()
  /// calls. Mutable because Run() is logically const; TruthInference itself
  /// is not safe for concurrent use from multiple threads (the serving path
  /// already serializes on ConcurrentDocsSystem's mutex).
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TRUTH_INFERENCE_H_

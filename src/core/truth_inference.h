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
/// the one kernel behind each EM iteration of TruthInference and the post-EM
/// refresh of IncrementalTruthInference. The constructor lays out the answer
/// set once. Each pass over qualities
///   1. builds log(clamp(q_wk)) and log((1 - clamp(q_wk)) / (l - 1)) once
///      per (worker, domain) for every worker with answers and every choice
///      count l that worker answered, instead of twice per (answer, domain);
///   2. takes the softmax block of each (worker, l, choice) that answers a
///      task alone, once for all the tasks it answers;
///   3. sums table lookups and takes the softmax for the other tasks.
/// An unanswered task's rows are the softmax of zeros, built here once.
/// Every value comes from the same expression, accumulated from 0.0 in the
/// same answer order, as ComputeTruthMatrix — the output is bit-identical
/// to it, and (all writes are worker-, memo- or task-owned slots) for any
/// thread count. No step does more log/exp work than the per-task form.
///
/// Iterate() computes only what an EM iteration reads (s_i of the answered
/// tasks); BuildTruthMatrices() then completes M^(i) once, after the last
/// iteration. Run() is the full step in one call (DESIGN.md §4).
class TruthStepKernel {
 public:
  /// `answers_of_task[i]` lists task i's answers in the order they are to
  /// be summed. Every answer must be in bounds: worker < num_workers,
  /// choice < tasks[i].num_choices. `tasks` must outlive the kernel.
  TruthStepKernel(const std::vector<Task>& tasks,
                  const std::vector<std::vector<Answer>>& answers_of_task,
                  size_t num_workers);

  /// The tasks with at least one answer, ascending.
  const std::vector<size_t>& answered_tasks() const { return answered_; }

  /// Step 1 as one EM iteration needs it: rebuilds the tables from
  /// `qualities` (indexed by worker; every answering worker's vector has the
  /// same dimension, at least that of the tasks the worker answered) and
  /// writes s_i = normalize(r_i M^(i)) into (*task_truth)[i] for every
  /// answered task. Single-answer tasks read their memo block in place; a
  /// multi-answer task computes only its rows with r_k != 0, the rows the
  /// product reads. Unanswered tasks' entries are left as they are.
  void Iterate(const std::vector<WorkerQuality>& qualities,
               double quality_clamp, ThreadPool* pool,
               std::vector<std::vector<double>>* task_truth);

  /// Completes the last Iterate(): writes M^(i) of every task into
  /// (*truth_matrices)[i] (reshaped to m_i x l_i), filling the r_k = 0 rows
  /// of multi-answer tasks from the tables that Iterate() left, and s_i of
  /// every unanswered task into (*task_truth)[i].
  void BuildTruthMatrices(ThreadPool* pool,
                          std::vector<Matrix>* truth_matrices,
                          std::vector<std::vector<double>>* task_truth);

  /// The full step in one call: tables from `qualities` as in Iterate(),
  /// then M^(i) of every task into block i of `*truth_matrices` (already
  /// m_i x l_i: the incremental engine's task-major arena) and s_i. When
  /// `log_numerators` is non-null its matrices (already m_i x l_i) receive
  /// the log numerators M̂^(i) as well.
  /// With `write_unanswered` false the unanswered tasks' entries are left
  /// as they are: they depend on nothing but r_i and l_i, so a caller that
  /// wrote them once may skip them.
  void Run(const std::vector<WorkerQuality>& qualities, double quality_clamp,
           ThreadPool* pool, MatrixArena* truth_matrices,
           std::vector<std::vector<double>>* task_truth,
           std::vector<Matrix>* log_numerators = nullptr,
           bool write_unanswered = true);

 private:
  /// One answer as the kernel reads it: its choice and the table slots of
  /// its worker's log(q) row and log((1-q)/(l-1)) row.
  struct Entry {
    size_t choice;
    size_t correct_slot;
    size_t wrong_slot;
  };
  /// Builds the log tables and the memo blocks from `qualities`.
  void Prepare(const std::vector<WorkerQuality>& qualities,
               double quality_clamp, ThreadPool* pool);
  /// Sums the log terms of domain k over [begin, end) into `row` (size l),
  /// starting from 0.0.
  void AccumulateRow(const Entry* begin, const Entry* end, size_t k,
                     size_t l, std::vector<double>* row) const;
  /// Copies task i's rows (it has at most one answer) from its uniform row
  /// or memo block into the m x l row-major block `truth_matrix`.
  void CopyRows(size_t i, size_t m, size_t l, double* truth_matrix) const;

  const std::vector<Task>* tasks_;
  std::vector<size_t> entry_begin_;  // CSR over entries_, n + 1 offsets
  std::vector<Entry> entries_;
  std::vector<size_t> answered_;  // see answered_tasks()
  /// Per task: index into uniform_rows_ (no answers), memos_ (one) or
  /// multi_blocks_ (more).
  std::vector<size_t> row_source_;
  std::vector<Matrix> uniform_rows_;  // 1 x l softmax of zeros, per l
  std::vector<size_t> workers_;       // correct slot -> worker id
  std::vector<size_t> wrong_begin_;   // correct slot -> its wrong slots
  std::vector<size_t> wrong_choices_;  // wrong slot -> l
  /// The (worker, l, choice) keys of single-answer tasks; a wrong slot
  /// names both the worker and l.
  std::vector<Entry> memos_;
  /// Per-pass state: the tables (m_ entries per slot), the m_ x l softmax
  /// block of each memo, and the m_i x l_i block of each multi-answer task
  /// (Iterate() writes its r_k != 0 rows).
  size_t m_ = 0;
  std::vector<double> log_correct_;
  std::vector<double> log_wrong_;
  std::vector<Matrix> memo_blocks_;
  std::vector<Matrix> multi_blocks_;
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

  /// The iterations of Run() alone, for a caller that keeps its own per-task
  /// answer lists and needs only the final qualities
  /// (IncrementalTruthInference's periodic re-run): bit-identical to
  /// Run(...).worker_quality over the same answers. No M^(i) is built.
  /// `answers_of_task[i]` lists task i's answers in submission order; every
  /// answer must be in bounds and every answered task must have tasks[0]'s
  /// domain count (Run() filters its answers to such lists). `step1` must
  /// be built from the same tasks, lists and `num_workers`; on return it
  /// holds the tables of the last iteration. `pool == nullptr` runs
  /// sequentially.
  std::vector<WorkerQuality> EstimateQualities(
      const std::vector<Task>& tasks,
      const std::vector<std::vector<Answer>>& answers_of_task,
      size_t num_workers, const std::vector<WorkerQuality>* initial_quality,
      TruthStepKernel* step1, ThreadPool* pool) const;

  const TruthInferenceOptions& options() const { return options_; }

 private:
  /// Caller contracts shared by Run() and EstimateQualities().
  void CheckInputs(const std::vector<Task>& tasks) const;
  /// The starting qualities: `initial_quality` where it has dimension m,
  /// options().default_quality elsewhere.
  std::vector<WorkerQuality> SeedQualities(
      size_t num_workers, size_t m,
      const std::vector<WorkerQuality>* initial_quality) const;
  /// The EM loop. Reads the seeded result->worker_quality and writes the
  /// final qualities, s_i of every answered task (result->task_truth has n
  /// entries), delta_history and iterations_run.
  void RunIterations(const std::vector<Task>& tasks,
                     const std::vector<std::vector<Answer>>& answers_of_task,
                     size_t num_workers, TruthStepKernel* step1,
                     ThreadPool* pool, TruthInferenceResult* result) const;

  TruthInferenceOptions options_;
  /// Lazily built pool of options().num_threads threads, reused across Run()
  /// calls. Mutable because Run() is logically const; TruthInference itself
  /// is not safe for concurrent use from multiple threads (the serving path
  /// already serializes on ConcurrentDocsSystem's mutex).
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TRUTH_INFERENCE_H_

#ifndef DOCS_CORE_INCREMENTAL_TI_H_
#define DOCS_CORE_INCREMENTAL_TI_H_

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/truth_inference.h"
#include "core/types.h"

namespace docs::core {

/// The incremental truth-inference engine of Section 4.2. It keeps, per task,
/// the log-numerator matrix M̂^(i) (Eq. 3's numerator), the normalized M^(i)
/// and the probabilistic truth s_i; and per worker the (q^w, u^w) statistics.
/// Each submitted answer is absorbed in O(m * |V(i)|):
///   step 1 updates only task t_i's parameters;
///   step 2 updates the submitting worker's quality and adjusts the quality
///          of every worker who answered t_i before (their s_{i,j} changed).
/// RunFullInference() re-runs the iterative algorithm over all stored answers
/// (DOCS does this every z = 100 submissions).
class IncrementalTruthInference {
 public:
  /// Takes ownership of the task list (domain vectors + choice counts).
  explicit IncrementalTruthInference(std::vector<Task> tasks,
                                     TruthInferenceOptions options = {});

  size_t num_tasks() const { return tasks_.size(); }
  size_t num_workers() const { return workers_.size(); }
  /// Answers absorbed so far. Posteriors move only in OnAnswer (one answer
  /// each) and RunFullInference (a generation() bump), so with the
  /// generation this count names the posterior state: it keys the benefit
  /// indexes (DESIGN.md §16).
  size_t num_answers() const { return answers_.size(); }
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Answer>& answers() const { return answers_; }

  /// Grows the worker table to include `worker`, seeding new entries with
  /// the default quality. Called implicitly by OnAnswer.
  void EnsureWorker(size_t worker);

  /// Seeds/overrides a worker's quality (e.g. from golden tasks or the
  /// persistent WorkerStore). Also records it as the worker's seed for
  /// subsequent RunFullInference() calls. Rejects vectors whose dimension
  /// does not match the task domain count with InvalidArgument — a
  /// WorkerStore record written against a different domain count would
  /// otherwise index out of bounds inside OnAnswer.
  [[nodiscard]] Status SetWorkerQuality(size_t worker, const WorkerQuality& quality);

  /// Absorbs one answer with the O(m * |V(i)|) update policy.
  [[nodiscard]] Status OnAnswer(size_t worker, size_t task, size_t choice);

  /// Re-runs the iterative algorithm of Section 4.1 on all stored answers,
  /// starting from the seed qualities, and replaces the incremental state
  /// with the converged parameters. Parallelized over a lazily built pool of
  /// options().num_threads threads.
  void RunFullInference();

  /// As above but executes on a caller-provided pool (ignoring
  /// options().num_threads and never building an own pool), so a surrounding
  /// system can serve every hot loop from one pool instead of stacking
  /// hardware-sized pools per engine. `pool == nullptr` runs sequentially.
  void RunFullInference(ThreadPool* pool);

  const std::vector<double>& task_truth(size_t task) const {
    return task_truth_[task];
  }
  /// M^(i), read in place: every task's matrix lives in one task-major
  /// buffer (DESIGN.md §16), so the view stays valid until the next OnAnswer
  /// or RunFullInference rewrites it.
  MatrixView truth_matrix(size_t task) const { return truth_matrices_[task]; }
  /// Entropy(task_truth(task)): one of the two per-task inputs of the OTA
  /// benefit bounds (DESIGN.md §16). Written with s_i — by the constructor,
  /// OnAnswer and RunFullInference — so readers never recompute it.
  double truth_entropy(size_t task) const { return truth_entropy_[task]; }
  /// True once any worker answered `task`: the other bound input. An
  /// unanswered task's M^(i) rows are all one constant (1/l from the
  /// constructor, the softmax of zeros after RunFullInference).
  bool task_answered(size_t task) const {
    return !answers_of_task_[task].empty();
  }
  /// M̂^(i): the log numerators of Eq. 3 that OnAnswer extends.
  const Matrix& log_numerator(size_t task) const {
    return log_numerators_[task];
  }
  const WorkerQuality& worker_quality(size_t worker) const {
    return workers_[worker].stats;
  }
  /// The seed profile RunFullInference() restarts from (set by
  /// SetWorkerQuality, default quality otherwise).
  const WorkerQuality& worker_seed(size_t worker) const {
    return workers_[worker].seed;
  }
  /// True once `worker` answered `task` (workers answer a task at most once).
  /// Out-of-range worker or task indices read as "not answered" instead of
  /// reading out of bounds.
  bool HasAnswered(size_t worker, size_t task) const;

  /// The tasks `worker` has answered, ascending. Empty for unknown workers.
  /// O(1); the serving loop uses it to mask eligibility in O(|answered|)
  /// instead of O(n) HasAnswered probes.
  const std::vector<size_t>& answered_tasks(size_t worker) const;

  /// Version tag of task `task`'s inference state (M^(i), s_i). Bumped by
  /// OnAnswer only; starts at 1. With generation() it keys the snapshot's
  /// copy-on-write sharing of the task's posterior (DESIGN.md §15): a task's
  /// state is unchanged exactly while both are. The batch re-run
  /// (RunFullInference) replaces every posterior WITHOUT walking the epoch
  /// arrays — it bumps the generation instead, which invalidates everything
  /// in O(1).
  uint64_t task_epoch(size_t task) const { return task_epoch_[task]; }

  /// The full per-task epoch array (indexed by task); snapshot publication
  /// copies it wholesale, so the next publish compares epochs without
  /// touching the previous engine state.
  const std::vector<uint64_t>& task_epochs() const { return task_epoch_; }

  /// Version tag of `worker`'s quality vector; starts at 1. Bumped whenever
  /// the quality estimate moves incrementally: her own submissions, the
  /// retro-update fan-out of other workers' submissions on shared tasks, and
  /// SetWorkerQuality reseeds. RunFullInference bumps generation() instead.
  uint64_t worker_epoch(size_t worker) const { return workers_[worker].epoch; }

  /// Global invalidation generation; starts at 1. Bumped once — a single
  /// counter increment, not a per-task or per-worker walk — by every
  /// RunFullInference, which replaces all posteriors and all quality vectors
  /// at once. Benefit indexes carry the generation they were built under
  /// and go stale the moment it moves (DESIGN.md §16).
  uint64_t generation() const { return generation_; }

  /// argmax_j s_{i,j} for every task.
  std::vector<size_t> InferredChoices() const;

  const TruthInferenceOptions& options() const { return options_; }

 private:
  struct WorkerState {
    WorkerQuality stats;
    WorkerQuality seed;
    /// Tasks answered, ascending. A sorted vector costs O(|answered|) memory
    /// instead of the former O(n)-per-worker bitmap (which made every
    /// new-worker registration an O(n) allocation on the serving path);
    /// membership is a binary search, insertion a bounded memmove.
    std::vector<size_t> answered;
    /// Quality-vector version tag; see worker_epoch().
    uint64_t epoch = 1;
  };

  std::vector<Task> tasks_;
  TruthInferenceOptions options_;
  std::vector<Matrix> log_numerators_;  // M̂^(i), in log space
  /// M^(i) of every task, task-major: m x l_i doubles per task, at offsets
  /// laid out from the choice counts by the constructor.
  MatrixArena truth_matrices_;
  std::vector<std::vector<double>> task_truth_;  // s_i
  std::vector<double> truth_entropy_;            // see truth_entropy()
  std::vector<uint64_t> task_epoch_;  // see task_epoch()
  uint64_t generation_ = 1;           // see generation()
  std::vector<std::vector<Answer>> answers_of_task_;
  std::vector<Answer> answers_;
  /// True once RunFullInference wrote every unanswered task's state; later
  /// passes leave those tasks as they are (see RunFullInference).
  bool unanswered_refreshed_ = false;
  std::vector<WorkerState> workers_;
  /// OnAnswer scratch (the facade serializes OnAnswer callers, so single
  /// buffers suffice): s̃_i snapshot and the per-domain log-numerator row.
  /// Reused across calls so the per-answer update is allocation-free.
  std::vector<double> old_truth_scratch_;
  std::vector<double> row_scratch_;
  /// Pool for RunFullInference (the batch EM plus the step-1 refresh of the
  /// incremental caches), built lazily from options_.num_threads and reused
  /// across the periodic re-runs.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_INCREMENTAL_TI_H_

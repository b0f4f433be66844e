#include "core/incremental_ti.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_utils.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

}  // namespace

IncrementalTruthInference::IncrementalTruthInference(
    std::vector<Task> tasks, TruthInferenceOptions options)
    : tasks_(std::move(tasks)), options_(options) {
  const size_t n = tasks_.size();
  size_t cells = 0;
  for (const Task& task : tasks_) {
    cells += task.domain_vector.size() * task.num_choices;
  }
  log_numerators_.reserve(n);
  truth_matrices_.Reserve(n, cells);
  task_truth_.reserve(n);
  truth_entropy_.reserve(n);
  task_epoch_.assign(n, 1);
  answers_of_task_.resize(n);
  for (const Task& task : tasks_) {
    CheckUnitInterval(task.domain_vector, 1e-9,
                      "task domain vector (incremental TI prior)");
    const size_t m = task.domain_vector.size();
    const size_t l = task.num_choices;
    log_numerators_.emplace_back(m, l, 0.0);
    truth_matrices_.Append(m, l, l == 0 ? 0.0 : 1.0 / static_cast<double>(l));
    std::vector<double> s;
    truth_matrices_[truth_matrices_.size() - 1].LeftMultiplyInto(
        task.domain_vector, &s);
    NormalizeInPlace(s);
    truth_entropy_.push_back(Entropy(s));
    task_truth_.push_back(std::move(s));
  }
}

void IncrementalTruthInference::EnsureWorker(size_t worker) {
  while (workers_.size() <= worker) {
    WorkerState state;
    const size_t m = tasks_.empty() ? 0 : tasks_[0].domain_vector.size();
    state.stats.quality.assign(m, options_.default_quality);
    state.stats.weight.assign(m, 0.0);
    state.seed = state.stats;
    // state.answered stays empty: registration is O(m), not O(n).
    workers_.push_back(std::move(state));
  }
}

Status IncrementalTruthInference::SetWorkerQuality(
    size_t worker, const WorkerQuality& quality) {
  const size_t m = tasks_.empty() ? 0 : tasks_[0].domain_vector.size();
  if (quality.quality.size() != m || quality.weight.size() != m) {
    return InvalidArgumentError(
        "worker quality dimension mismatch: got " +
        std::to_string(quality.quality.size()) + " qualities / " +
        std::to_string(quality.weight.size()) + " weights, tasks span " +
        std::to_string(m) + " domains");
  }
  // Value validation stays Status-grade: seeds arrive from stores and
  // checkpoints, so a corrupt record must be reportable, not a crash.
  for (size_t k = 0; k < m; ++k) {
    const double q = quality.quality[k];
    if (!std::isfinite(q) || q < -1e-9 || q > 1.0 + 1e-9) {
      return InvalidArgumentError("worker quality[" + std::to_string(k) +
                                  "] = " + std::to_string(q) +
                                  " outside [0, 1]");
    }
    const double weight = quality.weight[k];
    if (!std::isfinite(weight) || weight < 0.0) {
      return InvalidArgumentError("worker weight[" + std::to_string(k) +
                                  "] = " + std::to_string(weight) +
                                  " is not a finite non-negative mass");
    }
  }
  EnsureWorker(worker);
  workers_[worker].stats = quality;
  workers_[worker].seed = quality;
  ++workers_[worker].epoch;  // quality vector replaced
  return OkStatus();
}

bool IncrementalTruthInference::HasAnswered(size_t worker, size_t task) const {
  // Out-of-range indices (a forged wire request, a stale caller) must read
  // as "not answered", never out of bounds; a task index past tasks_.size()
  // simply cannot be in the sorted answered list.
  if (worker >= workers_.size()) return false;
  const std::vector<size_t>& answered = workers_[worker].answered;
  return std::binary_search(answered.begin(), answered.end(), task);
}

const std::vector<size_t>& IncrementalTruthInference::answered_tasks(
    size_t worker) const {
  static const std::vector<size_t> kEmpty;
  if (worker >= workers_.size()) return kEmpty;
  return workers_[worker].answered;
}

Status IncrementalTruthInference::OnAnswer(size_t worker, size_t task,
                                           size_t choice) {
  if (task >= tasks_.size()) return InvalidArgumentError("task out of range");
  if (choice >= tasks_[task].num_choices) {
    return InvalidArgumentError("choice out of range");
  }
  EnsureWorker(worker);
  if (HasAnswered(worker, task)) {
    return FailedPreconditionError("worker already answered this task");
  }

  const Task& t = tasks_[task];
  const size_t m = t.domain_vector.size();
  const size_t l = t.num_choices;
  // s̃_i snapshot into reusable scratch: the update below needs the truth
  // vector from before this answer.
  old_truth_scratch_.assign(task_truth_[task].begin(), task_truth_[task].end());
  const std::vector<double>& old_truth = old_truth_scratch_;

  // --- Step 1: update M̂^(i), M^(i) and s_i only. -------------------------
  Matrix& log_numer = log_numerators_[task];
  double* truth_matrix = truth_matrices_.block(task);  // m x l, row-major
  row_scratch_.assign(l, 0.0);
  std::vector<double>& row = row_scratch_;
  for (size_t k = 0; k < m; ++k) {
    const double q =
        Clamp(workers_[worker].stats.quality[k], options_.quality_clamp);
    const double log_correct = std::log(q);
    const double log_wrong =
        std::log((1.0 - q) / static_cast<double>(l > 1 ? l - 1 : 1));
    for (size_t j = 0; j < l; ++j) {
      log_numer(k, j) += (j == choice) ? log_correct : log_wrong;
      row[j] = log_numer(k, j);
    }
    const double lse = LogSumExp(row);
    for (size_t j = 0; j < l; ++j) {
      truth_matrix[k * l + j] = std::exp(row[j] - lse);
    }
  }
  truth_matrices_[task].LeftMultiplyInto(t.domain_vector, &task_truth_[task]);
  NormalizeInPlace(task_truth_[task]);
  const std::vector<double>& new_truth = task_truth_[task];
  truth_entropy_[task] = Entropy(new_truth);

  // --- Step 2: update the qualities touched by this answer. ---------------
  // The effective mass behind a quality estimate is the accumulated weight
  // (seed weight + answered r-mass) plus the MAP prior pseudo-count; see
  // TruthInferenceOptions::quality_prior_strength.
  const double prior = options_.quality_prior_strength;
  // (1) The submitting worker w.
  WorkerQuality& wq = workers_[worker].stats;
  for (size_t k = 0; k < m; ++k) {
    const double rk = t.domain_vector[k];
    const double mass = wq.weight[k] + prior;
    const double denom = mass + rk;
    if (denom > 0.0) {
      wq.quality[k] =
          (wq.quality[k] * mass + new_truth[choice] * rk) / denom;
    }
    wq.weight[k] += rk;
  }
  DOCS_DCHECK_SIMPLEX(new_truth, 1e-6, "incremental task truth (Eq. 4)");
  DOCS_DCHECK_UNIT_INTERVAL(wq.quality, 1e-9,
                            "incremental worker quality (Eq. 5)");
  // (2) Every worker who answered this task before: their s_{i,j} moved from
  // s̃_{i,j} to s_{i,j}.
  for (const Answer& prior_answer : answers_of_task_[task]) {
    WorkerQuality& pq = workers_[prior_answer.worker].stats;
    const size_t j = prior_answer.choice;
    for (size_t k = 0; k < m; ++k) {
      const double rk = t.domain_vector[k];
      const double mass = pq.weight[k] + prior;
      if (mass <= 0.0 || rk == 0.0) continue;
      pq.quality[k] += (new_truth[j] - old_truth[j]) * rk / mass;
      // The retro-delta is a first-order correction, not a convex update:
      // across many answers the per-task telescoping sums can compound past
      // the probability range (and Eq. 4 then takes log of a negative
      // number). Clamp after every delta; RunFullInference replaces these
      // estimates with the exact batch values periodically.
      pq.quality[k] = std::clamp(pq.quality[k], 0.0, 1.0);
    }
  }

  Answer answer{task, worker, choice};
  answers_of_task_[task].push_back(answer);
  answers_.push_back(answer);
  std::vector<size_t>& answered = workers_[worker].answered;
  answered.insert(std::lower_bound(answered.begin(), answered.end(), task),
                  task);

  // Epoch bumps: this task's inference state moved (step 1), and so did the
  // quality vector of the submitting worker and of every retro-updated prior
  // worker (step 2); the worker epochs key the benefit indexes and both key
  // the snapshot's copy-on-write sharing. The prior list names each
  // worker at most once (one answer per (worker, task)), so nobody is bumped
  // twice for one submission. The answer count moved too, which stales
  // every benefit index (DESIGN.md §16).
  ++task_epoch_[task];
  ++workers_[worker].epoch;
  for (const Answer& prior_answer : answers_of_task_[task]) {
    if (prior_answer.worker != worker) ++workers_[prior_answer.worker].epoch;
  }
  return OkStatus();
}

void IncrementalTruthInference::RunFullInference() {
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  RunFullInference(threads > 1 ? pool_.get() : nullptr);
}

void IncrementalTruthInference::RunFullInference(ThreadPool* pool) {
  std::vector<WorkerQuality> seeds;
  seeds.reserve(workers_.size());
  for (const auto& state : workers_) seeds.push_back(state.seed);

  // One step-1 kernel serves the EM iterations and the refresh below. The
  // EM runs on the engine's own answer lists and builds no M^(i): only its
  // qualities are kept.
  TruthStepKernel step1(tasks_, answers_of_task_, workers_.size());
  std::vector<WorkerQuality> qualities =
      TruthInference(options_).EstimateQualities(
          tasks_, answers_of_task_, workers_.size(), &seeds, &step1, pool);

  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].stats = qualities[w];
  }
  // O(1) invalidation: the batch re-run replaces every quality vector and
  // every posterior at once, so instead of walking all task and worker
  // epochs (the pre-§16 behavior) a single generation bump stales every
  // benefit index and every shared snapshot piece.
  ++generation_;
  // Rebuild M̂, M and s of every task from the converged qualities so later
  // OnAnswer calls continue from that state: one more step-1 pass of the
  // shared kernel. No epoch bump: the generation bump above already stales
  // every index in O(1). An unanswered task's state depends only on
  // r_i and l_i, and a task never loses its answers, so after the first
  // pass has written them (the constructor's rows are 1/l, not the
  // kernel's softmax of zeros) later passes refresh the answered tasks only.
  step1.Run(qualities, options_.quality_clamp, pool, &truth_matrices_,
            &task_truth_, &log_numerators_,
            /*write_unanswered=*/!unanswered_refreshed_);
  const std::vector<size_t>& answered = step1.answered_tasks();
  const size_t refreshed =
      unanswered_refreshed_ ? answered.size() : tasks_.size();
  ParallelFor(pool, refreshed, [&](size_t a) {
    const size_t i = unanswered_refreshed_ ? answered[a] : a;
    truth_entropy_[i] = Entropy(task_truth_[i]);
  });
  unanswered_refreshed_ = true;
}

std::vector<size_t> IncrementalTruthInference::InferredChoices() const {
  std::vector<size_t> choices(tasks_.size(), 0);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (!task_truth_[i].empty()) choices[i] = ArgMax(task_truth_[i]);
  }
  return choices;
}

}  // namespace docs::core

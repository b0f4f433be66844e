#include "core/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/parallel.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

/// True when `answer` can be scored against a task with `m` domains and `l`
/// choices under `qualities` without indexing out of bounds.
bool AnswerInBounds(const Answer& answer,
                    const std::vector<WorkerQuality>& qualities, size_t m,
                    size_t l) {
  return answer.worker < qualities.size() &&
         qualities[answer.worker].quality.size() == m && answer.choice < l;
}

/// Writes the stable softmax (Eq. 3's row normalization) of the log row
/// into `out` (log_row.size() entries).
void SoftmaxRowInto(const std::vector<double>& log_row, double* out) {
  const double lse = LogSumExp(log_row);
  for (size_t j = 0; j < log_row.size(); ++j) {
    out[j] = std::exp(log_row[j] - lse);
  }
}

/// As above, into row k of `out`.
void SoftmaxRowInto(const std::vector<double>& log_row, size_t k,
                    Matrix* out) {
  SoftmaxRowInto(log_row, out->mutable_data() + k * out->cols());
}

/// Index of `value` in `values`, appending it when absent.
size_t IndexOrAppend(std::vector<size_t>* values, size_t value) {
  const auto it = std::find(values->begin(), values->end(), value);
  if (it != values->end()) return static_cast<size_t>(it - values->begin());
  values->push_back(value);
  return values->size() - 1;
}

constexpr size_t kNoSlot = static_cast<size_t>(-1);

}  // namespace

Matrix ComputeTruthMatrix(const Task& task,
                          const std::vector<Answer>& task_answers,
                          const std::vector<WorkerQuality>& qualities,
                          double quality_clamp, size_t* skipped_answers) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  Matrix truth_matrix(m, l);
  // Stray answers (worker unknown to `qualities`, mismatched quality
  // dimension, out-of-range choice) are dropped up front: the baselines feed
  // this function caller-supplied answer lists.
  std::vector<const Answer*> valid;
  valid.reserve(task_answers.size());
  size_t skipped = 0;
  for (const Answer& answer : task_answers) {
    if (AnswerInBounds(answer, qualities, m, l)) {
      valid.push_back(&answer);
    } else {
      ++skipped;
    }
  }
  if (skipped_answers != nullptr) *skipped_answers = skipped;

  std::vector<double> log_row(l, 0.0);
  for (size_t k = 0; k < m; ++k) {
    std::fill(log_row.begin(), log_row.end(), 0.0);
    for (const Answer* answer : valid) {
      const double q =
          Clamp(qualities[answer->worker].quality[k], quality_clamp);
      const double log_correct = std::log(q);
      const double log_wrong =
          std::log((1.0 - q) / static_cast<double>(l - 1 == 0 ? 1 : l - 1));
      for (size_t j = 0; j < l; ++j) {
        log_row[j] += (answer->choice == j) ? log_correct : log_wrong;
      }
    }
    // Row-normalize (Eq. 3) via a stable softmax over the log numerators.
    SoftmaxRowInto(log_row, k, &truth_matrix);
  }
  DOCS_DCHECK_FINITE(truth_matrix, "truth matrix (Eq. 3)");
  return truth_matrix;
}

TruthStepKernel::TruthStepKernel(
    const std::vector<Task>& tasks,
    const std::vector<std::vector<Answer>>& answers_of_task,
    size_t num_workers)
    : tasks_(&tasks) {
  const size_t n = tasks.size();
  DOCS_CHECK_EQ(answers_of_task.size(), n);
  // Pass 1: the workers with answers (one correct slot each, in order of
  // first answer) and the distinct choice counts each of them answered.
  std::vector<size_t> slot_of_worker(num_workers, kNoSlot);
  std::vector<std::vector<size_t>> choice_counts;
  for (size_t i = 0; i < n; ++i) {
    for (const Answer& answer : answers_of_task[i]) {
      DOCS_CHECK_LT(answer.worker, num_workers);
      DOCS_CHECK_LT(answer.choice, tasks[i].num_choices);
      size_t& slot = slot_of_worker[answer.worker];
      if (slot == kNoSlot) {
        slot = workers_.size();
        workers_.push_back(answer.worker);
        choice_counts.emplace_back();
      }
      IndexOrAppend(&choice_counts[slot], tasks[i].num_choices);
    }
  }
  // Each worker's wrong-answer rows sit next to each other.
  wrong_begin_.reserve(workers_.size() + 1);
  wrong_begin_.push_back(0);
  for (const std::vector<size_t>& counts : choice_counts) {
    wrong_choices_.insert(wrong_choices_.end(), counts.begin(), counts.end());
    wrong_begin_.push_back(wrong_choices_.size());
  }

  // Pass 2: the per-task entries, the uniform rows of unanswered tasks (they
  // do not depend on qualities, so they are computed here, once) and the
  // memo keys of single-answer tasks. A memo is keyed by choice, not just
  // by l: for l > 2 the position of the correct term changes the softmax's
  // summation order.
  std::vector<size_t> uniform_choice_counts;
  std::vector<std::vector<size_t>> memos_of_slot(workers_.size());
  std::vector<double> zeros;
  entry_begin_.reserve(n + 1);
  entry_begin_.push_back(0);
  row_source_.assign(n, 0);
  size_t multi_answer_tasks = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t l = tasks[i].num_choices;
    for (const Answer& answer : answers_of_task[i]) {
      const size_t slot = slot_of_worker[answer.worker];
      // Pass 1 recorded l for this worker, so this only looks it up.
      const size_t wrong = wrong_begin_[slot] +
                           IndexOrAppend(&choice_counts[slot], l);
      entries_.push_back({answer.choice, slot, wrong});
    }
    entry_begin_.push_back(entries_.size());
    if (!answers_of_task[i].empty()) answered_.push_back(i);
    if (answers_of_task[i].size() >= 2) {
      row_source_[i] = multi_answer_tasks++;
    } else if (answers_of_task[i].empty()) {
      const size_t index = IndexOrAppend(&uniform_choice_counts, l);
      if (index == uniform_rows_.size()) {
        uniform_rows_.emplace_back(1, l);
        zeros.assign(l, 0.0);
        SoftmaxRowInto(zeros, 0, &uniform_rows_.back());
      }
      row_source_[i] = index;
    } else if (answers_of_task[i].size() == 1) {
      const Entry& entry = entries_.back();
      std::vector<size_t>& memos = memos_of_slot[entry.correct_slot];
      size_t found = kNoSlot;
      for (size_t index : memos) {
        if (memos_[index].wrong_slot == entry.wrong_slot &&
            memos_[index].choice == entry.choice) {
          found = index;
          break;
        }
      }
      if (found == kNoSlot) {
        found = memos_.size();
        memos.push_back(found);
        memos_.push_back(entry);
      }
      row_source_[i] = found;
    }
  }
  multi_blocks_.resize(multi_answer_tasks);
}

void TruthStepKernel::AccumulateRow(const Entry* begin, const Entry* end,
                                    size_t k, size_t l,
                                    std::vector<double>* row) const {
  row->assign(l, 0.0);
  for (const Entry* entry = begin; entry != end; ++entry) {
    const double log_correct = log_correct_[entry->correct_slot * m_ + k];
    const double log_wrong = log_wrong_[entry->wrong_slot * m_ + k];
    for (size_t j = 0; j < l; ++j) {
      (*row)[j] += (entry->choice == j) ? log_correct : log_wrong;
    }
  }
}

void TruthStepKernel::CopyRows(size_t i, size_t m, size_t l,
                               double* truth_matrix) const {
  const bool answered = entry_begin_[i + 1] != entry_begin_[i];
  const Matrix& source = answered ? memo_blocks_[row_source_[i]]
                                  : uniform_rows_[row_source_[i]];
  for (size_t k = 0; k < m; ++k) {
    for (size_t j = 0; j < l; ++j) {
      truth_matrix[k * l + j] = source(answered ? k : 0, j);
    }
  }
}

void TruthStepKernel::Prepare(const std::vector<WorkerQuality>& qualities,
                              double quality_clamp, ThreadPool* pool) {
  m_ = workers_.empty() ? 0 : qualities[workers_[0]].quality.size();

  // (1) Log tables, one row per (worker, domain): worker-owned slots.
  log_correct_.resize(workers_.size() * m_);
  log_wrong_.resize(wrong_choices_.size() * m_);
  ParallelFor(pool, workers_.size(), [&](size_t slot) {
    DOCS_DCHECK_LT(workers_[slot], qualities.size());
    const std::vector<double>& quality = qualities[workers_[slot]].quality;
    DOCS_DCHECK_EQ(quality.size(), m_);
    for (size_t k = 0; k < m_; ++k) {
      const double q = Clamp(quality[k], quality_clamp);
      log_correct_[slot * m_ + k] = std::log(q);
      for (size_t wrong = wrong_begin_[slot]; wrong < wrong_begin_[slot + 1];
           ++wrong) {
        const size_t l = wrong_choices_[wrong];
        log_wrong_[wrong * m_ + k] =
            std::log((1.0 - q) / static_cast<double>(l - 1 == 0 ? 1 : l - 1));
      }
    }
  });

  // (2) Softmax blocks of the single-answer tasks: memo-owned slots.
  memo_blocks_.resize(memos_.size());
  ParallelFor(pool, memos_.size(), [&](size_t index) {
    thread_local std::vector<double> log_row;
    const Entry& memo = memos_[index];
    const size_t l = wrong_choices_[memo.wrong_slot];
    Matrix& block = memo_blocks_[index];
    block.Resize(m_, l);
    for (size_t k = 0; k < m_; ++k) {
      AccumulateRow(&memo, &memo + 1, k, l, &log_row);
      SoftmaxRowInto(log_row, k, &block);
    }
  });
}

void TruthStepKernel::Iterate(const std::vector<WorkerQuality>& qualities,
                              double quality_clamp, ThreadPool* pool,
                              std::vector<std::vector<double>>* task_truth) {
  const std::vector<Task>& tasks = *tasks_;
  DOCS_CHECK_EQ(task_truth->size(), tasks.size());
  Prepare(qualities, quality_clamp, pool);

  // s_i of each answered task: task- and block-owned slots.
  ParallelFor(pool, answered_.size(), [&](size_t a) {
    // Per-thread scratch; it carries nothing across (task, domain) steps.
    thread_local std::vector<double> log_row;
    const size_t i = answered_[a];
    const std::vector<double>& r = tasks[i].domain_vector;
    const size_t m = r.size();
    const size_t l = tasks[i].num_choices;
    const Entry* begin = entries_.data() + entry_begin_[i];
    const Entry* end = entries_.data() + entry_begin_[i + 1];
    DOCS_DCHECK_LE(m, m_);
    const Matrix* rows;
    if (end - begin == 1) {
      rows = &memo_blocks_[row_source_[i]];
    } else {
      Matrix& block = multi_blocks_[row_source_[i]];
      block.Resize(m, l);
      for (size_t k = 0; k < m; ++k) {
        if (r[k] == 0.0) continue;  // a row the product below skips
        AccumulateRow(begin, end, k, l, &log_row);
        SoftmaxRowInto(log_row, k, &block);
      }
      rows = &block;
    }
    // s_i = r_i M^(i) over `rows`: the products and the summation order of
    // Matrix::LeftMultiplyInto, which skips the rows with r_k = 0.
    std::vector<double>& truth = (*task_truth)[i];
    truth.assign(l, 0.0);
    for (size_t k = 0; k < m; ++k) {
      const double rk = r[k];
      if (rk == 0.0) continue;
      for (size_t j = 0; j < l; ++j) truth[j] += rk * (*rows)(k, j);
    }
    // The domain vector always sums to 1 for the wrapper-produced tasks,
    // but guard against callers passing sub-normalized vectors.
    NormalizeInPlace(truth);
    DOCS_DCHECK_SIMPLEX(truth, 1e-6, "inferred task truth (Eq. 4)");
  });
}

void TruthStepKernel::BuildTruthMatrices(
    ThreadPool* pool, std::vector<Matrix>* truth_matrices,
    std::vector<std::vector<double>>* task_truth) {
  const std::vector<Task>& tasks = *tasks_;
  const size_t n = tasks.size();
  DOCS_CHECK_EQ(truth_matrices->size(), n);
  DOCS_CHECK_EQ(task_truth->size(), n);
  ParallelFor(pool, n, [&](size_t i) {
    thread_local std::vector<double> log_row;
    const Task& task = tasks[i];
    const std::vector<double>& r = task.domain_vector;
    const Entry* begin = entries_.data() + entry_begin_[i];
    const Entry* end = entries_.data() + entry_begin_[i + 1];
    Matrix& truth_matrix = (*truth_matrices)[i];
    if (end - begin >= 2) {
      truth_matrix = multi_blocks_[row_source_[i]];
      for (size_t k = 0; k < r.size(); ++k) {
        if (r[k] != 0.0) continue;  // Iterate() wrote this row
        AccumulateRow(begin, end, k, task.num_choices, &log_row);
        SoftmaxRowInto(log_row, k, &truth_matrix);
      }
    } else {
      truth_matrix.Resize(r.size(), task.num_choices);
      CopyRows(i, r.size(), task.num_choices, truth_matrix.mutable_data());
      if (begin == end) {
        truth_matrix.LeftMultiplyInto(r, &(*task_truth)[i]);
        NormalizeInPlace((*task_truth)[i]);
        DOCS_DCHECK_SIMPLEX((*task_truth)[i], 1e-6,
                            "inferred task truth (Eq. 4)");
      }
    }
    DOCS_DCHECK_FINITE(truth_matrix, "truth matrix (Eq. 3)");
  });
}

void TruthStepKernel::Run(const std::vector<WorkerQuality>& qualities,
                          double quality_clamp, ThreadPool* pool,
                          MatrixArena* truth_matrices,
                          std::vector<std::vector<double>>* task_truth,
                          std::vector<Matrix>* log_numerators,
                          bool write_unanswered) {
  const std::vector<Task>& tasks = *tasks_;
  const size_t n = tasks.size();
  DOCS_CHECK_EQ(truth_matrices->size(), n);
  DOCS_CHECK_EQ(task_truth->size(), n);
  if (log_numerators != nullptr) DOCS_CHECK_EQ(log_numerators->size(), n);
  Prepare(qualities, quality_clamp, pool);

  // Per-task M^(i) and s_i: task-owned slots.
  auto write_task = [&](size_t i) {
    // Per-thread scratch; it carries nothing across (task, domain) steps.
    thread_local std::vector<double> log_row;
    const Task& task = tasks[i];
    const size_t m = task.domain_vector.size();
    const size_t l = task.num_choices;
    const Entry* begin = entries_.data() + entry_begin_[i];
    const Entry* end = entries_.data() + entry_begin_[i + 1];
    const size_t count = static_cast<size_t>(end - begin);
    DOCS_DCHECK(count == 0 || m <= m_);
    const MatrixView view = (*truth_matrices)[i];
    DOCS_DCHECK(view.rows() == m && view.cols() == l)
        << "truth matrix block of task " << i << " is not " << m << " x " << l;
    double* truth_matrix = truth_matrices->block(i);
    Matrix* log_numer =
        log_numerators == nullptr ? nullptr : &(*log_numerators)[i];
    if (count <= 1) {
      // Rows that do not depend on this task: copy them. An unanswered
      // task's rows are all the same uniform row.
      CopyRows(i, m, l, truth_matrix);
      if (count == 0 && log_numer != nullptr) log_numer->Fill(0.0);
    }
    if (count >= 2 || (count == 1 && log_numer != nullptr)) {
      for (size_t k = 0; k < m; ++k) {
        AccumulateRow(begin, end, k, l, &log_row);
        if (log_numer != nullptr) {
          for (size_t j = 0; j < l; ++j) (*log_numer)(k, j) = log_row[j];
        }
        if (count >= 2) SoftmaxRowInto(log_row, truth_matrix + k * l);
      }
    }
    DOCS_DCHECK_FINITE(view.data(), "truth matrix (Eq. 3)");
    view.LeftMultiplyInto(task.domain_vector, &(*task_truth)[i]);
    // The domain vector always sums to 1 for the wrapper-produced tasks,
    // but guard against callers passing sub-normalized vectors.
    NormalizeInPlace((*task_truth)[i]);
    DOCS_DCHECK_SIMPLEX((*task_truth)[i], 1e-6, "inferred task truth (Eq. 4)");
  };
  if (write_unanswered) {
    ParallelFor(pool, n, write_task);
  } else {
    ParallelFor(pool, answered_.size(),
                [&](size_t a) { write_task(answered_[a]); });
  }
}

std::vector<WorkerQuality> InitializeQualityFromGolden(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<size_t>& golden_tasks,
    const std::vector<size_t>& golden_truth, double default_quality,
    double smoothing, size_t* skipped_answers) {
  CheckUnitInterval(default_quality, 0.0, "default quality");
  DOCS_CHECK_GE(smoothing, 0.0) << "negative smoothing pseudo-counts";
  const size_t m = tasks.empty() ? 0 : tasks[0].domain_vector.size();
  // Map task -> golden truth for O(1) membership tests. golden_tasks and
  // golden_truth are parallel arrays: entries past the shorter one have no
  // counterpart and are dropped (never read out of bounds), as are golden
  // indices outside the task list.
  std::vector<int> truth_of_task(tasks.size(), -1);
  const size_t golden_n = std::min(golden_tasks.size(), golden_truth.size());
  size_t skipped = golden_tasks.size() - golden_n;
  for (size_t g = 0; g < golden_n; ++g) {
    if (golden_tasks[g] >= tasks.size()) continue;
    truth_of_task[golden_tasks[g]] = static_cast<int>(golden_truth[g]);
  }

  std::vector<WorkerQuality> result(num_workers);
  std::vector<std::vector<double>> correct_mass(
      num_workers, std::vector<double>(m, 0.0));
  std::vector<std::vector<double>> total_mass(num_workers,
                                              std::vector<double>(m, 0.0));
  for (const Answer& answer : answers) {
    if (answer.task >= tasks.size() || answer.worker >= num_workers ||
        tasks[answer.task].domain_vector.size() != m) {
      ++skipped;
      continue;
    }
    const int truth = truth_of_task[answer.task];
    if (truth < 0) continue;
    const auto& r = tasks[answer.task].domain_vector;
    const bool correct = answer.choice == static_cast<size_t>(truth);
    for (size_t k = 0; k < m; ++k) {
      total_mass[answer.worker][k] += r[k];
      if (correct) correct_mass[answer.worker][k] += r[k];
    }
  }
  if (skipped_answers != nullptr) *skipped_answers = skipped;
  for (size_t w = 0; w < num_workers; ++w) {
    result[w].quality.resize(m);
    result[w].weight.resize(m);
    for (size_t k = 0; k < m; ++k) {
      // With smoothing == 0 and no golden evidence the ratio would be 0/0;
      // fall back to the default rather than minting a NaN quality.
      const double mass = total_mass[w][k] + smoothing;
      result[w].quality[k] =
          mass > 0.0
              ? (correct_mass[w][k] + smoothing * default_quality) / mass
              : default_quality;
      result[w].weight[k] = total_mass[w][k];
    }
    DOCS_DCHECK_UNIT_INTERVAL(result[w].quality, 1e-9,
                              "golden-seeded worker quality");
  }
  return result;
}

TruthInference::TruthInference(TruthInferenceOptions options)
    : options_(options) {}

TruthInferenceResult TruthInference::Run(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<WorkerQuality>* initial_quality) const {
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return Run(tasks, num_workers, answers, initial_quality,
             threads > 1 ? pool_.get() : nullptr);
}

void TruthInference::CheckInputs(const std::vector<Task>& tasks) const {
  // Caller contracts (programming errors, not recoverable input): options in
  // range and every TI prior a valid domain vector (Eq. 1). Tasks whose
  // dimension differs from tasks[0] are tolerated by Run() (their answers
  // are skipped), but each vector's entries must still be probabilities.
  CheckUnitInterval(options_.default_quality, 0.0, "default quality");
  DOCS_CHECK_GE(options_.quality_clamp, 0.0);
  DOCS_CHECK_LE(options_.quality_clamp, 0.5);
  for (const Task& task : tasks) {
    CheckUnitInterval(task.domain_vector, 1e-9,
                      "task domain vector (TI prior)");
  }
}

std::vector<WorkerQuality> TruthInference::SeedQualities(
    size_t num_workers, size_t m,
    const std::vector<WorkerQuality>* initial_quality) const {
  std::vector<WorkerQuality> qualities(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    if (initial_quality != nullptr && w < initial_quality->size() &&
        (*initial_quality)[w].quality.size() == m) {
      CheckUnitInterval((*initial_quality)[w].quality, 1e-9,
                        "seeded worker quality (Eq. 5)");
      qualities[w] = (*initial_quality)[w];
    } else {
      qualities[w].quality.assign(m, options_.default_quality);
      qualities[w].weight.assign(m, 0.0);
    }
  }
  return qualities;
}

TruthInferenceResult TruthInference::Run(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<WorkerQuality>* initial_quality, ThreadPool* pool) const {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();
  CheckInputs(tasks);

  TruthInferenceResult result;
  result.task_truth.resize(n);
  result.truth_matrices.resize(n);
  result.inferred_choice.assign(n, 0);

  // Per-task answer lists. Answers that cannot be attributed (task or worker
  // out of range, impossible choice) are dropped once here so both EM steps
  // see the same filtered view instead of indexing out of bounds.
  std::vector<std::vector<Answer>> answers_of_task(n);
  size_t stray = 0;
  for (const Answer& answer : answers) {
    if (answer.task >= n || answer.worker >= num_workers ||
        answer.choice >= tasks[answer.task].num_choices ||
        tasks[answer.task].domain_vector.size() != m) {
      ++stray;
      continue;
    }
    answers_of_task[answer.task].push_back(answer);
  }
  if (stray > 0) {
    DOCS_LOG(Warning) << "TruthInference::Run ignored " << stray
                      << " out-of-range answer(s)";
  }

  result.worker_quality = SeedQualities(num_workers, m, initial_quality);
  TruthStepKernel step1(tasks, answers_of_task, num_workers);
  RunIterations(tasks, answers_of_task, num_workers, &step1, pool, &result);
  // M^(i) of the last step 1, built once. With no iteration run the result
  // keeps its empty s_i and M^(i).
  if (result.iterations_run > 0) {
    step1.BuildTruthMatrices(pool, &result.truth_matrices, &result.task_truth);
  }

  for (size_t i = 0; i < n; ++i) {
    if (!result.task_truth[i].empty()) {
      result.inferred_choice[i] = ArgMax(result.task_truth[i]);
    }
  }
  return result;
}

std::vector<WorkerQuality> TruthInference::EstimateQualities(
    const std::vector<Task>& tasks,
    const std::vector<std::vector<Answer>>& answers_of_task,
    size_t num_workers, const std::vector<WorkerQuality>* initial_quality,
    TruthStepKernel* step1, ThreadPool* pool) const {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();
  CheckInputs(tasks);
  DOCS_CHECK_EQ(answers_of_task.size(), n);
  for (size_t i : step1->answered_tasks()) {
    DOCS_CHECK_EQ(tasks[i].domain_vector.size(), m)
        << "answered task " << i << " has another domain count than task 0";
  }

  TruthInferenceResult result;
  result.task_truth.resize(n);
  result.worker_quality = SeedQualities(num_workers, m, initial_quality);
  RunIterations(tasks, answers_of_task, num_workers, step1, pool, &result);
  return std::move(result.worker_quality);
}

void TruthInference::RunIterations(
    const std::vector<Task>& tasks,
    const std::vector<std::vector<Answer>>& answers_of_task,
    size_t num_workers, TruthStepKernel* step1, ThreadPool* pool,
    TruthInferenceResult* result) const {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();

  // Per-worker answer lists for step 2 (CSR), in the same global order the
  // sequential sweep visits them (task-major, then submission order within a
  // task): each worker's evidence accumulates in exactly that order, so the
  // parallel per-worker reduction is bit-identical to the sequential one.
  struct TaskChoice {
    size_t task;
    size_t choice;
  };
  std::vector<size_t> worker_begin(num_workers + 1, 0);
  for (const std::vector<Answer>& task_answers : answers_of_task) {
    for (const Answer& answer : task_answers) ++worker_begin[answer.worker + 1];
  }
  for (size_t w = 0; w < num_workers; ++w) {
    worker_begin[w + 1] += worker_begin[w];
  }
  std::vector<TaskChoice> worker_answers(worker_begin[num_workers]);
  {
    std::vector<size_t> next(worker_begin.begin(), worker_begin.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      for (const Answer& answer : answers_of_task[i]) {
        worker_answers[next[answer.worker]++] = {i, answer.choice};
      }
    }
  }

  // The convergence check's truth term count: step 1 once wrote l_i entries
  // of s_i for every task, answered or not.
  size_t truth_terms = 0;
  for (const Task& task : tasks) truth_terms += task.num_choices;

  const std::vector<WorkerQuality> seeded_quality = result->worker_quality;
  // Previous-iteration snapshots for the convergence check. Both are rotated
  // by swap, not copied: step 1 overwrites every answered task's s_i and
  // step 2 every quality entry, so the stale contents left in `result` by a
  // swap are never read — only their storage is reused. Unanswered tasks'
  // entries stay empty in both buffers.
  std::vector<std::vector<double>> prev_truth(n);
  std::vector<WorkerQuality> prev_quality = result->worker_quality;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Rotate: prev_truth takes the last iteration's truth, and step 1 below
    // refills result->task_truth (through buffers recycled from two
    // iterations ago). On break the freshly written truth stays in `result`.
    std::swap(prev_truth, result->task_truth);

    // --- Step 1: infer the truth from qualities (Eq. 2-4). ----------------
    step1->Iterate(result->worker_quality, options_.quality_clamp, pool,
                   &result->task_truth);

    // --- Step 2: estimate worker qualities from the truth (Eq. 5). --------
    // Parallel over workers: the Eq. 5 numerator/denominator of worker w sum
    // only w's own answers, accumulated in the same order as the sequential
    // task-major sweep — no cross-thread reduction is needed and the result
    // is identical for every thread count.
    std::swap(prev_quality, result->worker_quality);
    ParallelFor(pool, num_workers, [&](size_t w) {
      std::vector<double> numer(m, 0.0);
      std::vector<double> denom(m, 0.0);
      for (size_t a = worker_begin[w]; a < worker_begin[w + 1]; ++a) {
        const TaskChoice& tc = worker_answers[a];
        const auto& r = tasks[tc.task].domain_vector;
        const double s_iv = result->task_truth[tc.task][tc.choice];
        for (size_t k = 0; k < m; ++k) {
          numer[k] += r[k] * s_iv;
          denom[k] += r[k];
        }
      }
      // Hierarchical prior mean: the worker's overall accuracy pooled over
      // all domains (and her seed profile). Spammers are bad everywhere, so
      // a domain with little direct evidence borrows strength from the
      // worker's track record elsewhere instead of defaulting to a constant.
      double overall_numer = options_.quality_prior_strength *
                             options_.default_quality;
      double overall_denom = options_.quality_prior_strength;
      for (size_t k = 0; k < m; ++k) {
        overall_numer += numer[k] +
                         seeded_quality[w].quality[k] *
                             seeded_quality[w].weight[k];
        overall_denom += denom[k] + seeded_quality[w].weight[k];
      }
      const double overall_quality =
          overall_denom > 0.0 ? overall_numer / overall_denom
                              : options_.default_quality;
      WorkerQuality& quality = result->worker_quality[w];
      for (size_t k = 0; k < m; ++k) {
        // Seed evidence counts at its stored weight; the hierarchical pull
        // has quality_prior_strength pseudo-counts.
        const double seed_mass = seeded_quality[w].weight[k];
        const double prior_numer =
            seeded_quality[w].quality[k] * seed_mass +
            overall_quality * options_.quality_prior_strength;
        const double prior_mass =
            seed_mass + options_.quality_prior_strength;
        const double total_mass = denom[k] + prior_mass;
        if (total_mass > 0.0) {
          quality.quality[k] = (numer[k] + prior_numer) / total_mass;
        } else {
          // Pure paper formula (prior strength 0) with no data: keep seed.
          quality.quality[k] = seeded_quality[w].quality[k];
        }
        quality.weight[k] = denom[k] + seed_mass;
      }
      DOCS_DCHECK_UNIT_INTERVAL(quality.quality, 1e-9,
                                "worker quality (Eq. 5)");
    });

    // --- Convergence check (Delta of Section 6.3). -------------------------
    // Kept sequential: it is O(n l + |W| m) against the O(n m l R) steps
    // above, and a serial sum keeps the early-exit decision (and therefore
    // the iteration count) bit-identical to the historical behavior. An
    // unanswered task's s_i is the same every iteration, so its terms are
    // exactly 0; adding +0.0 to the non-negative sum leaves it unchanged, and
    // the sum runs over the answered tasks alone, in task order.
    double delta = 0.0;
    if (iter > 0) {
      double truth_change = 0.0;
      for (size_t i : step1->answered_tasks()) {
        const std::vector<double>& truth = result->task_truth[i];
        for (size_t j = 0; j < truth.size(); ++j) {
          truth_change += std::fabs(truth[j] - prev_truth[i][j]);
        }
      }
      double quality_change = 0.0;
      for (size_t w = 0; w < num_workers; ++w) {
        for (size_t k = 0; k < m; ++k) {
          quality_change += std::fabs(result->worker_quality[w].quality[k] -
                                      prev_quality[w].quality[k]);
        }
      }
      delta = (truth_terms > 0 ? truth_change / static_cast<double>(truth_terms)
                               : 0.0) +
              (num_workers * m > 0
                   ? quality_change / static_cast<double>(num_workers * m)
                   : 0.0);
      result->delta_history.push_back(delta);
    }
    result->iterations_run = iter + 1;
    if (iter > 0 && delta < options_.tolerance) break;
  }
}

}  // namespace docs::core

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/incremental_ti.h"
#include "core/truth_inference.h"
#include "crowd/worker_pool.h"

namespace docs::core {
namespace {

std::vector<Task> TwoDomainTasks(size_t n) {
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = {i % 2 == 0 ? 1.0 : 0.0, i % 2 == 0 ? 0.0 : 1.0};
    tasks[i].num_choices = 2;
  }
  return tasks;
}

TEST(IncrementalTiTest, InitialStateIsUniform) {
  IncrementalTruthInference engine(TwoDomainTasks(3));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(engine.task_truth(i)[0], 0.5, 1e-12);
    EXPECT_NEAR(engine.task_truth(i)[1], 0.5, 1e-12);
  }
}

TEST(IncrementalTiTest, RejectsOutOfRange) {
  IncrementalTruthInference engine(TwoDomainTasks(2));
  EXPECT_FALSE(engine.OnAnswer(0, 5, 0).ok());
  EXPECT_FALSE(engine.OnAnswer(0, 0, 7).ok());
}

TEST(IncrementalTiTest, RejectsDuplicateAnswer) {
  IncrementalTruthInference engine(TwoDomainTasks(2));
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  EXPECT_TRUE(engine.HasAnswered(0, 0));
  EXPECT_FALSE(engine.OnAnswer(0, 0, 1).ok());
  EXPECT_EQ(engine.num_answers(), 1u);
}

TEST(IncrementalTiTest, SingleAnswerMatchesBatchStepOne) {
  auto tasks = TwoDomainTasks(1);
  IncrementalTruthInference engine(tasks);
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());

  // Batch reference with the same (default) quality the worker had at
  // submission time.
  std::vector<WorkerQuality> qualities(1);
  qualities[0].quality = {engine.options().default_quality,
                          engine.options().default_quality};
  qualities[0].weight = {0.0, 0.0};
  Matrix reference = ComputeTruthMatrix(tasks[0], {{0, 0, 1}}, qualities,
                                        engine.options().quality_clamp);
  EXPECT_LT(reference.MaxAbsDiff(engine.truth_matrix(0)), 1e-9);
}

TEST(IncrementalTiTest, WorkerQualityUpdateFollowsPaperFormula) {
  auto tasks = TwoDomainTasks(1);  // task 0 fully in domain 0
  TruthInferenceOptions options;
  options.quality_prior_strength = 0.0;  // the paper's exact Eq. 5 update
  IncrementalTruthInference engine(std::move(tasks), options);
  const double q0 = engine.options().default_quality;
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  const double s_after = engine.task_truth(0)[1];
  // q_k = (q*u + s_{i,a}*r_k)/(u + r_k) with u = 0, r_0 = 1 -> s_after.
  EXPECT_NEAR(engine.worker_quality(0).quality[0], s_after, 1e-12);
  EXPECT_NEAR(engine.worker_quality(0).weight[0], 1.0, 1e-12);
  // Domain 1 has r = 0: quality unchanged, weight 0.
  EXPECT_NEAR(engine.worker_quality(0).quality[1], q0, 1e-12);
  EXPECT_NEAR(engine.worker_quality(0).weight[1], 0.0, 1e-12);
}

TEST(IncrementalTiTest, PriorWorkersQualityAdjustedOnNewAnswer) {
  auto tasks = TwoDomainTasks(1);
  TruthInferenceOptions options;
  options.quality_prior_strength = 0.0;  // the paper's exact step-2 rule
  IncrementalTruthInference engine(std::move(tasks), options);
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  const double q_before = engine.worker_quality(0).quality[0];
  const double s_before = engine.task_truth(0)[1];
  ASSERT_TRUE(engine.OnAnswer(1, 0, 1).ok());  // agreeing second worker
  const double s_after = engine.task_truth(0)[1];
  // Agreement raises the shared truth mass, which lifts worker 0's quality
  // by (s_new - s_old) * r / u exactly (the Section 4.2 step-2 rule).
  EXPECT_GT(s_after, s_before);
  EXPECT_NEAR(engine.worker_quality(0).quality[0],
              q_before + (s_after - s_before), 1e-9);
}

TEST(IncrementalTiTest, MapSmoothedUpdateShrinksTowardSeed) {
  // With a positive prior strength the first answer moves the quality only
  // partially away from the seed: q = (q0 * prior + s * r) / (prior + r).
  auto tasks = TwoDomainTasks(1);
  TruthInferenceOptions options;
  options.quality_prior_strength = 2.0;
  IncrementalTruthInference engine(std::move(tasks), options);
  const double q0 = engine.options().default_quality;
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  const double s_after = engine.task_truth(0)[1];
  EXPECT_NEAR(engine.worker_quality(0).quality[0],
              (q0 * 2.0 + s_after) / 3.0, 1e-12);
}

TEST(IncrementalTiTest, SetWorkerQualitySeedsBothStatsAndSeed) {
  IncrementalTruthInference engine(TwoDomainTasks(2));
  WorkerQuality expert;
  expert.quality = {0.95, 0.6};
  expert.weight = {10.0, 10.0};
  ASSERT_TRUE(engine.SetWorkerQuality(0, expert).ok());
  EXPECT_NEAR(engine.worker_quality(0).quality[0], 0.95, 1e-12);
}

TEST(IncrementalTiTest, SetWorkerQualityRejectsDimensionMismatch) {
  IncrementalTruthInference engine(TwoDomainTasks(2));
  WorkerQuality narrow;
  narrow.quality = {0.9};  // tasks span two domains
  narrow.weight = {1.0};
  EXPECT_EQ(engine.SetWorkerQuality(0, narrow).code(),
            StatusCode::kInvalidArgument);

  WorkerQuality lopsided;
  lopsided.quality = {0.9, 0.8};
  lopsided.weight = {1.0};  // weight vector too short
  EXPECT_EQ(engine.SetWorkerQuality(0, lopsided).code(),
            StatusCode::kInvalidArgument);

  // The rejected seeds must not have corrupted worker 0's state: the next
  // answer still runs the full-dimension quality update without faulting.
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  EXPECT_EQ(engine.worker_quality(0).quality.size(), 2u);

  WorkerQuality good;
  good.quality = {0.9, 0.8};
  good.weight = {5.0, 5.0};
  EXPECT_TRUE(engine.SetWorkerQuality(1, good).ok());
}

TEST(IncrementalTiTest, RetroUpdateKeepsQualitiesInRange) {
  // Regression for the retro-update clamp: the Section 4.2 correction
  // q += (s_new - s_old) * r / mass is first-order, not convex, and the
  // stored estimate must stay a probability through adversarial streams
  // (early contrarian answers followed by agreeing floods, with periodic
  // full re-inference in between) or Eq. 4 takes log of a negative number.
  const size_t n = 12;
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = {i % 2 == 0 ? 0.9 : 0.1, i % 2 == 0 ? 0.1 : 0.9};
    tasks[i].num_choices = 2;
  }
  TruthInferenceOptions options;
  options.quality_prior_strength = 0.0;  // the paper's exact update
  IncrementalTruthInference engine(std::move(tasks), options);

  auto all_in_range = [&] {
    for (size_t w = 0; w < engine.num_workers(); ++w) {
      for (double q : engine.worker_quality(w).quality) {
        ASSERT_GE(q, 0.0);
        ASSERT_LE(q, 1.0);
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    // Worker 0 answers first, while her accumulated mass is small...
    ASSERT_TRUE(engine.OnAnswer(0, i, 0).ok());
    all_in_range();
    // ...then a flood of disagreeing workers swings s_i, and every flood
    // answer retro-adjusts worker 0 by the full delta over that small mass.
    for (size_t w = 1; w <= 15; ++w) {
      ASSERT_TRUE(engine.OnAnswer(w, i, 1).ok());
      all_in_range();
    }
    if (i % 4 == 3) {
      engine.RunFullInference();
      all_in_range();
    }
  }
}

TEST(IncrementalTiTest, FullInferenceRestoresBatchParity) {
  // The incremental estimates drift from the batch fixed point between
  // re-inference runs (Section 4.2 accepts the drift for O(1) updates);
  // RunFullInference snaps the worker qualities back to the exact batch
  // values. Pin both halves: bounded drift before, bit-equality after.
  const size_t n = 50, num_workers = 15, m = 2;
  auto tasks = TwoDomainTasks(n);
  Rng rng(11);
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = num_workers;
  auto workers = crowd::MakeWorkerPool(m, {0, 1}, pool_options, 11);

  IncrementalTruthInference engine(tasks);
  std::vector<Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < 7; ++a) {
      const size_t w = (i * 3 + a * 4) % num_workers;
      if (engine.HasAnswered(w, i)) continue;
      const size_t choice =
          crowd::GenerateAnswer(workers[w], i % 2, i % 2, 2, rng);
      answers.push_back({i, w, choice});
      ASSERT_TRUE(engine.OnAnswer(w, i, choice).ok());
    }
  }

  TruthInference batch(engine.options());
  const auto reference = batch.Run(tasks, engine.num_workers(), answers);

  double drift_before = 0.0;
  for (size_t w = 0; w < engine.num_workers(); ++w) {
    for (size_t k = 0; k < m; ++k) {
      const double q = engine.worker_quality(w).quality[k];
      ASSERT_GE(q, 0.0);
      ASSERT_LE(q, 1.0);
      drift_before = std::max(
          drift_before, std::fabs(q - reference.worker_quality[w].quality[k]));
    }
  }
  EXPECT_GT(drift_before, 0.0);   // the one-pass estimates do drift...
  EXPECT_LT(drift_before, 0.25);  // ...but stay near the batch fixed point.

  engine.RunFullInference();
  for (size_t w = 0; w < engine.num_workers(); ++w) {
    EXPECT_EQ(engine.worker_quality(w).quality,
              reference.worker_quality[w].quality)
        << "worker " << w;
    EXPECT_EQ(engine.worker_quality(w).weight,
              reference.worker_quality[w].weight)
        << "worker " << w;
  }
}

TEST(IncrementalTiTest, RunFullInferenceMatchesBatchEngine) {
  const size_t n = 40, num_workers = 15, m = 2;
  auto tasks = TwoDomainTasks(n);
  Rng rng(5);
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = num_workers;
  auto workers = crowd::MakeWorkerPool(m, {0, 1}, pool_options, 5);

  IncrementalTruthInference incremental(tasks);
  std::vector<Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    const size_t domain = i % 2;
    for (size_t a = 0; a < 5; ++a) {
      const size_t w = (i + a * 3) % num_workers;
      if (incremental.HasAnswered(w, i)) continue;
      const size_t choice =
          crowd::GenerateAnswer(workers[w], domain, i % 2, 2, rng);
      answers.push_back({i, w, choice});
      ASSERT_TRUE(incremental.OnAnswer(w, i, choice).ok());
    }
  }
  incremental.RunFullInference();

  TruthInference batch(incremental.options());
  auto reference = batch.Run(tasks, incremental.num_workers(), answers);
  // RunFullInference refreshes the cached M/s from the *converged* worker
  // qualities (one extra E-step beyond where the batch engine stopped), so
  // agreement is up to the convergence tolerance, not bit-exact.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LT(L1Distance(incremental.task_truth(i), reference.task_truth[i]),
              1e-4);
  }
  EXPECT_EQ(incremental.InferredChoices(), reference.inferred_choice);
  for (size_t w = 0; w < incremental.num_workers(); ++w) {
    for (size_t k = 0; k < m; ++k) {
      EXPECT_NEAR(incremental.worker_quality(w).quality[k],
                  reference.worker_quality[w].quality[k], 1e-9);
    }
  }
}

TEST(IncrementalTiTest, IncrementalTracksBatchApproximately) {
  // Without periodic re-runs the incremental engine should still land on
  // mostly the same truths as the batch engine (Section 4.2 notes it may be
  // slightly worse, not wildly different).
  const size_t n = 60, num_workers = 20, m = 2;
  auto tasks = TwoDomainTasks(n);
  Rng rng(6);
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = num_workers;
  auto workers = crowd::MakeWorkerPool(m, {0, 1}, pool_options, 6);

  IncrementalTruthInference incremental(tasks);
  std::vector<Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < 7; ++a) {
      const size_t w = (i * 5 + a * 2) % num_workers;
      if (incremental.HasAnswered(w, i)) continue;
      const size_t choice =
          crowd::GenerateAnswer(workers[w], i % 2, i % 2, 2, rng);
      answers.push_back({i, w, choice});
      ASSERT_TRUE(incremental.OnAnswer(w, i, choice).ok());
    }
  }
  TruthInference batch(incremental.options());
  auto reference = batch.Run(tasks, incremental.num_workers(), answers);
  size_t agree = 0;
  auto choices = incremental.InferredChoices();
  for (size_t i = 0; i < n; ++i) agree += choices[i] == reference.inferred_choice[i];
  EXPECT_GT(static_cast<double>(agree) / n, 0.85);
}

TEST(IncrementalTiTest, TruthStaysNormalized) {
  auto tasks = TwoDomainTasks(4);
  IncrementalTruthInference engine(tasks);
  Rng rng(8);
  for (size_t w = 0; w < 6; ++w) {
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.OnAnswer(w, i, rng.UniformInt(2)).ok());
      EXPECT_TRUE(IsDistribution(engine.task_truth(i), 1e-9));
    }
  }
}

TEST(IncrementalTiTest, SetWorkerQualityRejectsCorruptValues) {
  // Seeds arrive from stores and checkpoints, i.e. from disk: corrupt values
  // must come back as InvalidArgument, not sail into the EM update.
  IncrementalTruthInference engine(TwoDomainTasks(2));

  WorkerQuality poisoned;
  poisoned.quality = {std::nan(""), 0.8};
  poisoned.weight = {1.0, 1.0};
  EXPECT_EQ(engine.SetWorkerQuality(0, poisoned).code(),
            StatusCode::kInvalidArgument);

  WorkerQuality inflated;
  inflated.quality = {1.5, 0.8};  // Eq. 5 qualities live in [0, 1]
  inflated.weight = {1.0, 1.0};
  EXPECT_EQ(engine.SetWorkerQuality(0, inflated).code(),
            StatusCode::kInvalidArgument);

  WorkerQuality negative_weight;
  negative_weight.quality = {0.9, 0.8};
  negative_weight.weight = {-1.0, 1.0};
  EXPECT_EQ(engine.SetWorkerQuality(0, negative_weight).code(),
            StatusCode::kInvalidArgument);

  // Rejections leave the worker untouched and answerable.
  ASSERT_TRUE(engine.OnAnswer(0, 0, 0).ok());
  for (double q : engine.worker_quality(0).quality) {
    EXPECT_TRUE(std::isfinite(q));
  }
}

// --- Bounds, answered-set shape, epoch tags ----------------------------------

TEST(IncrementalTiTest, HasAnsweredOutOfRangeReadsFalse) {
  // Regression: HasAnswered(worker, task) with task >= num_tasks() used to
  // index past the end of the per-worker bitmap. Both out-of-range axes must
  // read as "not answered".
  IncrementalTruthInference engine(TwoDomainTasks(2));
  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());

  EXPECT_FALSE(engine.HasAnswered(0, 2));            // task past the list
  EXPECT_FALSE(engine.HasAnswered(0, size_t{1} << 40));
  EXPECT_FALSE(engine.HasAnswered(7, 0));            // unknown worker
  EXPECT_FALSE(engine.HasAnswered(7, size_t{1} << 40));
  EXPECT_TRUE(engine.HasAnswered(0, 0));
}

TEST(IncrementalTiTest, AnsweredTasksIsSortedRegardlessOfSubmissionOrder) {
  IncrementalTruthInference engine(TwoDomainTasks(6));
  for (size_t task : {4u, 1u, 5u, 0u, 2u}) {
    ASSERT_TRUE(engine.OnAnswer(0, task, 0).ok());
  }
  const std::vector<size_t> expected = {0, 1, 2, 4, 5};
  EXPECT_EQ(engine.answered_tasks(0), expected);
  EXPECT_TRUE(engine.answered_tasks(3).empty());  // never-seen worker
  for (size_t task : expected) EXPECT_TRUE(engine.HasAnswered(0, task));
  EXPECT_FALSE(engine.HasAnswered(0, 3));
}

TEST(IncrementalTiTest, OnAnswerBumpsTaskSubmitterAndRetroWorkers) {
  // The benefit index and the snapshot's copy-on-write sharing key on these
  // epochs, so every quality/truth movement must be visible: an answer
  // touches its task, the submitting worker, and (via the step-2 retro
  // update) every prior answerer of the same task.
  IncrementalTruthInference engine(TwoDomainTasks(3));
  engine.EnsureWorker(0);
  engine.EnsureWorker(1);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(engine.task_epoch(i), 1u);
  EXPECT_EQ(engine.worker_epoch(0), 1u);
  EXPECT_EQ(engine.worker_epoch(1), 1u);

  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  EXPECT_EQ(engine.task_epoch(0), 2u);
  EXPECT_EQ(engine.task_epoch(1), 1u);  // untouched task
  EXPECT_EQ(engine.worker_epoch(0), 2u);
  EXPECT_EQ(engine.worker_epoch(1), 1u);  // uninvolved worker

  // Worker 1 answers the same task: worker 0 answered it before, so her
  // quality is retro-adjusted and her epoch must move too.
  ASSERT_TRUE(engine.OnAnswer(1, 0, 0).ok());
  EXPECT_EQ(engine.task_epoch(0), 3u);
  EXPECT_EQ(engine.worker_epoch(1), 2u);
  EXPECT_EQ(engine.worker_epoch(0), 3u);

  // A disjoint task leaves worker 0 alone.
  ASSERT_TRUE(engine.OnAnswer(1, 1, 0).ok());
  EXPECT_EQ(engine.task_epoch(1), 2u);
  EXPECT_EQ(engine.worker_epoch(1), 3u);
  EXPECT_EQ(engine.worker_epoch(0), 3u);
}

TEST(IncrementalTiTest, QualitySeedBumpsEpochAndFullInferenceBumpsGeneration) {
  IncrementalTruthInference engine(TwoDomainTasks(2));
  engine.EnsureWorker(0);
  engine.EnsureWorker(1);

  WorkerQuality seed;
  seed.quality = {0.9, 0.8};
  seed.weight = {2.0, 2.0};
  ASSERT_TRUE(engine.SetWorkerQuality(0, seed).ok());
  EXPECT_EQ(engine.worker_epoch(0), 2u);
  EXPECT_EQ(engine.worker_epoch(1), 1u);

  ASSERT_TRUE(engine.OnAnswer(0, 0, 1).ok());
  ASSERT_TRUE(engine.OnAnswer(1, 1, 0).ok());
  const uint64_t task0 = engine.task_epoch(0);
  const uint64_t task1 = engine.task_epoch(1);
  const uint64_t worker0 = engine.worker_epoch(0);
  const uint64_t worker1 = engine.worker_epoch(1);
  const uint64_t generation = engine.generation();
  EXPECT_EQ(generation, 1u);  // starts live, like the epochs

  // The full re-run replaces every task's and worker's parameters behind ONE
  // generation bump — O(1) invalidation of every benefit index. The per-item
  // epochs must NOT move: walking every task and worker to bump them is
  // exactly the O(n) cost the generation exists to avoid.
  engine.RunFullInference();
  EXPECT_EQ(engine.generation(), generation + 1);
  EXPECT_EQ(engine.task_epoch(0), task0);
  EXPECT_EQ(engine.task_epoch(1), task1);
  EXPECT_EQ(engine.worker_epoch(0), worker0);
  EXPECT_EQ(engine.worker_epoch(1), worker1);
}

// --- Continuity across RunFullInference ------------------------------------

/// Bitwise equality (memcmp), stricter than operator== on doubles.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return SameBits(std::span<const double>(a), std::span<const double>(b));
}

/// Adds one answer's Eq. 3 log terms to `log_numer` the way the per-answer
/// loop did before the hoisted step-1 kernel (and as OnAnswer still does).
void AddAnswerTerms(const std::vector<double>& quality, size_t choice,
                    double quality_clamp, Matrix* log_numer) {
  const size_t l = log_numer->cols();
  for (size_t k = 0; k < log_numer->rows(); ++k) {
    const double q =
        std::min(1.0 - quality_clamp, std::max(quality_clamp, quality[k]));
    const double log_correct = std::log(q);
    const double log_wrong =
        std::log((1.0 - q) / static_cast<double>(l > 1 ? l - 1 : 1));
    for (size_t j = 0; j < l; ++j) {
      (*log_numer)(k, j) += (j == choice) ? log_correct : log_wrong;
    }
  }
}

Matrix SoftmaxRows(const Matrix& log_numer) {
  Matrix truth_matrix(log_numer.rows(), log_numer.cols());
  for (size_t k = 0; k < log_numer.rows(); ++k) {
    const std::vector<double> row = log_numer.Row(k);
    const double lse = LogSumExp(row);
    for (size_t j = 0; j < row.size(); ++j) {
      truth_matrix(k, j) = std::exp(row[j] - lse);
    }
  }
  return truth_matrix;
}

/// Campaign-shaped task set: mixed l, most tasks left unanswered.
std::vector<Task> MixedTasks(size_t n, size_t m, Rng& rng) {
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = rng.Dirichlet(m, 0.5);
    tasks[i].num_choices = i % 5 == 0 ? 3 : 2;
  }
  return tasks;
}

/// After RunFullInference every task's M̂, M and s must equal a per-task
/// recompute (the pre-kernel loop) on the converged qualities, bit for bit.
void ExpectStateMatchesRecompute(const IncrementalTruthInference& engine) {
  const double clamp = engine.options().quality_clamp;
  std::vector<WorkerQuality> qualities;
  for (size_t w = 0; w < engine.num_workers(); ++w) {
    qualities.push_back(engine.worker_quality(w));
  }
  std::vector<std::vector<Answer>> answers_of_task(engine.num_tasks());
  for (const Answer& answer : engine.answers()) {
    answers_of_task[answer.task].push_back(answer);
  }
  for (size_t i = 0; i < engine.num_tasks(); ++i) {
    const Task& task = engine.tasks()[i];
    Matrix log_numer(task.domain_vector.size(), task.num_choices, 0.0);
    for (const Answer& answer : answers_of_task[i]) {
      AddAnswerTerms(qualities[answer.worker].quality, answer.choice, clamp,
                     &log_numer);
    }
    const Matrix truth_matrix =
        ComputeTruthMatrix(task, answers_of_task[i], qualities, clamp);
    std::vector<double> truth = truth_matrix.LeftMultiply(task.domain_vector);
    NormalizeInPlace(truth);
    EXPECT_TRUE(SameBits(engine.log_numerator(i).data(), log_numer.data()))
        << "task " << i;
    EXPECT_TRUE(SameBits(engine.truth_matrix(i).data(), truth_matrix.data()))
        << "task " << i;
    EXPECT_TRUE(SameBits(engine.task_truth(i), truth)) << "task " << i;
  }
}

TEST(IncrementalTiTest, FullInferenceStateContinuesBitwiseIntoOnAnswer) {
  const size_t n = 240, m = 4, num_workers = 50;
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Rng rng(31);
    TruthInferenceOptions options;
    options.num_threads = threads;
    IncrementalTruthInference engine(MixedTasks(n, m, rng), options);
    WorkerQuality seed;
    seed.quality = {0.9, 0.6, 0.8, 0.7};
    seed.weight = {3.0, 1.0, 2.0, 0.5};
    ASSERT_TRUE(engine.SetWorkerQuality(2, seed).ok());
    auto answer = [&](size_t w, size_t i) {
      if (engine.HasAnswered(w, i)) return;
      const size_t choice = rng.UniformInt(engine.tasks()[i].num_choices);
      ASSERT_TRUE(engine.OnAnswer(w, i, choice).ok());
    };
    // Golden-like tasks with many answers, then scattered single answers.
    for (size_t i = 0; i < 4; ++i) {
      for (size_t w = 0; w < 30; ++w) answer((w * 3 + i) % num_workers, i);
    }
    for (size_t a = 0; a < 150; ++a) {
      answer(rng.UniformInt(num_workers), 4 + rng.UniformInt(n - 4));
    }
    engine.RunFullInference();
    ExpectStateMatchesRecompute(engine);

    // Further answers extend M̂ from the refreshed state exactly as the
    // pre-kernel path did: one answer's log terms on top, then a softmax.
    std::vector<Matrix> expected;
    for (size_t i = 0; i < n; ++i) expected.push_back(engine.log_numerator(i));
    for (size_t a = 0; a < 120; ++a) {
      const size_t w = rng.UniformInt(num_workers + 5);  // some new workers
      const size_t i = rng.UniformInt(n);
      if (engine.HasAnswered(w, i)) continue;
      const std::vector<double> quality =
          w < engine.num_workers()
              ? engine.worker_quality(w).quality
              : std::vector<double>(m, engine.options().default_quality);
      const size_t choice = rng.UniformInt(engine.tasks()[i].num_choices);
      ASSERT_TRUE(engine.OnAnswer(w, i, choice).ok());
      AddAnswerTerms(quality, choice, engine.options().quality_clamp,
                     &expected[i]);
      EXPECT_TRUE(
          SameBits(engine.log_numerator(i).data(), expected[i].data()))
          << "task " << i << " after answer " << a;
      EXPECT_TRUE(SameBits(engine.truth_matrix(i).data(),
                           SoftmaxRows(expected[i]).data()))
          << "task " << i << " after answer " << a;
    }
    // And a second periodic re-run lands on the recompute again.
    engine.RunFullInference();
    ExpectStateMatchesRecompute(engine);
  }
}

/// After each of three periodic re-runs the engine's whole state must equal
/// a reconstruction from the public API, bit for bit: the qualities of
/// TruthInference::Run on the stored answers and seeds, then one full
/// TruthStepKernel::Run (with log numerators) on those qualities. Tasks with
/// exact r_k = 0 entries, tasks that stay unanswered across every re-run and
/// tasks first answered between re-runs are all covered.
TEST(IncrementalTiTest, EveryFullInferenceMatchesPublicRunThenKernelStep) {
  const size_t n = 180, m = 5, num_workers = 30;
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Rng rng(41);
    std::vector<Task> tasks = MixedTasks(n, m, rng);
    for (size_t i = 0; i < n; i += 3) {
      // Zero out two domains and renormalize: exact zeros in r.
      std::vector<double>& r = tasks[i].domain_vector;
      r[i % m] = 0.0;
      r[(i + 2) % m] = 0.0;
      NormalizeInPlace(r);
    }
    TruthInferenceOptions options;
    options.num_threads = threads;
    IncrementalTruthInference engine(tasks, options);
    WorkerQuality seed;
    seed.quality = {0.9, 0.6, 0.8, 0.7, 0.75};
    seed.weight = {3.0, 1.0, 2.0, 0.5, 0.0};
    ASSERT_TRUE(engine.SetWorkerQuality(4, seed).ok());

    for (size_t pass = 0; pass < 3; ++pass) {
      SCOPED_TRACE(pass);
      // Multi-answer tasks at the front, then scattered single answers over
      // the first two thirds; the last third stays unanswered throughout.
      for (size_t a = 0; a < 40; ++a) {
        const size_t w = rng.UniformInt(num_workers);
        const size_t i = a < 20 ? a % 6 : rng.UniformInt(2 * n / 3);
        if (engine.HasAnswered(w, i)) continue;
        ASSERT_TRUE(
            engine.OnAnswer(w, i, rng.UniformInt(tasks[i].num_choices)).ok());
      }
      engine.RunFullInference();

      std::vector<WorkerQuality> seeds;
      for (size_t w = 0; w < engine.num_workers(); ++w) {
        seeds.push_back(engine.worker_seed(w));
      }
      const TruthInferenceResult reference =
          TruthInference(options).Run(tasks, engine.num_workers(),
                                      engine.answers(), &seeds);
      for (size_t w = 0; w < engine.num_workers(); ++w) {
        EXPECT_TRUE(SameBits(engine.worker_quality(w).quality,
                             reference.worker_quality[w].quality))
            << "worker " << w;
        EXPECT_TRUE(SameBits(engine.worker_quality(w).weight,
                             reference.worker_quality[w].weight))
            << "worker " << w;
      }

      std::vector<std::vector<Answer>> answers_of_task(n);
      for (const Answer& answer : engine.answers()) {
        answers_of_task[answer.task].push_back(answer);
      }
      MatrixArena truth_matrices;
      std::vector<std::vector<double>> task_truth(n);
      std::vector<Matrix> log_numerators;
      for (const Task& task : tasks) {
        truth_matrices.Append(m, task.num_choices);
        log_numerators.emplace_back(m, task.num_choices, 0.0);
      }
      TruthStepKernel kernel(tasks, answers_of_task, engine.num_workers());
      kernel.Run(reference.worker_quality, options.quality_clamp, nullptr,
                 &truth_matrices, &task_truth, &log_numerators);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(SameBits(engine.log_numerator(i).data(),
                             log_numerators[i].data()))
            << "task " << i;
        EXPECT_TRUE(SameBits(engine.truth_matrix(i).data(),
                             truth_matrices[i].data()))
            << "task " << i;
        EXPECT_TRUE(SameBits(engine.task_truth(i), task_truth[i]))
            << "task " << i;
        const double entropy = Entropy(task_truth[i]);
        EXPECT_TRUE(SameBits({engine.truth_entropy(i)}, {entropy}))
            << "task " << i;
      }
    }
  }
}

}  // namespace
}  // namespace docs::core

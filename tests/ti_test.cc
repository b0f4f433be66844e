#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "common/math_utils.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/truth_inference.h"
#include "crowd/campaign.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

namespace docs::core {
namespace {

// The Section 4.1 running example: task t1 with r = [0, 0.78, 0.22], two
// choices, three workers with the Table 1 qualities; w1 answers "yes" (0),
// w2 and w3 answer "no" (1).
struct PaperExample {
  Task task;
  std::vector<Answer> answers;
  std::vector<WorkerQuality> qualities;
};

PaperExample MakePaperExample() {
  PaperExample ex;
  ex.task.domain_vector = {0.0, 0.78, 0.22};
  ex.task.num_choices = 2;
  ex.answers = {{0, 0, 0}, {0, 1, 1}, {0, 2, 1}};
  ex.qualities.resize(3);
  ex.qualities[0].quality = {0.3, 0.9, 0.6};
  ex.qualities[1].quality = {0.9, 0.6, 0.3};
  ex.qualities[2].quality = {0.6, 0.3, 0.9};
  for (auto& q : ex.qualities) q.weight = {1.0, 1.0, 1.0};
  return ex;
}

TEST(ComputeTruthMatrixTest, PaperRunningExample) {
  auto ex = MakePaperExample();
  Matrix truth_matrix =
      ComputeTruthMatrix(ex.task, ex.answers, ex.qualities, 0.001);
  // Paper: M(1)1 = [0.03, 0.97], M(1)2 = [0.93, 0.07], M(1)3 = [0.28, 0.72].
  EXPECT_NEAR(truth_matrix(0, 0), 0.03, 0.01);
  EXPECT_NEAR(truth_matrix(0, 1), 0.97, 0.01);
  EXPECT_NEAR(truth_matrix(1, 0), 0.93, 0.01);
  EXPECT_NEAR(truth_matrix(1, 1), 0.07, 0.01);
  EXPECT_NEAR(truth_matrix(2, 0), 0.28, 0.01);
  EXPECT_NEAR(truth_matrix(2, 1), 0.72, 0.01);

  // s1 = r x M = [0.79, 0.21]: the minority "yes" wins because w1 is the
  // sports expert and the task is mostly about sports.
  auto s = truth_matrix.LeftMultiply(ex.task.domain_vector);
  EXPECT_NEAR(s[0], 0.79, 0.01);
  EXPECT_NEAR(s[1], 0.21, 0.01);
  EXPECT_GT(s[0], s[1]);
}

TEST(ComputeTruthMatrixTest, NoAnswersYieldsUniformRows) {
  Task task;
  task.domain_vector = {0.5, 0.5};
  task.num_choices = 3;
  std::vector<WorkerQuality> qualities;
  Matrix truth_matrix = ComputeTruthMatrix(task, {}, qualities);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(truth_matrix(k, j), 1.0 / 3.0, 1e-12);
    }
  }
}

TEST(ComputeTruthMatrixTest, SkipsStrayAnswersWithCount) {
  auto ex = MakePaperExample();
  const Matrix clean =
      ComputeTruthMatrix(ex.task, ex.answers, ex.qualities, 0.001);

  auto answers = ex.answers;
  answers.push_back({0, 9, 0});  // worker with no quality vector at all
  answers.push_back({0, 1, 5});  // choice out of range (l = 2)
  auto qualities = ex.qualities;
  qualities.emplace_back();  // worker 3 exists but with a 0-dim quality vector
  answers.push_back({0, 3, 0});

  size_t skipped = 0;
  const Matrix got =
      ComputeTruthMatrix(ex.task, answers, qualities, 0.001, &skipped);
  EXPECT_EQ(skipped, 3u);
  // The strays contribute nothing: bitwise equal to the clean computation.
  EXPECT_EQ(got.data(), clean.data());
}

TEST(ComputeTruthMatrixTest, RowsAreDistributions) {
  auto ex = MakePaperExample();
  Matrix truth_matrix = ComputeTruthMatrix(ex.task, ex.answers, ex.qualities);
  for (size_t k = 0; k < truth_matrix.rows(); ++k) {
    EXPECT_TRUE(IsDistribution(truth_matrix.Row(k), 1e-9));
  }
}

TEST(GoldenInitTest, ComputesWeightedCorrectFraction) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  // Worker 0 answers task 0 correctly (truth 1) and task 1 wrongly.
  std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  auto qualities = InitializeQualityFromGolden(tasks, 1, answers, {0, 1},
                                               {1, 1}, 0.7, /*smoothing=*/0.0);
  ASSERT_EQ(qualities.size(), 1u);
  // Domain 0: correct mass 0.9 of total 1.1; domain 1: 0.1 of 0.9.
  EXPECT_NEAR(qualities[0].quality[0], 0.9 / 1.1, 1e-9);
  EXPECT_NEAR(qualities[0].quality[1], 0.1 / 0.9, 1e-9);
  EXPECT_NEAR(qualities[0].weight[0], 1.1, 1e-9);
  EXPECT_NEAR(qualities[0].weight[1], 0.9, 1e-9);
}

TEST(GoldenInitTest, SmoothingPullsTowardDefault) {
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  auto qualities =
      InitializeQualityFromGolden(tasks, 1, {}, {0}, {0}, 0.7, 1.0);
  EXPECT_NEAR(qualities[0].quality[0], 0.7, 1e-12);  // no data -> default
}

TEST(GoldenInitTest, NonGoldenAnswersIgnored) {
  std::vector<Task> tasks(2);
  for (auto& t : tasks) {
    t.domain_vector = {1.0};
    t.num_choices = 2;
  }
  // Task 1 is not golden; the wrong answer there must not hurt.
  std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  auto with = InitializeQualityFromGolden(tasks, 1, answers, {0}, {1}, 0.7, 0.0);
  EXPECT_NEAR(with[0].quality[0], 1.0, 1e-12);
}

TEST(GoldenInitTest, SkipsStrayInputsWithCount) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  const std::vector<Answer> clean_answers = {{0, 0, 1}, {1, 0, 0}};
  const auto clean = InitializeQualityFromGolden(tasks, 1, clean_answers,
                                                 {0, 1}, {1, 1}, 0.7, 0.0);

  auto answers = clean_answers;
  answers.push_back({7, 0, 1});  // task out of range
  answers.push_back({0, 4, 1});  // worker out of range
  size_t skipped = 0;
  // The golden index 9 is out of range too: ignored rather than written out
  // of bounds (it would otherwise corrupt the truth-of-task map).
  const auto got = InitializeQualityFromGolden(
      tasks, 1, answers, {0, 1, 9}, {1, 1, 0}, 0.7, 0.0, &skipped);
  EXPECT_EQ(skipped, 2u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].quality, clean[0].quality);
  EXPECT_EQ(got[0].weight, clean[0].weight);
}

TEST(GoldenInitTest, MismatchedGoldenArraysNeverReadOutOfBounds) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  const std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  const auto clean =
      InitializeQualityFromGolden(tasks, 1, answers, {0}, {1}, 0.7, 0.0);

  // golden_tasks longer than golden_truth: the parallel arrays are bounded
  // by the shorter one, so the unlabeled golden entry is dropped and counted
  // (it used to read golden_truth[1] out of bounds).
  size_t skipped = 0;
  const auto got = InitializeQualityFromGolden(tasks, 1, answers, {0, 1}, {1},
                                               0.7, 0.0, &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].quality, clean[0].quality);
  EXPECT_EQ(got[0].weight, clean[0].weight);

  // golden_truth longer than golden_tasks: the excess labels have no golden
  // task to attach to and change nothing.
  const auto extra = InitializeQualityFromGolden(tasks, 1, answers, {0},
                                                 {1, 0, 1}, 0.7, 0.0);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].quality, clean[0].quality);
  EXPECT_EQ(extra[0].weight, clean[0].weight);
}

// --- Full iterative inference on simulated crowds ---------------------------

struct SimSetup {
  std::vector<Task> tasks;
  std::vector<size_t> truths;
  std::vector<crowd::SimulatedWorker> workers;
  std::vector<Answer> answers;
};

SimSetup MakeSimSetup(size_t num_tasks, size_t num_workers, uint64_t seed) {
  SimSetup setup;
  const size_t m = 4;
  Rng rng(seed);
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = num_workers;
  setup.workers = crowd::MakeWorkerPool(m, {0, 1, 2, 3}, pool_options, seed);
  for (size_t i = 0; i < num_tasks; ++i) {
    Task task;
    task.domain_vector.assign(m, 0.0);
    const size_t domain = i % m;
    task.domain_vector[domain] = 1.0;
    task.num_choices = 2;
    setup.tasks.push_back(task);
    setup.truths.push_back(rng.UniformInt(2));
  }
  // 10 answers per task from distinct random workers.
  for (size_t i = 0; i < num_tasks; ++i) {
    std::vector<size_t> order(num_workers);
    for (size_t w = 0; w < num_workers; ++w) order[w] = w;
    rng.Shuffle(order);
    const size_t domain = i % m;
    for (size_t a = 0; a < 10 && a < num_workers; ++a) {
      const size_t w = order[a];
      const size_t choice = crowd::GenerateAnswer(setup.workers[w], domain,
                                                  setup.truths[i], 2, rng);
      setup.answers.push_back({i, w, choice});
    }
  }
  return setup;
}

double Accuracy(const std::vector<size_t>& inferred,
                const std::vector<size_t>& truths) {
  size_t correct = 0;
  for (size_t i = 0; i < truths.size(); ++i) correct += inferred[i] == truths[i];
  return static_cast<double>(correct) / truths.size();
}

TEST(TruthInferenceTest, HighAccuracyOnSimulatedCrowd) {
  auto setup = MakeSimSetup(200, 60, 77);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_GT(Accuracy(result.inferred_choice, setup.truths), 0.9);
}

TEST(TruthInferenceTest, DeltaShrinksOverIterations) {
  auto setup = MakeSimSetup(150, 50, 78);
  TruthInferenceOptions options;
  options.max_iterations = 30;
  options.tolerance = 0.0;  // run all iterations
  TruthInference engine(options);
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  ASSERT_GE(result.delta_history.size(), 5u);
  EXPECT_LT(result.delta_history.back(), result.delta_history.front());
  EXPECT_LT(result.delta_history.back(), 1e-3);
}

TEST(TruthInferenceTest, ConvergesEarlyWithTolerance) {
  auto setup = MakeSimSetup(100, 40, 79);
  TruthInferenceOptions options;
  options.max_iterations = 100;
  options.tolerance = 1e-6;
  TruthInference engine(options);
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_LT(result.iterations_run, 100u);  // paper: u <= 20 in practice
}

TEST(TruthInferenceTest, EstimatedQualityTracksTrueQuality) {
  auto setup = MakeSimSetup(400, 30, 80);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  // Average |q - q̃| over domains where the worker answered enough tasks.
  double deviation = 0.0;
  size_t terms = 0;
  for (size_t w = 0; w < setup.workers.size(); ++w) {
    for (size_t k = 0; k < 4; ++k) {
      if (result.worker_quality[w].weight[k] < 20.0) continue;
      deviation += std::fabs(result.worker_quality[w].quality[k] -
                             setup.workers[w].true_quality[k]);
      ++terms;
    }
  }
  ASSERT_GT(terms, 0u);
  EXPECT_LT(deviation / terms, 0.1);
}

TEST(TruthInferenceTest, WeightsEqualDomainMass) {
  auto setup = MakeSimSetup(50, 20, 81);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  std::vector<std::vector<double>> expected(setup.workers.size(),
                                            std::vector<double>(4, 0.0));
  for (const auto& answer : setup.answers) {
    for (size_t k = 0; k < 4; ++k) {
      expected[answer.worker][k] += setup.tasks[answer.task].domain_vector[k];
    }
  }
  for (size_t w = 0; w < setup.workers.size(); ++w) {
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(result.worker_quality[w].weight[k], expected[w][k], 1e-9);
    }
  }
}

TEST(TruthInferenceTest, WorkersWithoutAnswersKeepSeedQuality) {
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  std::vector<Answer> answers = {{0, 0, 0}};
  TruthInference engine;
  // Two workers, only worker 0 answers.
  auto result = engine.Run(tasks, 2, answers);
  EXPECT_NEAR(result.worker_quality[1].quality[0],
              engine.options().default_quality, 1e-12);
  EXPECT_NEAR(result.worker_quality[1].weight[0], 0.0, 1e-12);
}

TEST(TruthInferenceTest, InitialQualitySeedsAreUsed) {
  // One task, two workers disagreeing; the seeded expert should win.
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  std::vector<Answer> answers = {{0, 0, 0}, {0, 1, 1}};
  std::vector<WorkerQuality> seeds(2);
  seeds[0].quality = {0.95};
  seeds[0].weight = {50.0};
  seeds[1].quality = {0.55};
  seeds[1].weight = {50.0};
  TruthInferenceOptions options;
  options.max_iterations = 1;
  TruthInference engine(options);
  auto result = engine.Run(tasks, 2, answers, &seeds);
  EXPECT_EQ(result.inferred_choice[0], 0u);
}

TEST(TruthInferenceTest, DeterministicAcrossRuns) {
  auto setup = MakeSimSetup(80, 25, 82);
  TruthInference engine;
  auto a = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  auto b = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_EQ(a.inferred_choice, b.inferred_choice);
  for (size_t i = 0; i < setup.tasks.size(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(a.task_truth[i][j], b.task_truth[i][j]);
    }
  }
}

TEST(TruthInferenceTest, EmptyInput) {
  TruthInference engine;
  auto result = engine.Run({}, 0, {});
  EXPECT_TRUE(result.task_truth.empty());
  EXPECT_TRUE(result.worker_quality.empty());
}

TEST(TruthInferenceTest, TruthsAreDistributions) {
  auto setup = MakeSimSetup(60, 20, 83);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  for (const auto& s : result.task_truth) {
    EXPECT_TRUE(IsDistribution(s, 1e-9));
  }
}

TEST(GoldenInitTest, ZeroSmoothingWithoutGoldenAnswersStaysFinite) {
  // Regression: with smoothing = 0 a worker who answered no golden task in
  // some domain hit 0/0 and walked away with NaN quality, which then poisoned
  // the first EM iteration. The guard must fall back to the default quality.
  std::vector<Task> tasks(2);
  for (auto& task : tasks) {
    task.domain_vector = {1.0};
    task.num_choices = 2;
  }
  std::vector<Answer> answers = {{0, 0, 0}};  // worker 0 answers golden task 0
  auto seeds = InitializeQualityFromGolden(tasks, /*num_workers=*/2, answers,
                                           /*golden_tasks=*/{0},
                                           /*golden_truth=*/{0},
                                           /*default_quality=*/0.7,
                                           /*smoothing=*/0.0);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(seeds[0].quality[0], 1.0);  // answered its golden correctly
  // Worker 1 never answered a golden task: default, not NaN.
  EXPECT_DOUBLE_EQ(seeds[1].quality[0], 0.7);
  EXPECT_TRUE(std::isfinite(seeds[1].quality[0]));
}

// --- The step-1 kernel against the per-task reference ----------------------

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

/// Bitwise equality (memcmp): -0.0 vs 0.0 and NaN payloads count as
/// differences, which operator== would hide.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return SameBits(std::span<const double>(a), std::span<const double>(b));
}

/// The Eq. 3 log numerators as the per-answer loop computed them before the
/// hoisted kernel: two logs per (answer, domain), summed from 0.0 in answer
/// order. Answers must be in bounds.
Matrix ReferenceLogNumerator(const Task& task,
                             const std::vector<Answer>& task_answers,
                             const std::vector<WorkerQuality>& qualities,
                             double quality_clamp) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  Matrix log_numer(m, l, 0.0);
  for (size_t k = 0; k < m; ++k) {
    for (const Answer& answer : task_answers) {
      const double q =
          std::min(1.0 - quality_clamp,
                   std::max(quality_clamp,
                            qualities[answer.worker].quality[k]));
      const double log_correct = std::log(q);
      const double log_wrong =
          std::log((1.0 - q) / static_cast<double>(l - 1 == 0 ? 1 : l - 1));
      for (size_t j = 0; j < l; ++j) {
        log_numer(k, j) += (answer.choice == j) ? log_correct : log_wrong;
      }
    }
  }
  return log_numer;
}

/// M^(i) from the reference log numerators: a stable softmax per row.
Matrix ReferenceTruthMatrix(const Task& task,
                            const std::vector<Answer>& task_answers,
                            const std::vector<WorkerQuality>& qualities,
                            double quality_clamp) {
  const Matrix log_numer =
      ReferenceLogNumerator(task, task_answers, qualities, quality_clamp);
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

std::vector<double> TruthOf(const Task& task, const Matrix& truth_matrix) {
  std::vector<double> s = truth_matrix.LeftMultiply(task.domain_vector);
  NormalizeInPlace(s);
  return s;
}

/// Tasks covering every kernel branch: l in {1, 2, 3, 5} crossed with 0, 1,
/// 2 and 60 answers from distinct workers, plus single-answer tasks that
/// share a (worker, l, choice) memo or differ from one only in the choice.
struct KernelInstance {
  std::vector<Task> tasks;
  std::vector<std::vector<Answer>> answers_of_task;
  std::vector<WorkerQuality> qualities;
};

KernelInstance MakeKernelInstance(size_t m, uint64_t seed) {
  constexpr size_t kChoiceCounts[] = {1, 2, 3, 5};
  constexpr size_t kAnswerCounts[] = {0, 1, 2, 60};
  constexpr size_t kWorkers = 80;
  KernelInstance instance;
  Rng rng(seed);
  auto add_task = [&](size_t l) {
    Task task;
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = l;
    instance.tasks.push_back(task);
    instance.answers_of_task.emplace_back();
    return instance.tasks.size() - 1;
  };
  for (size_t repeat = 0; repeat < 2; ++repeat) {
    for (size_t count : kAnswerCounts) {
      for (size_t l : kChoiceCounts) {
        const size_t i = add_task(l);
        std::vector<size_t> order(kWorkers);
        for (size_t w = 0; w < kWorkers; ++w) order[w] = w;
        rng.Shuffle(order);
        for (size_t a = 0; a < count; ++a) {
          instance.answers_of_task[i].push_back(
              {i, order[a], rng.UniformInt(l)});
        }
      }
    }
  }
  // Worker 3 answers choice 1 of two l = 3 tasks (one shared memo) and
  // choice 2 of a third (its own memo); worker 4 answers l = 5 and l = 2.
  for (size_t choice : {1, 1, 2}) {
    const size_t i = add_task(3);
    instance.answers_of_task[i].push_back({i, 3, choice});
  }
  for (size_t l : {5, 2}) {
    const size_t i = add_task(l);
    instance.answers_of_task[i].push_back({i, 4, l - 1});
  }
  instance.qualities.resize(kWorkers);
  for (auto& q : instance.qualities) {
    q.quality.resize(m);
    // Some qualities fall outside [clamp, 1 - clamp] so the clamp matters.
    for (auto& v : q.quality) v = rng.UniformDoubleRange(0.001, 0.999);
    q.weight.assign(m, 1.0);
  }
  return instance;
}

struct KernelOutput {
  MatrixArena truth_matrices;
  std::vector<std::vector<double>> task_truth;
  std::vector<Matrix> log_numerators;
};

/// Runs `kernel` once on `qualities` into fresh buffers (log numerators
/// pre-shaped as the incremental engine keeps them).
KernelOutput RunKernel(TruthStepKernel& kernel, const KernelInstance& instance,
                       const std::vector<WorkerQuality>& qualities,
                       double clamp, ThreadPool* pool) {
  KernelOutput out;
  const size_t n = instance.tasks.size();
  out.task_truth.resize(n);
  for (const Task& task : instance.tasks) {
    out.truth_matrices.Append(task.domain_vector.size(), task.num_choices);
    out.log_numerators.emplace_back(task.domain_vector.size(),
                                    task.num_choices, 0.0);
  }
  kernel.Run(qualities, clamp, pool, &out.truth_matrices, &out.task_truth,
             &out.log_numerators);
  return out;
}

void ExpectKernelMatchesReference(const KernelInstance& instance,
                                  const std::vector<WorkerQuality>& qualities,
                                  double clamp, const KernelOutput& out) {
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    const Task& task = instance.tasks[i];
    const auto& answers = instance.answers_of_task[i];
    const Matrix expected =
        ComputeTruthMatrix(task, answers, qualities, clamp);
    EXPECT_TRUE(SameBits(out.truth_matrices[i].data(), expected.data()))
        << "task " << i << " (l=" << task.num_choices << ", "
        << answers.size() << " answers)";
    EXPECT_TRUE(SameBits(
        expected.data(),
        ReferenceTruthMatrix(task, answers, qualities, clamp).data()))
        << "task " << i;
    EXPECT_TRUE(SameBits(out.task_truth[i], TruthOf(task, expected)))
        << "task " << i;
    EXPECT_TRUE(SameBits(
        out.log_numerators[i].data(),
        ReferenceLogNumerator(task, answers, qualities, clamp).data()))
        << "task " << i;
  }
}

TEST(TruthStepKernelTest, MatchesPerTaskReferenceBitwise) {
  const KernelInstance instance = MakeKernelInstance(6, 101);
  // A second quality set checks that reusing the kernel (as every EM
  // iteration does) rebuilds its tables instead of serving stale ones.
  std::vector<WorkerQuality> second = instance.qualities;
  Rng rng(102);
  for (auto& q : second) {
    for (auto& v : q.quality) v = rng.UniformDoubleRange(0.2, 0.95);
  }
  for (size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    std::unique_ptr<ThreadPool> pool =
        threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
    TruthStepKernel kernel(instance.tasks, instance.answers_of_task,
                           instance.qualities.size());
    ExpectKernelMatchesReference(
        instance, instance.qualities, 0.01,
        RunKernel(kernel, instance, instance.qualities, 0.01, pool.get()));
    ExpectKernelMatchesReference(
        instance, second, 0.01,
        RunKernel(kernel, instance, second, 0.01, pool.get()));
  }
}

TEST(TruthStepKernelTest, ZeroClampWithExtremeQualitiesMatchesBitwise) {
  // quality_clamp = 0 lets log(0) = -inf into the tables. Worker 0 is
  // perfect, worker 1 always wrong, workers 2-3 middling; no task pairs the
  // perfect and the always-wrong worker (that row could be all -inf, whose
  // softmax is NaN).
  const size_t m = 3;
  KernelInstance instance;
  Rng rng(103);
  const std::vector<std::vector<size_t>> workers_of_task = {
      {}, {0}, {1}, {0, 2}, {1, 3}, {2, 3}, {0, 2, 3}, {1, 2, 3}, {0}, {1}};
  for (size_t i = 0; i < workers_of_task.size(); ++i) {
    Task task;
    task.domain_vector = rng.Dirichlet(m, 1.0);
    task.num_choices = i % 2 == 0 ? 2 : 3;
    instance.tasks.push_back(task);
    instance.answers_of_task.emplace_back();
    for (size_t w : workers_of_task[i]) {
      instance.answers_of_task[i].push_back(
          {i, w, rng.UniformInt(task.num_choices)});
    }
  }
  instance.qualities.resize(4);
  instance.qualities[0].quality.assign(m, 1.0);
  instance.qualities[1].quality.assign(m, 0.0);
  instance.qualities[2].quality = {0.6, 0.3, 0.9};
  instance.qualities[3].quality = {0.8, 0.7, 0.9};
  for (auto& q : instance.qualities) q.weight.assign(m, 1.0);

  TruthStepKernel kernel(instance.tasks, instance.answers_of_task, 4);
  const KernelOutput out =
      RunKernel(kernel, instance, instance.qualities, 0.0, nullptr);
  ExpectKernelMatchesReference(instance, instance.qualities, 0.0, out);
  for (size_t i = 0; i < out.truth_matrices.size(); ++i) {
    for (double v : out.truth_matrices[i].data()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
  // The perfect worker's lone answer is certain in every domain.
  const size_t choice = instance.answers_of_task[1][0].choice;
  for (size_t k = 0; k < m; ++k) {
    EXPECT_EQ(out.truth_matrices[1](k, choice), 1.0);
  }
}

TEST(TruthStepKernelTest, IterateThenBuildMatchesRunBitwise) {
  // Exact r_k = 0 entries, so Iterate() skips rows that the build fills.
  KernelInstance instance = MakeKernelInstance(6, 106);
  for (size_t i = 0; i < instance.tasks.size(); i += 2) {
    std::vector<double>& r = instance.tasks[i].domain_vector;
    r[i % 6] = 0.0;
    r[(i + 1) % 6] = 0.0;
    NormalizeInPlace(r);
  }
  const size_t n = instance.tasks.size();
  for (size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    std::unique_ptr<ThreadPool> pool =
        threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
    TruthStepKernel kernel(instance.tasks, instance.answers_of_task,
                           instance.qualities.size());
    const KernelOutput expected =
        RunKernel(kernel, instance, instance.qualities, 0.01, pool.get());

    std::vector<std::vector<double>> task_truth(n);
    kernel.Iterate(instance.qualities, 0.01, pool.get(), &task_truth);
    for (size_t i = 0; i < n; ++i) {
      if (instance.answers_of_task[i].empty()) {
        EXPECT_TRUE(task_truth[i].empty()) << "task " << i;
      } else {
        EXPECT_TRUE(SameBits(task_truth[i], expected.task_truth[i]))
            << "task " << i;
      }
    }
    std::vector<Matrix> truth_matrices(n);
    kernel.BuildTruthMatrices(pool.get(), &truth_matrices, &task_truth);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(task_truth[i], expected.task_truth[i]))
          << "task " << i;
      EXPECT_TRUE(SameBits(truth_matrices[i].data(),
                           expected.truth_matrices[i].data()))
          << "task " << i;
    }

    // write_unanswered = false leaves the unanswered tasks' entries alone
    // and writes the answered ones as before.
    KernelOutput partial;
    partial.task_truth.assign(n, {-1.0});
    for (const Task& task : instance.tasks) {
      partial.truth_matrices.Append(task.domain_vector.size(),
                                    task.num_choices, -1.0);
      partial.log_numerators.emplace_back(task.domain_vector.size(),
                                          task.num_choices, -1.0);
    }
    kernel.Run(instance.qualities, 0.01, pool.get(), &partial.truth_matrices,
               &partial.task_truth, &partial.log_numerators,
               /*write_unanswered=*/false);
    for (size_t i = 0; i < n; ++i) {
      if (instance.answers_of_task[i].empty()) {
        for (double v : partial.truth_matrices[i].data()) EXPECT_EQ(v, -1.0);
        EXPECT_EQ(partial.task_truth[i], std::vector<double>{-1.0});
        for (double v : partial.log_numerators[i].data()) EXPECT_EQ(v, -1.0);
      } else {
        EXPECT_TRUE(SameBits(partial.truth_matrices[i].data(),
                             expected.truth_matrices[i].data()))
            << "task " << i;
        EXPECT_TRUE(SameBits(partial.task_truth[i], expected.task_truth[i]))
            << "task " << i;
        EXPECT_TRUE(SameBits(partial.log_numerators[i].data(),
                             expected.log_numerators[i].data()))
            << "task " << i;
      }
    }
  }
}

/// TruthInference::Run with step 1 done the pre-kernel way (one
/// ReferenceTruthMatrix per task per iteration); everything else copies Run.
TruthInferenceResult ReferenceRun(const TruthInferenceOptions& options,
                                  const std::vector<Task>& tasks,
                                  size_t num_workers,
                                  const std::vector<Answer>& answers,
                                  const std::vector<WorkerQuality>* seeds) {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();
  TruthInferenceResult result;
  result.task_truth.resize(n);
  result.truth_matrices.resize(n);
  result.inferred_choice.assign(n, 0);
  std::vector<std::vector<Answer>> answers_of_task(n);
  for (const Answer& answer : answers) {
    if (answer.task >= n || answer.worker >= num_workers ||
        answer.choice >= tasks[answer.task].num_choices ||
        tasks[answer.task].domain_vector.size() != m) {
      continue;
    }
    answers_of_task[answer.task].push_back(answer);
  }
  std::vector<std::vector<std::pair<size_t, size_t>>> answers_of_worker(
      num_workers);
  for (size_t i = 0; i < n; ++i) {
    for (const Answer& answer : answers_of_task[i]) {
      answers_of_worker[answer.worker].push_back({i, answer.choice});
    }
  }
  result.worker_quality.resize(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    if (seeds != nullptr && w < seeds->size() &&
        (*seeds)[w].quality.size() == m) {
      result.worker_quality[w] = (*seeds)[w];
    } else {
      result.worker_quality[w].quality.assign(m, options.default_quality);
      result.worker_quality[w].weight.assign(m, 0.0);
    }
  }
  const std::vector<WorkerQuality> seeded = result.worker_quality;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<std::vector<double>> prev_truth = result.task_truth;
    for (size_t i = 0; i < n; ++i) {
      result.truth_matrices[i] =
          ReferenceTruthMatrix(tasks[i], answers_of_task[i],
                               result.worker_quality, options.quality_clamp);
      result.task_truth[i] = TruthOf(tasks[i], result.truth_matrices[i]);
    }
    const std::vector<WorkerQuality> prev_quality = result.worker_quality;
    for (size_t w = 0; w < num_workers; ++w) {
      std::vector<double> numer(m, 0.0);
      std::vector<double> denom(m, 0.0);
      for (const auto& [task, choice] : answers_of_worker[w]) {
        const auto& r = tasks[task].domain_vector;
        const double s_iv = result.task_truth[task][choice];
        for (size_t k = 0; k < m; ++k) {
          numer[k] += r[k] * s_iv;
          denom[k] += r[k];
        }
      }
      double overall_numer =
          options.quality_prior_strength * options.default_quality;
      double overall_denom = options.quality_prior_strength;
      for (size_t k = 0; k < m; ++k) {
        overall_numer +=
            numer[k] + seeded[w].quality[k] * seeded[w].weight[k];
        overall_denom += denom[k] + seeded[w].weight[k];
      }
      const double overall_quality = overall_denom > 0.0
                                         ? overall_numer / overall_denom
                                         : options.default_quality;
      for (size_t k = 0; k < m; ++k) {
        const double seed_mass = seeded[w].weight[k];
        const double prior_numer =
            seeded[w].quality[k] * seed_mass +
            overall_quality * options.quality_prior_strength;
        const double prior_mass = seed_mass + options.quality_prior_strength;
        const double total_mass = denom[k] + prior_mass;
        result.worker_quality[w].quality[k] =
            total_mass > 0.0 ? (numer[k] + prior_numer) / total_mass
                             : seeded[w].quality[k];
        result.worker_quality[w].weight[k] = denom[k] + seed_mass;
      }
    }
    double delta = 0.0;
    if (iter > 0) {
      double truth_change = 0.0;
      size_t truth_terms = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < result.task_truth[i].size(); ++j) {
          truth_change +=
              std::fabs(result.task_truth[i][j] - prev_truth[i][j]);
          ++truth_terms;
        }
      }
      double quality_change = 0.0;
      for (size_t w = 0; w < num_workers; ++w) {
        for (size_t k = 0; k < m; ++k) {
          quality_change += std::fabs(result.worker_quality[w].quality[k] -
                                      prev_quality[w].quality[k]);
        }
      }
      delta = (truth_terms > 0
                   ? truth_change / static_cast<double>(truth_terms)
                   : 0.0) +
              (num_workers * m > 0
                   ? quality_change / static_cast<double>(num_workers * m)
                   : 0.0);
      result.delta_history.push_back(delta);
    }
    result.iterations_run = iter + 1;
    if (iter > 0 && delta < options.tolerance) break;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!result.task_truth[i].empty()) {
      result.inferred_choice[i] = ArgMax(result.task_truth[i]);
    }
  }
  return result;
}

TEST(TruthStepKernelTest, RunMatchesPreKernelEmBitwiseAtEveryThreadCount) {
  // Campaign-shaped answer matrix with mixed l: most tasks unanswered, many
  // with one answer, a few golden-like tasks with 60, seeded qualities for
  // half the workers.
  const size_t n = 400, m = 5, num_workers = 90;
  Rng rng(104);
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = rng.Dirichlet(m, 0.5);
    tasks[i].num_choices = i % 7 == 0 ? 5 : (i % 3 == 0 ? 3 : 2);
  }
  tasks[1].num_choices = 1;
  std::vector<Answer> answers;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t w = 0; w < 60; ++w) {
      answers.push_back({i, (w * 7 + i) % num_workers,
                         rng.UniformInt(tasks[i].num_choices)});
    }
  }
  for (size_t a = 0; a < 300; ++a) {
    const size_t i = 6 + rng.UniformInt(n - 6);
    const size_t w = rng.UniformInt(num_workers);
    if (std::any_of(answers.begin(), answers.end(), [&](const Answer& x) {
          return x.task == i && x.worker == w;
        })) {
      continue;
    }
    answers.push_back({i, w, rng.UniformInt(tasks[i].num_choices)});
  }
  std::vector<WorkerQuality> seeds(num_workers / 2);
  for (auto& seed : seeds) {
    seed.quality.resize(m);
    for (auto& q : seed.quality) q = rng.UniformDoubleRange(0.4, 0.95);
    seed.weight.assign(m, 2.0);
  }

  for (double tolerance : {0.0, 1e-4}) {
    TruthInferenceOptions options;
    options.tolerance = tolerance;
    const TruthInferenceResult expected =
        ReferenceRun(options, tasks, num_workers, answers, &seeds);
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE(testing::Message() << "tolerance " << tolerance
                                      << ", threads " << threads);
      options.num_threads = threads;
      const TruthInferenceResult got =
          TruthInference(options).Run(tasks, num_workers, answers, &seeds);
      EXPECT_EQ(got.iterations_run, expected.iterations_run);
      EXPECT_TRUE(SameBits(got.delta_history, expected.delta_history));
      EXPECT_EQ(got.inferred_choice, expected.inferred_choice);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(SameBits(got.task_truth[i], expected.task_truth[i]))
            << "task " << i;
        EXPECT_TRUE(SameBits(got.truth_matrices[i].data(),
                             expected.truth_matrices[i].data()))
            << "task " << i;
      }
      for (size_t w = 0; w < num_workers; ++w) {
        EXPECT_TRUE(SameBits(got.worker_quality[w].quality,
                             expected.worker_quality[w].quality))
            << "worker " << w;
        EXPECT_TRUE(SameBits(got.worker_quality[w].weight,
                             expected.worker_quality[w].weight))
            << "worker " << w;
      }
    }
  }
}

/// Every field of two EM results, bit for bit.
void ExpectSameRun(const TruthInferenceResult& got,
                   const TruthInferenceResult& expected) {
  EXPECT_EQ(got.iterations_run, expected.iterations_run);
  EXPECT_TRUE(SameBits(got.delta_history, expected.delta_history));
  EXPECT_EQ(got.inferred_choice, expected.inferred_choice);
  ASSERT_EQ(got.task_truth.size(), expected.task_truth.size());
  ASSERT_EQ(got.truth_matrices.size(), expected.truth_matrices.size());
  for (size_t i = 0; i < expected.task_truth.size(); ++i) {
    EXPECT_TRUE(SameBits(got.task_truth[i], expected.task_truth[i]))
        << "task " << i;
    EXPECT_EQ(got.truth_matrices[i].rows(), expected.truth_matrices[i].rows())
        << "task " << i;
    EXPECT_TRUE(SameBits(got.truth_matrices[i].data(),
                         expected.truth_matrices[i].data()))
        << "task " << i;
  }
  ASSERT_EQ(got.worker_quality.size(), expected.worker_quality.size());
  for (size_t w = 0; w < expected.worker_quality.size(); ++w) {
    EXPECT_TRUE(SameBits(got.worker_quality[w].quality,
                         expected.worker_quality[w].quality))
        << "worker " << w;
    EXPECT_TRUE(SameBits(got.worker_quality[w].weight,
                         expected.worker_quality[w].weight))
        << "worker " << w;
  }
}

TEST(TruthStepKernelTest, RunMatchesPreKernelEmBitwiseOnEdgeCases) {
  // Exact r_k = 0 entries on tasks with 0, 1 and 5+ answers; one task whose
  // dimension differs from tasks[0] (its answers are dropped as stray).
  const size_t n = 90, m = 6, num_workers = 40;
  Rng rng(105);
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = rng.Dirichlet(m, 0.5);
    if (i % 3 != 2) {
      std::vector<double>& r = tasks[i].domain_vector;
      r[i % m] = 0.0;
      r[(i + 3) % m] = 0.0;
      if (i % 3 == 1) r[(i + 1) % m] = 0.0;
      NormalizeInPlace(r);
    }
    tasks[i].num_choices = i % 4 == 0 ? 3 : (i % 7 == 0 ? 5 : 2);
  }
  tasks[7].domain_vector.assign(m, 0.0);
  tasks[7].domain_vector[4] = 1.0;  // one-hot, with 5+ answers
  tasks[40].domain_vector.assign(m, 0.0);
  tasks[40].domain_vector[0] = 1.0;  // one-hot, unanswered
  const size_t odd_task = 50;
  tasks[odd_task].domain_vector = rng.Dirichlet(m + 2, 1.0);
  std::vector<Answer> answers;
  auto answer = [&](size_t i, size_t w) {
    answers.push_back({i, w, rng.UniformInt(tasks[i].num_choices)});
  };
  for (size_t i = 0; i < 12; ++i) {
    for (size_t a = 0; a < 5 + i % 4; ++a) {
      answer(i, (i * 5 + a * 3) % num_workers);
    }
  }
  for (size_t i = 12; i < 36; ++i) answer(i, rng.UniformInt(num_workers));
  answer(odd_task, 1);
  answer(odd_task, 2);
  std::vector<WorkerQuality> seeds(num_workers / 2);
  for (auto& seed : seeds) {
    seed.quality.resize(m);
    for (auto& q : seed.quality) q = rng.UniformDoubleRange(0.4, 0.95);
    seed.weight.assign(m, 1.5);
  }

  struct Case {
    size_t max_iterations;
    double tolerance;
  };
  // tolerance 1e9 stops the loop at its first convergence check, after
  // iteration 1.
  const Case cases[] = {{0, 1e-7}, {1, 1e-7}, {2, 0.0}, {20, 0.0}, {20, 1e9}};
  const std::vector<Answer> no_answers;
  const std::vector<Answer>* const answer_sets[] = {&answers, &no_answers};
  for (const std::vector<Answer>* answer_set : answer_sets) {
    for (const Case& c : cases) {
      TruthInferenceOptions options;
      options.max_iterations = c.max_iterations;
      options.tolerance = c.tolerance;
      const TruthInferenceResult expected =
          ReferenceRun(options, tasks, num_workers, *answer_set, &seeds);
      if (c.tolerance > 1.0) {
        EXPECT_EQ(expected.iterations_run, 2u);
      }
      if (c.max_iterations == 0) {
        EXPECT_TRUE(expected.task_truth[0].empty());
        EXPECT_TRUE(expected.truth_matrices[0].empty());
      }
      for (size_t threads : kThreadSweep) {
        SCOPED_TRACE(testing::Message()
                     << (answer_set == &answers ? "answered" : "unanswered")
                     << ", max_iterations " << c.max_iterations
                     << ", tolerance " << c.tolerance << ", threads "
                     << threads);
        options.num_threads = threads;
        ExpectSameRun(TruthInference(options).Run(tasks, num_workers,
                                                  *answer_set, &seeds),
                      expected);
      }
    }
  }
}

}  // namespace
}  // namespace docs::core

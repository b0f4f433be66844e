#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/incremental_ti.h"
#include "core/task_assignment.h"

namespace docs::core {
namespace {

// Random small OTA instance: tasks with random domain vectors and truth
// matrices, plus a random worker quality vector.
struct OtaInstance {
  std::vector<Task> tasks;
  std::vector<Matrix> matrices;
  std::vector<std::vector<double>> truths;
  std::vector<double> worker_quality;
};

OtaInstance MakeInstance(size_t n, size_t m, size_t max_choices, Rng& rng) {
  OtaInstance instance;
  for (size_t i = 0; i < n; ++i) {
    Task task;
    task.domain_vector = rng.Dirichlet(m, 1.0);
    task.num_choices = 2 + rng.UniformInt(max_choices - 1);
    Matrix truth_matrix(m, task.num_choices, 0.0);
    for (size_t k = 0; k < m; ++k) {
      truth_matrix.SetRow(k, rng.Dirichlet(task.num_choices, 1.0));
    }
    std::vector<double> s = truth_matrix.LeftMultiply(task.domain_vector);
    NormalizeInPlace(s);
    instance.tasks.push_back(std::move(task));
    instance.matrices.push_back(std::move(truth_matrix));
    instance.truths.push_back(std::move(s));
  }
  instance.worker_quality.resize(m);
  for (auto& q : instance.worker_quality) q = rng.UniformDoubleRange(0.3, 0.95);
  return instance;
}

TEST(Theorem2Test, AnswerProbabilitiesSumToOne) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    auto instance = MakeInstance(1, 3 + rng.UniformInt(3), 4, rng);
    double total = 0.0;
    for (size_t a = 0; a < instance.tasks[0].num_choices; ++a) {
      const double pa = AnswerProbability(instance.tasks[0],
                                          instance.matrices[0],
                                          instance.worker_quality, a);
      EXPECT_GE(pa, 0.0);
      total += pa;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Theorem2Test, ExpertPredictsCurrentTruth) {
  // With an (almost) perfect worker and a confident matrix, the predicted
  // answer distribution concentrates on the current truth.
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.0);
  truth_matrix.SetRow(0, {0.95, 0.05});
  std::vector<double> quality = {0.99};
  const double p0 = AnswerProbability(task, truth_matrix, quality, 0, 0.001);
  EXPECT_GT(p0, 0.9);
}

TEST(Theorem3Test, UpdatedRowsAreDistributions) {
  Rng rng(103);
  auto instance = MakeInstance(1, 4, 4, rng);
  for (size_t a = 0; a < instance.tasks[0].num_choices; ++a) {
    Matrix updated = UpdatedTruthMatrix(instance.tasks[0], instance.matrices[0],
                                        instance.worker_quality, a);
    for (size_t k = 0; k < updated.rows(); ++k) {
      EXPECT_TRUE(IsDistribution(updated.Row(k), 1e-9));
    }
  }
}

TEST(Theorem3Test, MatchesManualBayesUpdate) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.0);
  truth_matrix.SetRow(0, {0.6, 0.4});
  std::vector<double> quality = {0.8};
  Matrix updated = UpdatedTruthMatrix(task, truth_matrix, quality, 0, 0.001);
  // Posterior ∝ [0.6*0.8, 0.4*0.2] = [0.48, 0.08] -> [6/7, 1/7].
  EXPECT_NEAR(updated(0, 0), 6.0 / 7.0, 1e-9);
  EXPECT_NEAR(updated(0, 1), 1.0 / 7.0, 1e-9);
}

TEST(Theorem3Test, AnswerFromExpertMovesTruthMoreThanFromNovice) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.5);
  std::vector<double> expert = {0.95};
  std::vector<double> novice = {0.55};
  Matrix by_expert = UpdatedTruthMatrix(task, truth_matrix, expert, 0);
  Matrix by_novice = UpdatedTruthMatrix(task, truth_matrix, novice, 0);
  EXPECT_GT(by_expert(0, 0), by_novice(0, 0));
}

TEST(BenefitTest, ConfidentTaskHasTinyBenefit) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix confident(1, 2, 0.0);
  confident.SetRow(0, {0.99, 0.01});
  std::vector<double> s = {0.99, 0.01};
  Matrix ambiguous(1, 2, 0.5);
  std::vector<double> u = {0.5, 0.5};
  std::vector<double> quality = {0.9};
  const double benefit_confident = Benefit(task, confident, s, quality);
  const double benefit_ambiguous = Benefit(task, ambiguous, u, quality);
  EXPECT_GT(benefit_ambiguous, benefit_confident);
  EXPECT_LT(benefit_confident, 0.05);
}

TEST(BenefitTest, BetterMatchedWorkerYieldsHigherBenefit) {
  // Task fully in domain 0; worker A expert there, worker B not.
  Task task;
  task.domain_vector = {1.0, 0.0};
  task.num_choices = 2;
  Matrix truth_matrix(2, 2, 0.5);
  std::vector<double> s = {0.5, 0.5};
  std::vector<double> expert = {0.95, 0.5};
  std::vector<double> novice = {0.55, 0.95};
  EXPECT_GT(Benefit(task, truth_matrix, s, expert),
            Benefit(task, truth_matrix, s, novice));
}

TEST(BenefitTest, NonNegativeForCoherentSingleDomainModel) {
  // With a single domain the update is an exact Bayes step, so the expected
  // posterior entropy never exceeds the prior entropy (information never
  // hurts). With multiple domains and arbitrary M the bound need not hold,
  // which is why this test pins m = 1.
  Rng rng(107);
  for (int trial = 0; trial < 30; ++trial) {
    auto instance = MakeInstance(1, 1, 4, rng);
    EXPECT_GE(Benefit(instance.tasks[0], instance.matrices[0],
                      instance.truths[0], instance.worker_quality),
              -1e-9);
  }
}

// --- Theorem 4: additivity of the set benefit --------------------------------

class Theorem4Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Test, SetBenefitEqualsSumOfIndividualBenefits) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  const size_t n = 2 + rng.UniformInt(3);  // 2-4 tasks
  auto instance = MakeInstance(n, 3, 3, rng);
  std::vector<size_t> subset(n);
  for (size_t i = 0; i < n; ++i) subset[i] = i;

  const double brute = BenefitOfSetBruteForce(
      instance.tasks, instance.matrices, instance.truths, subset,
      instance.worker_quality);
  double additive = 0.0;
  for (size_t i = 0; i < n; ++i) {
    additive += Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality);
  }
  EXPECT_NEAR(brute, additive, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Theorem4Test,
                         ::testing::Range(0, 25));

// --- Top-k selection ---------------------------------------------------------

TEST(TaskAssignerTest, SelectsHighestBenefitTasks) {
  Rng rng(109);
  auto instance = MakeInstance(30, 4, 3, rng);
  std::vector<uint8_t> eligible(30, 1);
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 5);
  ASSERT_EQ(selected.size(), 5u);
  // Verify against a full sort.
  std::vector<double> benefits(30);
  for (size_t i = 0; i < 30; ++i) {
    benefits[i] = Benefit(instance.tasks[i], instance.matrices[i],
                          instance.truths[i], instance.worker_quality);
  }
  double worst_selected = 1e9;
  for (size_t idx : selected) worst_selected = std::min(worst_selected, benefits[idx]);
  size_t better = 0;
  for (size_t i = 0; i < 30; ++i) {
    if (benefits[i] > worst_selected + 1e-12) ++better;
  }
  EXPECT_LE(better, 5u);
  // Returned in decreasing benefit order.
  for (size_t i = 1; i < selected.size(); ++i) {
    EXPECT_GE(benefits[selected[i - 1]], benefits[selected[i]] - 1e-12);
  }
}

TEST(TaskAssignerTest, RespectsEligibility) {
  Rng rng(111);
  auto instance = MakeInstance(10, 3, 3, rng);
  std::vector<uint8_t> eligible(10, 0);
  eligible[2] = eligible[7] = 1;
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 5);
  ASSERT_EQ(selected.size(), 2u);
  for (size_t idx : selected) {
    EXPECT_TRUE(idx == 2 || idx == 7);
  }
}

TEST(TaskAssignerTest, EmptyEligibilityReturnsNothing) {
  Rng rng(113);
  auto instance = MakeInstance(5, 3, 3, rng);
  std::vector<uint8_t> eligible(5, 0);
  TaskAssigner assigner;
  EXPECT_TRUE(assigner
                  .SelectTopK(instance.tasks, instance.matrices,
                              instance.truths, instance.worker_quality,
                              eligible, 3)
                  .empty());
}

TEST(TaskAssignerTest, SelectionIsDistinct) {
  Rng rng(115);
  auto instance = MakeInstance(20, 3, 3, rng);
  std::vector<uint8_t> eligible(20, 1);
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 20);
  std::vector<uint8_t> seen(20, 0);
  for (size_t idx : selected) {
    EXPECT_FALSE(seen[idx]);
    seen[idx] = 1;
  }
  EXPECT_EQ(selected.size(), 20u);
}

// --- Fused kernel: bit-exact against the allocating reference ----------------

TEST(FusedKernelTest, MatchesReferenceBitForBit) {
  // The fused scratch-arena kernel replays the reference's floating-point
  // operations in the same order, so the contract is exact equality of the
  // doubles — not a tolerance band.
  Rng rng(211);
  BenefitScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    auto instance = MakeInstance(6, 2 + rng.UniformInt(6), 5, rng);
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      const double reference_entropy = ExpectedPosteriorEntropy(
          instance.tasks[i], instance.matrices[i], instance.worker_quality);
      const double fused_entropy = ExpectedPosteriorEntropy(
          instance.tasks[i], instance.matrices[i], instance.worker_quality,
          0.01, &scratch);
      EXPECT_EQ(reference_entropy, fused_entropy) << "trial " << trial;

      const double reference_benefit =
          Benefit(instance.tasks[i], instance.matrices[i], instance.truths[i],
                  instance.worker_quality);
      const double fused_benefit =
          Benefit(instance.tasks[i], instance.matrices[i], instance.truths[i],
                  instance.worker_quality, 0.01, &scratch);
      EXPECT_EQ(reference_benefit, fused_benefit) << "trial " << trial;
    }
  }
}

TEST(FusedKernelTest, MatchesReferenceOnSparseDomainVectors) {
  // Zeroed domain-vector entries hit the r_k == 0 skip in both kernels; the
  // skip must be bitwise-neutral (adding +0.0 vs. not adding at all).
  Rng rng(223);
  BenefitScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    auto instance = MakeInstance(4, 5, 4, rng);
    for (auto& task : instance.tasks) {
      task.domain_vector[rng.UniformInt(5)] = 0.0;
      task.domain_vector[rng.UniformInt(5)] = 0.0;
      NormalizeInPlace(task.domain_vector);
    }
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      EXPECT_EQ(Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality),
                Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality, 0.01,
                        &scratch))
          << "trial " << trial;
    }
  }
}

TEST(FusedKernelTest, MatchesReferenceOnDegenerateMatrix) {
  // An all-zero truth-matrix row drives Theorem 3's denominator to zero;
  // both kernels must fall back to the same uniform posterior.
  Task task;
  task.domain_vector = {0.5, 0.5};
  task.num_choices = 3;
  Matrix truth_matrix(2, 3, 0.0);
  truth_matrix.SetRow(0, {0.6, 0.3, 0.1});  // row 1 stays all-zero
  std::vector<double> truth = {0.5, 0.3, 0.2};
  std::vector<double> quality = {0.8, 0.7};
  BenefitScratch scratch;
  EXPECT_EQ(Benefit(task, truth_matrix, truth, quality),
            Benefit(task, truth_matrix, truth, quality, 0.01, &scratch));
}

// --- Campaign kernel: lockstep with the reference -----------------------------
// TaskBenefit (per-campaign sparse support, per-request hoisted factors,
// kernels specialized for l = 2 and l = 3 plus the generic loop) must equal
// the allocating reference Benefit() exactly, like the fused kernel above.

enum class DomainShape { kDense, kSparse, kOneHot };

// `num_choices` == 0 draws l from {2, 3, 4, 5} per task (a mixed list).
OtaInstance MakeShapedInstance(size_t n, size_t m, size_t num_choices,
                               DomainShape shape, Rng& rng) {
  OtaInstance instance;
  for (size_t i = 0; i < n; ++i) {
    Task task;
    task.num_choices = num_choices != 0 ? num_choices : 2 + rng.UniformInt(4);
    switch (shape) {
      case DomainShape::kDense:
        task.domain_vector = rng.Dirichlet(m, 1.0);
        break;
      case DomainShape::kSparse:
        task.domain_vector = rng.Dirichlet(m, 0.5);
        for (size_t z = 0; z < m / 2; ++z) {
          task.domain_vector[rng.UniformInt(m)] = 0.0;
        }
        if (NormalizeInPlace(task.domain_vector) <= 0.0) {
          task.domain_vector.assign(m, 0.0);
          task.domain_vector[rng.UniformInt(m)] = 1.0;
        }
        break;
      case DomainShape::kOneHot:
        task.domain_vector.assign(m, 0.0);
        task.domain_vector[rng.UniformInt(m)] = 1.0;
        break;
    }
    Matrix truth_matrix(m, task.num_choices, 0.0);
    for (size_t k = 0; k < m; ++k) {
      truth_matrix.SetRow(k, rng.Dirichlet(task.num_choices, 1.0));
    }
    std::vector<double> s = truth_matrix.LeftMultiply(task.domain_vector);
    NormalizeInPlace(s);
    instance.tasks.push_back(std::move(task));
    instance.matrices.push_back(std::move(truth_matrix));
    instance.truths.push_back(std::move(s));
  }
  instance.worker_quality.resize(m);
  for (auto& q : instance.worker_quality) q = rng.UniformDoubleRange(0.3, 0.95);
  return instance;
}

// Scores every task of `instance` with the campaign kernel and with the
// single-task fused overload; both must equal the reference to the bit.
void ExpectCampaignKernelMatchesReference(const OtaInstance& instance,
                                          double clamp,
                                          const std::string& label) {
  const BenefitSupport support(instance.tasks);
  WorkerBenefitFactors factors;
  factors.Hoist(instance.worker_quality, clamp, support.num_domains(),
                support.choice_counts());
  BenefitScratch scratch;
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    const double reference =
        Benefit(instance.tasks[i], instance.matrices[i], instance.truths[i],
                instance.worker_quality, clamp);
    ASSERT_FALSE(std::isnan(reference)) << label << " task " << i;
    EXPECT_EQ(TaskBenefit(support, i, factors, instance.matrices[i],
                          Entropy(instance.truths[i])),
              reference)
        << label << " task " << i << " (l = " << instance.tasks[i].num_choices
        << ")";
    EXPECT_EQ(Benefit(instance.tasks[i], instance.matrices[i],
                      instance.truths[i], instance.worker_quality, clamp,
                      &scratch),
              reference)
        << label << " task " << i;
  }
}

TEST(FusedKernelTest, CampaignKernelMatchesReferenceAcrossChoiceCounts) {
  Rng rng(307);
  const DomainShape shapes[] = {DomainShape::kDense, DomainShape::kSparse,
                                DomainShape::kOneHot};
  // l = 0 here means a list that mixes l in {2, 3, 4, 5}.
  for (size_t l : {2, 3, 4, 5, 0}) {
    for (DomainShape shape : shapes) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto instance =
            MakeShapedInstance(12, 2 + rng.UniformInt(25), l, shape, rng);
        ExpectCampaignKernelMatchesReference(
            instance, 0.01,
            "l " + std::to_string(l) + ", shape " +
                std::to_string(static_cast<int>(shape)) + ", trial " +
                std::to_string(trial));
      }
    }
  }
}

TEST(FusedKernelTest, CampaignKernelMatchesReferenceOnDegenerateRows) {
  // Zero truth-matrix rows send Theorem 3's denominator to 0 (the uniform
  // branch); a perfect worker (q = 1 under a 0 clamp) zeroes the wrong
  // factor, so a row with M_{k,a} = 0 does too, and a choice whose column
  // is 0 on every supported row has pa = 0 (the skipped choice).
  // Qualities sit at 0, at 1, and exactly on both clamp bounds.
  Rng rng(311);
  for (size_t l : {2, 3, 4, 5, 0}) {
    for (double clamp : {0.0, 0.01}) {
      for (int trial = 0; trial < 8; ++trial) {
        auto instance = MakeShapedInstance(10, 6, l, DomainShape::kSparse, rng);
        instance.worker_quality = {0.0, 1.0, clamp, 1.0 - clamp, 0.5, 1.0};
        for (size_t i = 0; i < instance.tasks.size(); ++i) {
          Matrix& matrix = instance.matrices[i];
          const size_t choices = instance.tasks[i].num_choices;
          // An all-zero supported row, and on every other task choice 0
          // made impossible on every row.
          size_t row = 0;
          while (instance.tasks[i].domain_vector[row] == 0.0) ++row;
          for (size_t j = 0; j < choices; ++j) matrix(row, j) = 0.0;
          if (i % 2 == 0) {
            for (size_t k = 0; k < 6; ++k) matrix(k, 0) = 0.0;
          }
          instance.truths[i] =
              matrix.LeftMultiply(instance.tasks[i].domain_vector);
          NormalizeInPlace(instance.truths[i]);
        }
        ExpectCampaignKernelMatchesReference(
            instance, clamp,
            "l " + std::to_string(l) + ", clamp " + std::to_string(clamp) +
                ", trial " + std::to_string(trial));
      }
    }
  }
}

TEST(FusedKernelTest, CampaignKernelMatchesReferenceOnNegativeAnswerMass) {
  // A non-normalized matrix entry above 1 drives Theorem 2's probability
  // below 0 for a low-quality worker (q < (1-q)/(l-1)): the kernel must
  // skip exactly the choices the reference skips (pa <= 0).
  Rng rng(313);
  for (size_t l : {2, 3, 4, 5}) {
    auto instance = MakeShapedInstance(6, 4, l, DomainShape::kDense, rng);
    instance.worker_quality.assign(4, 0.0);
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      for (size_t k = 0; k < 4; ++k) instance.matrices[i](k, i % l) = 3.0;
    }
    ExpectCampaignKernelMatchesReference(instance, 0.01,
                                         "l " + std::to_string(l));
    bool saw_negative = false;
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      saw_negative |=
          AnswerProbability(instance.tasks[i], instance.matrices[i],
                            instance.worker_quality, i % l) <= 0.0;
    }
    EXPECT_TRUE(saw_negative) << "l " << l;
  }
}

TEST(FusedKernelTest, CampaignKernelOnTheEngineArenaMatchesReference) {
  // TaskBenefit as the serving path calls it: M^(i) read in place from the
  // engine's task-major arena, r_k from the support's CSR weights and H(s_i)
  // from the engine's cache. It must equal the allocating reference on the
  // same state to the bit, for l in {2, 3, 5}, dense and sparse supports and
  // a -1e-9 weight (the checkpoint loader admits one), with the state read
  // after incremental answers, after a full EM pass and after answers on top
  // of it.
  Rng rng(421);
  const size_t m = 26;
  std::vector<Task> tasks;
  for (size_t l : {2, 3, 5}) {
    for (DomainShape shape : {DomainShape::kDense, DomainShape::kSparse}) {
      for (Task& task : MakeShapedInstance(6, m, l, shape, rng).tasks) {
        tasks.push_back(std::move(task));
      }
    }
  }
  // One negative weight in a dense l = 3 task and a sparse l = 5 task.
  tasks[13].domain_vector[4] = -1e-9;
  for (double& rk : tasks[32].domain_vector) {
    if (rk != 0.0) {
      rk = -1e-9;
      break;
    }
  }
  IncrementalTruthInference engine(tasks);
  const BenefitSupport support(tasks);
  for (size_t i = 0; i < tasks.size(); ++i) {
    std::vector<double> nonzeros;
    for (double rk : tasks[i].domain_vector) {
      if (rk != 0.0) nonzeros.push_back(rk);
    }
    ASSERT_EQ(std::vector<double>(support.weights(i),
                                  support.weights(i) + support.support_size(i)),
              nonzeros)
        << "task " << i;
  }
  auto check = [&](const std::string& stage) {
    for (int w = 0; w < 4; ++w) {
      std::vector<double> quality(m);
      for (double& q : quality) q = rng.UniformDoubleRange(0.0, 1.0);
      WorkerBenefitFactors factors;
      factors.Hoist(quality, 0.01, m, support.choice_counts());
      for (size_t i = 0; i < tasks.size(); ++i) {
        SCOPED_TRACE(stage + " task " + std::to_string(i) + " (l = " +
                     std::to_string(tasks[i].num_choices) + ")");
        const MatrixView matrix = engine.truth_matrix(i);
        ASSERT_EQ(matrix.rows(), m);
        ASSERT_EQ(matrix.cols(), tasks[i].num_choices);
        const double reference = Benefit(tasks[i], Matrix(matrix),
                                         engine.task_truth(i), quality, 0.01);
        ASSERT_FALSE(std::isnan(reference));
        EXPECT_EQ(TaskBenefit(support, i, factors, matrix,
                              engine.truth_entropy(i)),
                  reference);
      }
    }
  };
  auto answer = [&](size_t count) {
    for (size_t a = 0; a < count; ++a) {
      const size_t task = rng.UniformInt(tasks.size());
      const size_t worker = rng.UniformInt(9);
      if (engine.HasAnswered(worker, task)) continue;
      ASSERT_TRUE(engine
                      .OnAnswer(worker, task,
                                rng.UniformInt(tasks[task].num_choices))
                      .ok());
    }
  };
  answer(90);
  check("incremental");
  engine.RunFullInference(nullptr);
  check("full inference");
  answer(40);
  check("incremental after full inference");
}

TEST(FusedKernelTest, SupportKeepsOnlyNonzeroDomainsInOrder) {
  std::vector<Task> tasks(3);
  tasks[0].domain_vector = {0.0, 0.25, 0.0, 0.75};
  tasks[0].num_choices = 3;
  tasks[1].domain_vector = {1.0, 0.0, 0.0, 0.0};
  tasks[1].num_choices = 2;
  tasks[2].domain_vector = {0.25, 0.25, 0.25, 0.25};
  tasks[2].num_choices = 3;
  const BenefitSupport support(tasks);
  EXPECT_EQ(support.num_tasks(), 3u);
  EXPECT_EQ(support.num_domains(), 4u);
  EXPECT_EQ(support.choice_counts(), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(support.choice_slot(0), 1u);
  EXPECT_EQ(support.choice_slot(1), 0u);
  ASSERT_EQ(support.support_size(0), 2u);
  EXPECT_EQ(support.domains(0)[0], 1u);
  EXPECT_EQ(support.domains(0)[1], 3u);
  EXPECT_EQ(support.support_size(1), 1u);
  EXPECT_EQ(support.support_size(2), 4u);
}

// --- Benefit upper bounds (DESIGN.md §16) ------------------------------------
// The lazy benefit index seeds stale rows with their upper bound and scores
// them only when they can reach the top k, so its selections stay
// bit-identical exactly while upper >= TaskBenefit. The lower side, the
// closed form of an unanswered task minus its slack, sets the floor below
// which no row is scored up front. These tests hold the kernel between both
// sides over the shapes the bounds' preconditions name; the lower side also
// pins the closed form to within twice its slack of the kernel (an upper
// bound that is valid but loose would prune nothing).

enum class RowMode { kExactUniform, kSoftmaxUniform, kAnswered };

// The row the EM step writes for an unanswered task: the softmax of a zero
// log-numerator row, which need not equal 1/l to the bit.
std::vector<double> SoftmaxUniformRow(size_t l) {
  const std::vector<double> zeros(l, 0.0);
  const double lse = LogSumExp(zeros);
  std::vector<double> row(l);
  for (size_t j = 0; j < l; ++j) row[j] = std::exp(zeros[j] - lse);
  return row;
}

void SetRows(RowMode mode, Matrix* matrix, Rng& rng) {
  const size_t l = matrix->cols();
  const std::vector<double> softmax = SoftmaxUniformRow(l);
  for (size_t k = 0; k < matrix->rows(); ++k) {
    switch (mode) {
      case RowMode::kExactUniform:
        matrix->SetRow(k, std::vector<double>(l, 1.0 / static_cast<double>(l)));
        break;
      case RowMode::kSoftmaxUniform:
        matrix->SetRow(k, softmax);
        break;
      case RowMode::kAnswered:
        // Concentrated rows, as answers leave them; an occasional
        // near-certain row stresses the entropy terms near 0.
        matrix->SetRow(k, rng.Dirichlet(l, k % 3 == 0 ? 0.05 : 0.7));
        break;
    }
  }
}

// Holds every task of `instance` against the bounds for an answered task
// and, with `uniform` rows, against the closed form of an unanswered one.
void ExpectBoundsHold(const OtaInstance& instance, double clamp, bool uniform,
                      const std::string& label) {
  const BenefitSupport support(instance.tasks);
  WorkerBenefitFactors factors;
  factors.Hoist(instance.worker_quality, clamp, support.num_domains(),
                support.choice_counts());
  for (size_t i = 0; i < instance.tasks.size(); ++i) {
    SCOPED_TRACE(label + " task " + std::to_string(i) + " (l = " +
                 std::to_string(instance.tasks[i].num_choices) + ")");
    const double exact = TaskBenefit(support, i, factors, instance.matrices[i],
                                     Entropy(instance.truths[i]));
    ASSERT_TRUE(std::isfinite(exact));
    const double truth_entropy = Entropy(instance.truths[i]);
    const BenefitBounds any =
        BenefitBoundsOf(support, i, factors, truth_entropy,
                        /*answered=*/true);
    EXPECT_GE(any.upper, exact);
    EXPECT_EQ(any.lower, -std::numeric_limits<double>::infinity());
    if (!uniform) continue;
    const BenefitBounds closed =
        BenefitBoundsOf(support, i, factors, truth_entropy,
                        /*answered=*/false);
    EXPECT_GE(closed.upper, exact);
    EXPECT_LE(closed.lower, exact) << "closed form is not within its slack";
  }
}

TEST(BenefitBoundTest, BoundsHoldAboveTheKernelAcrossShapes) {
  Rng rng(401);
  const DomainShape shapes[] = {DomainShape::kDense, DomainShape::kSparse,
                                DomainShape::kOneHot};
  const RowMode modes[] = {RowMode::kExactUniform, RowMode::kSoftmaxUniform,
                           RowMode::kAnswered};
  for (size_t l : {2, 3, 4, 5, 0}) {
    for (DomainShape shape : shapes) {
      for (RowMode mode : modes) {
        for (double clamp : {0.0, 0.01}) {
          for (int trial = 0; trial < 6; ++trial) {
            const size_t m = 1 + rng.UniformInt(26);
            auto instance = MakeShapedInstance(16, m, l, shape, rng);
            // Qualities at 0, at 1 and on both clamp bounds, then random.
            const double specials[] = {0.0, 1.0, clamp, 1.0 - clamp};
            for (size_t k = 0; k < m; ++k) {
              instance.worker_quality[k] =
                  k < 4 && trial % 2 == 0 ? specials[k]
                                          : rng.UniformDoubleRange(0.0, 1.0);
            }
            for (size_t i = 0; i < instance.tasks.size(); ++i) {
              SetRows(mode, &instance.matrices[i], rng);
              instance.truths[i] = instance.matrices[i].LeftMultiply(
                  instance.tasks[i].domain_vector);
              NormalizeInPlace(instance.truths[i]);
            }
            ExpectBoundsHold(
                instance, clamp, mode != RowMode::kAnswered,
                "l " + std::to_string(l) + ", shape " +
                    std::to_string(static_cast<int>(shape)) + ", rows " +
                    std::to_string(static_cast<int>(mode)) + ", clamp " +
                    std::to_string(clamp) + ", trial " +
                    std::to_string(trial));
          }
        }
      }
    }
  }
}

TEST(BenefitBoundTest, SlackIsSmallAndNegativeWeightsHaveNoFiniteBound) {
  // The checkpoint loader admits r_k down to -1e-9. The slack's analysis
  // needs r_k > 0, so such a task gets an infinite bound — the walk always
  // scores it — while positive supports of the KB's 26 domains stay at
  // most 1e-12.
  Rng rng(409);
  for (size_t l : {2, 3, 4, 5}) {
    for (int trial = 0; trial < 8; ++trial) {
      auto instance = MakeShapedInstance(8, 26, l, DomainShape::kDense, rng);
      instance.tasks[0].domain_vector[rng.UniformInt(26)] = -1e-9;
      instance.tasks[1].domain_vector[rng.UniformInt(26)] = -1e-300;
      const BenefitSupport support(instance.tasks);
      EXPECT_EQ(support.bound_slack(0),
                std::numeric_limits<double>::infinity());
      EXPECT_EQ(support.bound_slack(1),
                std::numeric_limits<double>::infinity());
      for (size_t i = 2; i < instance.tasks.size(); ++i) {
        EXPECT_GT(support.bound_slack(i), 0.0);
        EXPECT_LE(support.bound_slack(i), 1e-12);
      }
      for (size_t i = 0; i < 2; ++i) {
        for (size_t k = 0; k < 26; ++k) {
          instance.matrices[i].SetRow(k, SoftmaxUniformRow(l));
        }
        instance.truths[i] =
            instance.matrices[i].LeftMultiply(instance.tasks[i].domain_vector);
        NormalizeInPlace(instance.truths[i]);
      }
      ExpectBoundsHold(instance, 0.01, /*uniform=*/false,
                       "l " + std::to_string(l));
    }
  }
}

TEST(BenefitBoundTest, SubnormalWeightsFallBackToTheEntropyBound) {
  // The checkpoint loader also admits subnormal weights. At r = 5e-324,
  // l = 3 and q = 0.4 both products r q and r w round to 0, so p = 0/0 and
  // the closed form is right only because NaN fails its p > 0 guards; with
  // a few products underflowed to subnormals, the relative-error model
  // behind the slack does not hold. A task whose answer-mass total is that
  // small keeps the H(s_i) bound and no lower side; a subnormal weight
  // beside normal ones leaves the closed form in force.
  Rng rng(419);
  const double tiny_weights[] = {5e-324, 1e-310, 1e-300};
  for (size_t l : {2, 3, 4, 5}) {
    for (double clamp : {0.0, 0.01}) {
      auto instance = MakeShapedInstance(4, 3, l, DomainShape::kDense, rng);
      for (size_t i = 0; i < 3; ++i) {
        instance.tasks[i].domain_vector = {tiny_weights[i], 0.0, 0.0};
      }
      instance.tasks[3].domain_vector = {5e-324, 0.5, 0.5};
      instance.worker_quality = {0.4, 0.7, 0.9};
      for (size_t i = 0; i < instance.tasks.size(); ++i) {
        SetRows(RowMode::kSoftmaxUniform, &instance.matrices[i], rng);
        instance.truths[i] = SoftmaxUniformRow(l);
      }
      const std::string label =
          "l " + std::to_string(l) + ", clamp " + std::to_string(clamp);
      ExpectBoundsHold(instance, clamp, /*uniform=*/true, label);
      const BenefitSupport support(instance.tasks);
      WorkerBenefitFactors factors;
      factors.Hoist(instance.worker_quality, clamp, support.num_domains(),
                    support.choice_counts());
      for (size_t i = 0; i < instance.tasks.size(); ++i) {
        SCOPED_TRACE(label + " task " + std::to_string(i));
        const double truth_entropy = Entropy(instance.truths[i]);
        const BenefitBounds bounds =
            BenefitBoundsOf(support, i, factors, truth_entropy,
                            /*answered=*/false);
        if (i < 3) {
          EXPECT_EQ(bounds.upper, truth_entropy + support.bound_slack(i));
          EXPECT_EQ(bounds.lower, -std::numeric_limits<double>::infinity());
        } else {
          EXPECT_TRUE(std::isfinite(bounds.lower));
          EXPECT_LT(bounds.upper, truth_entropy);
        }
      }
    }
  }
}

TEST(BenefitBoundTest, EngineBoundInputsTrackEveryPosteriorWrite) {
  // The engine's bound inputs on a live campaign: H(s_i) equals Entropy(s_i)
  // bit for bit and an unanswered task's rows are one constant — after the
  // constructor (1/l), after incremental answers, and after a full EM pass
  // (the softmax row). Both bounds hold for a spread of workers throughout.
  Rng rng(419);
  const size_t m = 26;
  auto instance = MakeShapedInstance(60, m, 0, DomainShape::kSparse, rng);
  IncrementalTruthInference engine(instance.tasks);
  const BenefitSupport support(instance.tasks);
  auto check = [&](const std::string& stage) {
    for (int w = 0; w < 4; ++w) {
      std::vector<double> quality(m);
      for (double& q : quality) q = rng.UniformDoubleRange(0.0, 1.0);
      WorkerBenefitFactors factors;
      factors.Hoist(quality, 0.01, m, support.choice_counts());
      for (size_t i = 0; i < instance.tasks.size(); ++i) {
        SCOPED_TRACE(stage + " task " + std::to_string(i));
        const MatrixView matrix = engine.truth_matrix(i);
        ASSERT_EQ(engine.truth_entropy(i), Entropy(engine.task_truth(i)));
        if (!engine.task_answered(i)) {
          for (size_t k = 0; k < m; ++k) {
            for (size_t j = 1; j < matrix.cols(); ++j) {
              ASSERT_EQ(matrix(k, j), matrix(k, 0));
            }
          }
        }
        const double exact = TaskBenefit(support, i, factors, matrix,
                                         engine.truth_entropy(i));
        const BenefitBounds bounds =
            BenefitBoundsOf(support, i, factors, engine.truth_entropy(i),
                            engine.task_answered(i));
        EXPECT_GE(bounds.upper, exact);
        EXPECT_LE(bounds.lower, exact);
        if (!engine.task_answered(i)) {
          EXPECT_GT(bounds.lower, -std::numeric_limits<double>::infinity());
        }
      }
    }
  };
  check("constructor");
  for (size_t a = 0; a < 80; ++a) {
    const size_t task = rng.UniformInt(30);  // tasks 30.. stay unanswered
    const size_t worker = a % 7;
    if (engine.HasAnswered(worker, task)) continue;
    ASSERT_TRUE(engine
                    .OnAnswer(worker, task,
                              rng.UniformInt(instance.tasks[task].num_choices))
                    .ok());
  }
  check("incremental");
  engine.RunFullInference(nullptr);
  check("full inference");
}

TEST(TaskAssignerDeathTest, RejectsMismatchedEligibilityVector) {
  // Regression: SelectTopK indexes eligible[], matrices[] and truths[] by
  // task id; a short parallel array used to be an out-of-bounds read.
  Rng rng(7);
  auto instance = MakeInstance(5, 3, 2, rng);
  std::vector<uint8_t> eligible(4, 1);  // one short
  TaskAssigner assigner;
  EXPECT_DEATH(assigner.SelectTopK(instance.tasks, instance.matrices,
                                   instance.truths, instance.worker_quality,
                                   eligible, 2),
               "eligible.size");
}

TEST(TaskAssignerDeathTest, RejectsOutOfRangeWorkerQuality) {
  // Eq. 5 qualities live in [0, 1]; a quality of 1.5 would silently inflate
  // every benefit score.
  Rng rng(8);
  auto instance = MakeInstance(5, 3, 2, rng);
  instance.worker_quality[1] = 1.5;
  std::vector<uint8_t> eligible(5, 1);
  TaskAssigner assigner;
  EXPECT_DEATH(assigner.SelectTopK(instance.tasks, instance.matrices,
                                   instance.truths, instance.worker_quality,
                                   eligible, 2),
               "OTA worker quality");
}

}  // namespace
}  // namespace docs::core

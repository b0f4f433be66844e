#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

namespace docs::core {
namespace {

class DocsSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }

  // Builds a DOCS instance over the Item dataset with golden tasks enabled.
  static std::unique_ptr<DocsSystem> MakeSystem(
      const datasets::Dataset& dataset, size_t golden_count = 10) {
    DocsSystemOptions options;
    options.golden_count = golden_count;
    options.reinfer_every = 50;
    auto system = std::make_unique<DocsSystem>(&kb_->knowledge_base, options);
    std::vector<TaskInput> inputs;
    for (const auto& task : dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    auto truths = dataset.Truths();
    EXPECT_TRUE(system->AddTasks(inputs, &truths).ok());
    return system;
  }

  static kb::SyntheticKb* kb_;
};

kb::SyntheticKb* DocsSystemTest::kb_ = nullptr;

TEST_F(DocsSystemTest, AddTasksRunsDveAndSelectsGolden) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 10);
  EXPECT_EQ(system->tasks().size(), dataset.tasks.size());
  EXPECT_EQ(system->golden_tasks().size(), 10u);
  for (const auto& task : system->tasks()) {
    double total = 0.0;
    for (double v : task.domain_vector) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(DocsSystemTest, AddTasksTwiceFails) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset);
  std::vector<TaskInput> inputs = {{"extra task", 2}};
  EXPECT_FALSE(system->AddTasks(inputs).ok());
}

TEST_F(DocsSystemTest, RejectsSingleChoiceTasks) {
  DocsSystem system(&kb_->knowledge_base);
  std::vector<TaskInput> inputs = {{"bad", 1}};
  EXPECT_FALSE(system.AddTasks(inputs).ok());
}

// AddTasks is all-or-nothing: a batch rejected part-way leaves nothing
// behind, so a retry holds exactly the retry's tasks. (A version that ran
// DVE and appended task by task kept the valid prefix of the rejected batch,
// and the retry then appended to it.)
TEST_F(DocsSystemTest, RejectedAddTasksLeavesNoPartialState) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto& first = dataset.tasks[0];
  const auto& second = dataset.tasks[1];
  DocsSystem system(&kb_->knowledge_base);
  const std::vector<size_t> rejected_truths = {first.truth, 0};
  const Status rejected = system.AddTasks(
      {{first.text, first.num_choices()}, {"one choice", 1}},
      &rejected_truths);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(system.tasks().empty());

  const std::vector<TaskInput> retry = {{second.text, second.num_choices()}};
  const std::vector<size_t> retry_truths = {second.truth};
  ASSERT_TRUE(system.AddTasks(retry, &retry_truths).ok());
  DocsSystem fresh(&kb_->knowledge_base);
  ASSERT_TRUE(fresh.AddTasks(retry, &retry_truths).ok());

  ASSERT_EQ(system.tasks().size(), 1u);
  ASSERT_EQ(fresh.tasks().size(), 1u);
  EXPECT_EQ(system.tasks()[0].num_choices, fresh.tasks()[0].num_choices);
  const auto& got = system.tasks()[0].domain_vector;
  const auto& want = fresh.tasks()[0].domain_vector;
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[k]), std::bit_cast<uint64_t>(want[k]))
        << "domain " << k;
  }
  EXPECT_EQ(system.golden_tasks(), fresh.golden_tasks());
  EXPECT_EQ(system.InferredChoices(), fresh.InferredChoices());
}

TEST_F(DocsSystemTest, NewWorkerGetsGoldenTasksFirst) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 8);
  const size_t worker = system->WorkerIndex("w0");
  auto selected = system->SelectTasks(worker, 5);
  ASSERT_EQ(selected.size(), 5u);
  std::set<size_t> golden(system->golden_tasks().begin(),
                          system->golden_tasks().end());
  for (size_t task : selected) EXPECT_TRUE(golden.count(task)) << task;
}

// k = 0 during the golden phase grants nothing and leases nothing, and the
// worker stays in the golden phase. (The cap used to be checked after the
// append, so k = 0 granted and leased every pending golden task.) Checked on
// a bare system and through the facade in both serving modes.
TEST_F(DocsSystemTest, GoldenPhaseHonorsZeroK) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  const auto truths = dataset.Truths();
  DocsSystemOptions options;
  options.golden_count = 10;
  options.lease_duration = 5;
  options.num_threads = 1;
  // Golden selection is deterministic, so the facades below pick this set.
  std::set<size_t> golden;
  {
    DocsSystem system(&kb_->knowledge_base, options);
    ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());
    golden.insert(system.golden_tasks().begin(), system.golden_tasks().end());
    ASSERT_EQ(golden.size(), 10u);
    const size_t worker = system.WorkerIndex("w0");
    EXPECT_TRUE(system.SelectTasks(worker, 0).empty());
    EXPECT_EQ(system.outstanding_leases(), 0u);
    const auto next = system.SelectTasks(worker, 3);
    ASSERT_EQ(next.size(), 3u);
    for (size_t task : next) EXPECT_TRUE(golden.count(task)) << task;
    EXPECT_EQ(system.outstanding_leases(), 3u);
  }
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async facade" : "sync facade");
    DocsSystemOptions facade_options = options;
    facade_options.async_inference = async;
    ConcurrentDocsSystem system(&kb_->knowledge_base, facade_options);
    ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());
    EXPECT_TRUE(system.RequestTasks("w0", 0).empty());
    EXPECT_EQ(system.outstanding_leases(), 0u);
    const auto next = system.RequestTasks("w0", 3);
    ASSERT_EQ(next.size(), 3u);
    for (size_t task : next) EXPECT_TRUE(golden.count(task)) << task;
    EXPECT_EQ(system.outstanding_leases(), 3u);
  }
}

TEST_F(DocsSystemTest, GoldenPhaseEndsAfterAllGoldenAnswered) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 6);
  const size_t worker = system->WorkerIndex("w0");
  // Answer all golden tasks (correctly).
  for (int round = 0; round < 3; ++round) {
    auto selected = system->SelectTasks(worker, 2);
    for (size_t task : selected) {
      system->OnAnswer(worker, task, dataset.tasks[task].truth);
    }
  }
  auto post = system->SelectTasks(worker, 5);
  std::set<size_t> golden(system->golden_tasks().begin(),
                          system->golden_tasks().end());
  for (size_t task : post) EXPECT_FALSE(golden.count(task)) << task;
}

TEST_F(DocsSystemTest, WorkerNeverReceivesSameTaskTwice) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 4);
  const size_t worker = system->WorkerIndex("w0");
  std::set<size_t> received;
  for (int round = 0; round < 20; ++round) {
    auto selected = system->SelectTasks(worker, 3);
    for (size_t task : selected) {
      EXPECT_TRUE(received.insert(task).second) << "task repeated: " << task;
      system->OnAnswer(worker, task, 0);
    }
  }
}

TEST_F(DocsSystemTest, GoldenInitializationSeparatesExpertFromSpammer) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 10);
  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());

  const size_t expert = system->WorkerIndex("expert");
  const size_t spammer = system->WorkerIndex("spammer");
  Rng rng(3);
  // The expert answers all golden tasks correctly, the spammer randomly.
  for (int round = 0; round < 5; ++round) {
    for (size_t task : system->SelectTasks(expert, 2)) {
      system->OnAnswer(expert, task, dataset.tasks[task].truth);
    }
    for (size_t task : system->SelectTasks(spammer, 2)) {
      system->OnAnswer(spammer, task, rng.UniformInt(2));
    }
  }
  const auto& q_expert = system->inference().worker_quality(expert);
  const auto& q_spammer = system->inference().worker_quality(spammer);
  EXPECT_GT(q_expert.quality[canon.sports], q_spammer.quality[canon.sports]);
}

TEST_F(DocsSystemTest, DMaxConfigurationSelectsMatchingDomain) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 0;  // skip golden phase
  options.selection_rule = SelectionRule::kDomainMax;
  options.display_name = "D-Max";
  DocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  EXPECT_EQ(system.name(), "D-Max");

  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());
  const size_t worker = system.WorkerIndex("food-expert");
  WorkerQuality quality;
  quality.quality.assign(26, 0.5);
  quality.quality[canon.food] = 0.98;
  quality.weight.assign(26, 10.0);
  // Seed via the store-loading path equivalent: direct quality override.
  ASSERT_TRUE(const_cast<IncrementalTruthInference&>(system.inference())
                  .SetWorkerQuality(worker, quality)
                  .ok());
  auto selected = system.SelectTasks(worker, 5);
  ASSERT_EQ(selected.size(), 5u);
  for (size_t task : selected) {
    EXPECT_EQ(dataset.tasks[task].true_domain, canon.food)
        << dataset.tasks[task].text;
  }
}

TEST_F(DocsSystemTest, UncertaintyRuleIgnoresWorkerAndPrefersOpenTasks) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 0;
  options.selection_rule = SelectionRule::kUncertainty;
  options.display_name = "uncertainty";
  DocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  const size_t w0 = system.WorkerIndex("w0");
  const size_t w1 = system.WorkerIndex("w1");

  // Pour consistent answers into task 3 so its entropy collapses.
  for (const char* id : {"a", "b", "c", "d", "e", "f"}) {
    system.OnAnswer(system.WorkerIndex(id), 3, 0);
  }
  auto selected = system.SelectTasks(w0, 10);
  for (size_t task : selected) EXPECT_NE(task, 3u);
  // Worker identity does not change the ranking under this rule.
  EXPECT_EQ(selected, system.SelectTasks(w1, 10));
}

TEST_F(DocsSystemTest, QualityBlindRuleNeutralizesDomainMatch) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  const auto canon =
      kb::CanonicalDomains::Resolve(kb_->knowledge_base.taxonomy());

  auto build = [&](SelectionRule rule) {
    DocsSystemOptions options;
    options.golden_count = 0;
    options.selection_rule = rule;
    auto system = std::make_unique<DocsSystem>(&kb_->knowledge_base, options);
    std::vector<TaskInput> inputs;
    for (const auto& task : dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    EXPECT_TRUE(system->AddTasks(inputs).ok());
    const size_t worker = system->WorkerIndex("expert");
    WorkerQuality quality;
    quality.quality.assign(26, 0.5);
    quality.quality[canon.food] = 0.98;
    quality.weight.assign(26, 10.0);
    EXPECT_TRUE(const_cast<IncrementalTruthInference&>(system->inference())
                    .SetWorkerQuality(worker, quality)
                    .ok());
    return system;
  };

  // Full benefit routes the food expert to food tasks; the quality-blind
  // ablation has no basis to prefer them.
  auto full = build(SelectionRule::kBenefit);
  auto blind = build(SelectionRule::kQualityBlind);
  const size_t w_full = full->WorkerIndex("expert");
  const size_t w_blind = blind->WorkerIndex("expert");
  auto count_food = [&](const std::vector<size_t>& selected) {
    size_t food = 0;
    for (size_t task : selected) {
      food += dataset.tasks[task].true_domain == canon.food;
    }
    return food;
  };
  EXPECT_GT(count_food(full->SelectTasks(w_full, 10)),
            count_food(blind->SelectTasks(w_blind, 10)));
}

TEST_F(DocsSystemTest, PersistenceRoundTripViaWorkerStore) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 5);
  const size_t worker = system->WorkerIndex("w0");
  for (int round = 0; round < 3; ++round) {
    for (size_t task : system->SelectTasks(worker, 2)) {
      system->OnAnswer(worker, task, dataset.tasks[task].truth);
    }
  }
  auto store = storage::WorkerStore::InMemory(26);
  ASSERT_TRUE(system->SaveWorker("w0", &store).ok());

  // A new session: the returning worker skips the golden phase and keeps
  // her profile.
  auto fresh = MakeSystem(dataset, 5);
  ASSERT_TRUE(fresh->LoadWorker("w0", store).ok());
  const size_t reloaded = fresh->WorkerIndex("w0");
  auto selected = fresh->SelectTasks(reloaded, 3);
  std::set<size_t> golden(fresh->golden_tasks().begin(),
                          fresh->golden_tasks().end());
  size_t golden_hits = 0;
  for (size_t task : selected) golden_hits += golden.count(task);
  EXPECT_LT(golden_hits, selected.size());  // not forced through golden
  const auto& quality = fresh->inference().worker_quality(reloaded);
  EXPECT_EQ(quality.quality.size(), 26u);
}

TEST_F(DocsSystemTest, LoadWorkerRejectsMismatchedDomainCount) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 5);

  // A store written against an older KB revision with fewer domains: its
  // records must be rejected up front, not fed into the inference state.
  auto stale_store = storage::WorkerStore::InMemory(7);
  auto record = storage::WorkerQualityRecord::Fresh(7, 0.9);
  ASSERT_TRUE(stale_store.Put("veteran", record).ok());

  const Status status = system->LoadWorker("veteran", stale_store);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The rejected load must not have left a half-registered profile behind:
  // the worker still goes through the golden probe like any newcomer.
  const size_t worker = system->WorkerIndex("veteran");
  auto selected = system->SelectTasks(worker, 3);
  std::set<size_t> golden(system->golden_tasks().begin(),
                          system->golden_tasks().end());
  for (size_t task : selected) EXPECT_TRUE(golden.count(task)) << task;
}

TEST_F(DocsSystemTest, LoadWorkerBeforeAddTasksFails) {
  DocsSystem system(&kb_->knowledge_base);
  auto store = storage::WorkerStore::InMemory(26);
  auto record = storage::WorkerQualityRecord::Fresh(26, 0.8);
  ASSERT_TRUE(store.Put("early-bird", record).ok());
  EXPECT_EQ(system.LoadWorker("early-bird", store).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DocsSystemTest, LoadUnknownWorkerFails) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset);
  auto store = storage::WorkerStore::InMemory(26);
  EXPECT_FALSE(system->LoadWorker("ghost", store).ok());
}

TEST_F(DocsSystemTest, SaveUnknownWorkerFails) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset);
  auto store = storage::WorkerStore::InMemory(26);
  EXPECT_FALSE(system->SaveWorker("ghost", &store).ok());
}

TEST_F(DocsSystemTest, InferredChoicesCoversAllTasks) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  auto system = MakeSystem(dataset, 0);
  EXPECT_EQ(system->InferredChoices().size(), dataset.tasks.size());
}

}  // namespace
}  // namespace docs::core

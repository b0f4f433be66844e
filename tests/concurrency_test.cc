#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "storage/worker_store.h"

namespace docs::core {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }
  static kb::SyntheticKb* kb_;
};

kb::SyntheticKb* ConcurrencyTest::kb_ = nullptr;

TEST_F(ConcurrencyTest, ParallelWorkersDriveOneSystemConsistently) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 8;
  options.reinfer_every = 50;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  auto truths = dataset.Truths();
  ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());

  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 8;
  auto workers = crowd::MakeWorkerPool(26, dataset.label_to_domain,
                                       pool_options, 91);

  // Each thread plays one simulated worker: request a HIT, answer it,
  // repeat. Threads interleave arbitrarily; the facade must keep every
  // invariant (no duplicate (worker, task) answers, consistent counters).
  std::atomic<size_t> total_answers{0};
  auto play_worker = [&](size_t w) {
    Rng rng(1000 + w);
    for (int round = 0; round < 10; ++round) {
      auto hit = system.RequestTasks(workers[w].id, 4);
      if (hit.empty()) break;
      for (size_t task : hit) {
        const auto& spec = dataset.tasks[task];
        const Status submitted = system.SubmitAnswer(
            workers[w].id, task,
            crowd::GenerateAnswer(workers[w], spec.true_domain, spec.truth,
                                  spec.num_choices(), rng));
        // Each thread owns one worker and only answers its own grants, so
        // every submission must be accepted.
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
        if (submitted.ok()) total_answers.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back(play_worker, w);
  }
  for (auto& thread : threads) thread.join();

  // Every submitted answer was accepted exactly once (no duplicates were
  // possible because each thread owns one worker, and the facade never lost
  // an update).
  EXPECT_EQ(system.num_answers(), total_answers.load());
  EXPECT_EQ(system.InferredChoices().size(), dataset.tasks.size());

  // The per-(worker, task) uniqueness invariant survived the interleaving.
  system.WithLocked([&](DocsSystem& inner) {
    std::set<std::pair<size_t, size_t>> seen;
    for (const auto& answer : inner.inference().answers()) {
      EXPECT_TRUE(seen.insert({answer.worker, answer.task}).second);
    }
    return 0;
  });
}

TEST_F(ConcurrencyTest, ConcurrentReadersDuringWrites) {
  auto dataset = datasets::MakeQaDataset(*kb_, 60, 92);
  DocsSystemOptions options;
  options.golden_count = 0;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto choices = system.InferredChoices();
      ASSERT_EQ(choices.size(), dataset.tasks.size());
    }
  });
  Rng rng(93);
  for (int i = 0; i < 200; ++i) {
    const std::string worker = "w" + std::to_string(i % 5);
    auto hit = system.RequestTasks(worker, 2);
    for (size_t task : hit) {
      const Status submitted = system.SubmitAnswer(
          worker, task, rng.UniformInt(dataset.tasks[task].num_choices()));
      EXPECT_TRUE(submitted.ok()) << submitted.ToString();
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(system.num_answers(), 0u);
}

TEST_F(ConcurrencyTest, SubmitAnswerRejectsWorkersNeverSeen) {
  auto dataset = datasets::MakeQaDataset(*kb_, 20, 95);
  DocsSystemOptions options;
  options.golden_count = 0;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  // A malformed/forged id arriving over the network must not silently mint
  // a fresh worker (regression: SubmitAnswer used to call WorkerIndex).
  const Status ghost = system.SubmitAnswer("ghost", 0, 0);
  EXPECT_EQ(ghost.code(), StatusCode::kInvalidArgument);
  const bool registered = system.WithLocked([](DocsSystem& inner) {
    return inner.FindWorker("ghost").has_value();
  });
  EXPECT_FALSE(registered);

  // The legitimate path — RequestTasks first — still works, and so does a
  // worker registered via LoadWorker.
  auto hit = system.RequestTasks("ghost", 1);
  ASSERT_FALSE(hit.empty());
  EXPECT_TRUE(system.SubmitAnswer("ghost", hit[0], 0).ok());

  auto store = storage::WorkerStore::InMemory(kb_->knowledge_base.num_domains());
  storage::WorkerQualityRecord record;
  record.quality.assign(kb_->knowledge_base.num_domains(), 0.7);
  record.weight.assign(kb_->knowledge_base.num_domains(), 10.0);
  ASSERT_TRUE(store.Put("returning", record).ok());
  ASSERT_TRUE(system.LoadWorker("returning", store).ok());
  EXPECT_TRUE(system.SubmitAnswer("returning", 1, 0).ok());
}

/// Cases that must hold in both serving modes, run once per mode (the param
/// is DocsSystemOptions::async_inference).
class ConcurrencyModeTest : public ConcurrencyTest,
                            public ::testing::WithParamInterface<bool> {
 protected:
  static std::vector<TaskInput> Inputs(const datasets::Dataset& dataset) {
    std::vector<TaskInput> inputs;
    for (const auto& task : dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    return inputs;
  }
};

TEST_P(ConcurrencyModeTest, RequestBeforeIngestGrantsNothingAndRegistersNone) {
  auto dataset = datasets::MakeQaDataset(*kb_, 20, 95);
  DocsSystemOptions options;
  options.golden_count = 0;
  options.async_inference = GetParam();
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);

  // Regression: the slow path used to register through an engine that does
  // not exist before ingest, and crashed.
  EXPECT_TRUE(system.RequestTasks("early", 2).empty());
  EXPECT_FALSE(system.KnowsWorker("early"));
  EXPECT_TRUE(system.WorkerIds().empty());
  EXPECT_EQ(system.SubmitAnswer("early", 0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system.lease_clock(), 0u);

  // Ingest still works afterwards, and the same id is then served.
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());
  auto hit = system.RequestTasks("early", 2);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_TRUE(system.SubmitAnswer("early", hit[0], 0).ok());
  EXPECT_EQ(system.WorkerIds(), std::vector<std::string>{"early"});
}

TEST_P(ConcurrencyModeTest, ExpireLeasesRacesServingCalls) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 0;
  options.lease_duration = 2;
  options.reinfer_every = 30;
  options.async_inference = GetParam();
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  // Serving-shaped load: worker threads request and (mostly) answer while a
  // reaper thread sweeps expired leases, a reader polls the counters, and a
  // registrar mints fresh workers and polls resolution and the clock — the
  // assign-lock-only paths, racing the registrations that write under it.
  // The facade must keep the lease books consistent under any interleaving.
  std::atomic<size_t> answers{0};
  std::atomic<size_t> expired{0};
  std::atomic<bool> stop{false};
  auto serve = [&](size_t w) {
    Rng rng(500 + w);
    const std::string id = "srv" + std::to_string(w);
    for (int round = 0; round < 15; ++round) {
      auto hit = system.RequestTasks(id, 3);
      if (hit.empty()) break;
      for (size_t idx = 0; idx < hit.size(); ++idx) {
        // Abandon roughly a third of the grants so the reaper has work.
        if (rng.UniformInt(3) == 0) continue;
        const Status submitted = system.SubmitAnswer(id, hit[idx], 0);
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
        if (submitted.ok()) answers.fetch_add(1);
      }
    }
  };
  std::thread reaper([&] {
    while (!stop.load()) {
      expired.fetch_add(system.ExpireLeases(system.lease_clock()).size());
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      EXPECT_LE(system.outstanding_leases(), dataset.tasks.size() * 4);
    }
  });
  constexpr size_t kFresh = 12;
  std::thread registrar([&] {
    uint64_t last_clock = 0;
    for (size_t i = 0; i < kFresh; ++i) {
      const std::string id = "fresh" + std::to_string(i);
      EXPECT_FALSE(system.KnowsWorker(id));
      EXPECT_EQ(system.RequestTasks(id, 1).size(), 1u);
      EXPECT_TRUE(system.KnowsWorker(id));
      const uint64_t clock = system.lease_clock();
      EXPECT_GT(clock, last_clock);  // her own grant ticked it
      last_clock = clock;
    }
  });
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) threads.emplace_back(serve, w);
  for (auto& thread : threads) thread.join();
  registrar.join();
  stop.store(true);
  reaper.join();
  reader.join();

  // A final sweep past every possible deadline must leave zero leases: each
  // grant was either answered (released) or reclaimed exactly once.
  expired.fetch_add(
      system
          .ExpireLeases(system.lease_clock() + options.lease_duration)
          .size());
  EXPECT_EQ(system.outstanding_leases(), 0u);
  EXPECT_EQ(system.WorkerIds().size(), 4 + kFresh);
  system.Drain();  // async: every acked answer reaches the engine
  EXPECT_EQ(system.num_answers(), answers.load());
  // Double accounting would violate per-(worker, task) uniqueness.
  system.WithLocked([&](DocsSystem& inner) {
    std::set<std::pair<size_t, size_t>> seen;
    for (const auto& answer : inner.inference().answers()) {
      EXPECT_TRUE(seen.insert({answer.worker, answer.task}).second);
    }
    return 0;
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, ConcurrencyModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "async" : "sync";
                         });

TEST_F(ConcurrencyTest, ShardedServingPathHammeredByRequestersAndMutators) {
  // Targets the sharded RequestTasks fast path (DESIGN.md §13): workers are
  // first primed past the golden phase sequentially so CanServeSharded
  // holds for every one of them, then many requester threads score
  // concurrently under shared state locks — including worker pairs that
  // collide on the same shard stripe — while answers, periodic full
  // re-inference (reinfer_every), lease sweeps, and checkpoints interleave.
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 4;
  options.reinfer_every = 20;  // exclusive-path RunFullInference mid-hammer
  options.lease_duration = 4;
  options.num_threads = 2;  // scoring-pool contention exercises the try-lock
                            // serial fallback
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  auto truths = dataset.Truths();
  ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());

  // 18 workers over 16 shard stripes: indices 16 and 17 share stripes with
  // 0 and 1, so same-shard serialization is exercised, not just disjoint
  // stripes.
  constexpr size_t kWorkers = 18;
  std::vector<std::string> ids;
  for (size_t w = 0; w < kWorkers; ++w) {
    ids.push_back("shard" + std::to_string(w));
  }

  // Sequential priming: two 4-task rounds put every worker past golden and
  // create its benefit index row, making the sharded fast path reachable.
  std::atomic<size_t> answers{0};
  for (const auto& id : ids) {
    for (int round = 0; round < 2; ++round) {
      auto hit = system.RequestTasks(id, 4);
      ASSERT_FALSE(hit.empty());
      for (size_t task : hit) {
        ASSERT_TRUE(system.SubmitAnswer(id, task, 0).ok());
        answers.fetch_add(1);
      }
    }
  }
  system.WithLocked([&](DocsSystem& inner) {
    for (const auto& id : ids) {
      const auto worker = inner.FindWorker(id);
      EXPECT_TRUE(worker.has_value() && inner.CanServeSharded(*worker))
          << id << " not primed for the sharded path";
    }
    return 0;
  });

  std::atomic<bool> stop{false};
  auto request_and_answer = [&](size_t w) {
    Rng rng(700 + w);
    for (int round = 0; round < 12; ++round) {
      auto hit = system.RequestTasks(ids[w], 3);
      if (hit.empty()) break;
      for (size_t task : hit) {
        if (rng.UniformInt(4) == 0) continue;  // abandon some grants
        const Status submitted = system.SubmitAnswer(ids[w], task, 0);
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
        if (submitted.ok()) answers.fetch_add(1);
      }
    }
  };
  std::thread reaper([&] {
    while (!stop.load()) {
      (void)system.ExpireLeases(system.lease_clock());
      std::this_thread::yield();
    }
  });
  const std::string path = ::testing::TempDir() + "/sharded_hammer_ckpt.log";
  std::remove(path.c_str());
  std::thread checkpointer([&] {
    while (!stop.load()) {
      const Status saved = system.SaveCheckpoint(path);
      EXPECT_TRUE(saved.ok()) << saved.ToString();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back(request_and_answer, w);
  }
  for (auto& thread : threads) thread.join();
  stop.store(true);
  reaper.join();
  checkpointer.join();

  // Same invariants as the monolithic-path hammers: every accepted answer
  // counted once, leases fully settled after a final sweep, and no
  // duplicate (worker, task) pair slipped through a commit race.
  (void)system.ExpireLeases(system.lease_clock() + options.lease_duration);
  EXPECT_EQ(system.outstanding_leases(), 0u);
  EXPECT_EQ(system.num_answers(), answers.load());
  system.WithLocked([&](DocsSystem& inner) {
    std::set<std::pair<size_t, size_t>> seen;
    for (const auto& answer : inner.inference().answers()) {
      EXPECT_TRUE(seen.insert({answer.worker, answer.task}).second);
    }
    return 0;
  });

  // The checkpoint taken under fire is loadable and self-consistent.
  DocsSystem restored(&kb_->knowledge_base, options);
  ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
  EXPECT_EQ(restored.tasks().size(), dataset.tasks.size());
}

TEST_F(ConcurrencyTest, CheckpointUnderLoadIsConsistent) {
  auto dataset = datasets::MakeItemDataset(*kb_);
  DocsSystemOptions options;
  options.golden_count = 4;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  auto truths = dataset.Truths();
  ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());

  const std::string path = ::testing::TempDir() + "/concurrent_ckpt.log";
  std::remove(path.c_str());

  std::thread writer([&] {
    Rng rng(94);
    for (int i = 0; i < 120; ++i) {
      const std::string worker = "w" + std::to_string(i % 6);
      auto hit = system.RequestTasks(worker, 2);
      for (size_t task : hit) {
        const Status submitted = system.SubmitAnswer(worker, task, 0);
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
      }
    }
  });
  // Checkpoints taken mid-stream must each be loadable and self-consistent.
  for (int snap = 0; snap < 5; ++snap) {
    Status status = system.SaveCheckpoint(path);
    ASSERT_TRUE(status.ok()) << status.ToString();
    DocsSystem restored(&kb_->knowledge_base, options);
    ASSERT_TRUE(restored.LoadCheckpoint(path).ok());
    EXPECT_EQ(restored.tasks().size(), dataset.tasks.size());
  }
  writer.join();
}

}  // namespace
}  // namespace docs::core

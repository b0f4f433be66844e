// Equivalence and liveness suite for async inference mode (DESIGN.md §15).
//
// The contract under test has two halves. Equivalence: a drained async
// system — every acked answer applied and published — is BITWISE identical
// to a sync system fed the same campaign: same selections, same task
// posteriors, same worker qualities, same inferred choices, across all four
// selection rules and the scoring-thread sweep. Liveness: the serving calls
// never wait on the background inference thread — SubmitAnswer acks after
// enqueue, and RequestTasks for a servable worker completes against the
// published snapshot even while an apply/EM pass is deliberately blocked.
// scripts/ci.sh additionally runs this binary under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "core/inference_service.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "reference_selector.h"
#include "storage/worker_store.h"

namespace docs::core {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};
constexpr SelectionRule kAllRules[] = {
    SelectionRule::kBenefit, SelectionRule::kDomainMax,
    SelectionRule::kUncertainty, SelectionRule::kQualityBlind};

class InferenceServiceTest : public ::testing::Test {
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

kb::SyntheticKb* InferenceServiceTest::kb_ = nullptr;

/// Drives a sync and an async facade through one identical scripted
/// campaign in lockstep. After every round the async system is drained, so
/// each RequestTasks comparison pins down the full state: any divergence in
/// the apply order, the submission books, or the snapshot scoring path
/// shows up as a selection mismatch in the round that caused it. Each grant
/// also equals the reference selector's (tests/reference_selector.h). The
/// script
/// covers golden probing, retro fan-out across co-answering workers, lease
/// abandonment + expiry sweeps, the periodic full EM, and mid-campaign
/// WorkerStore loads.
TEST_F(InferenceServiceTest, DrainedAsyncIsBitIdenticalToSyncAcrossRulesAndThreads) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }

  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 8;
  const auto personas = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      77);

  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("veteran", record).ok());

  for (SelectionRule rule : kAllRules) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)) + ", " +
                   std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 5;
      options.reinfer_every = 25;  // several full EM passes mid-campaign
      options.lease_duration = 3;
      options.selection_rule = rule;
      options.num_threads = threads;
      DocsSystemOptions async_options = options;
      async_options.async_inference = true;

      ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
      ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
      ASSERT_TRUE(sync_system.AddTasks(inputs, &truths).ok());
      ASSERT_TRUE(async_system.AddTasks(inputs, &truths).ok());
      ASSERT_TRUE(sync_system.LoadWorker("veteran", store).ok());
      ASSERT_TRUE(async_system.LoadWorker("veteran", store).ok());

      std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                      "w4", "w5", "veteran"};
      Rng rng(61);  // one stream serves both systems: selections are
                    // asserted equal before any answer is generated
      for (size_t round = 0; round < 24; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::string& id = ids[round % ids.size()];

        // Quiesce before comparing: the contract is drained-state equality,
        // not mid-flight equality (the async system is allowed to serve
        // stale between publishes).
        async_system.Drain();
        const auto expected =
            testing::ReferenceRequest(sync_system, options, id, 4);
        const auto selected = sync_system.RequestTasks(id, 4);
        ASSERT_EQ(selected, expected);
        ASSERT_EQ(async_system.RequestTasks(id, 4), selected);

        for (size_t s = 0; s < selected.size(); ++s) {
          // Every third round the worker abandons the last granted task, so
          // the expiry sweep below has real work to reclaim.
          if (round % 3 == 2 && s + 1 == selected.size()) continue;
          const size_t task = selected[s];
          const size_t choice = crowd::GenerateAnswer(
              personas[round % personas.size()],
              dataset.tasks[task].true_domain, dataset.tasks[task].truth,
              dataset.tasks[task].num_choices(), rng);
          ASSERT_TRUE(sync_system.SubmitAnswer(id, task, choice).ok());
          ASSERT_TRUE(async_system.SubmitAnswer(id, task, choice).ok());
        }

        if (round == 10 || round == 20) {
          async_system.Drain();
          const auto sync_swept =
              sync_system.ExpireLeases(sync_system.lease_clock());
          const auto async_swept =
              async_system.ExpireLeases(async_system.lease_clock());
          ASSERT_EQ(async_swept.size(), sync_swept.size());
          for (size_t i = 0; i < sync_swept.size(); ++i) {
            EXPECT_EQ(async_swept[i].worker, sync_swept[i].worker);
            EXPECT_EQ(async_swept[i].task, sync_swept[i].task);
            EXPECT_EQ(async_swept[i].deadline, sync_swept[i].deadline);
          }
        }
      }

      async_system.Drain();
      EXPECT_EQ(async_system.InferredChoices(), sync_system.InferredChoices());
      EXPECT_EQ(async_system.num_answers(), sync_system.num_answers());

      // Posteriors and worker qualities, exact to the last bit.
      const size_t num_tasks = inputs.size();
      for (size_t t = 0; t < num_tasks; ++t) {
        const auto sync_truth = sync_system.WithLocked(
            [&](DocsSystem& s) { return s.inference().task_truth(t); });
        const auto async_truth = async_system.WithLocked(
            [&](DocsSystem& s) { return s.inference().task_truth(t); });
        ASSERT_EQ(async_truth, sync_truth) << "task " << t;
      }
      const size_t workers = sync_system.WithLocked(
          [](DocsSystem& s) { return s.inference().num_workers(); });
      ASSERT_EQ(async_system.WithLocked([](DocsSystem& s) {
        return s.inference().num_workers();
      }),
                workers);
      for (size_t w = 0; w < workers; ++w) {
        const auto sync_quality = sync_system.WithLocked(
            [&](DocsSystem& s) { return s.inference().worker_quality(w); });
        const auto async_quality = async_system.WithLocked(
            [&](DocsSystem& s) { return s.inference().worker_quality(w); });
        ASSERT_EQ(async_quality.quality, sync_quality.quality) << "worker " << w;
        ASSERT_EQ(async_quality.weight, sync_quality.weight) << "worker " << w;
      }
    }
  }
}

/// The three serving paths share one benefit scorer that differs only in
/// where it reads M^(i) and H(s_i): the exclusive SelectTasks path and the
/// sharded sync path read the live engine, the async path a published
/// snapshot. After a lockstep campaign and Drain(), each path ranks every
/// task for every worker (k = n), which orders all of that path's scores,
/// and must equal the reference selector's full ranking
/// (tests/reference_selector.h) under every selection rule; ScoreAllTasks
/// must equal the reference scores exactly.
TEST_F(InferenceServiceTest, ScoresAreIdenticalAcrossServingPathsAfterDrain) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 5;
  const auto personas = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      83);
  const std::vector<std::string> ids = {"w0", "w1", "w2", "w3", "w4"};

  for (SelectionRule rule : kAllRules) {
    SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)));
    DocsSystemOptions options;
    options.golden_count = 5;
    options.reinfer_every = 25;
    options.selection_rule = rule;
    options.num_threads = 2;
    DocsSystemOptions async_options = options;
    async_options.async_inference = true;

    DocsSystem exclusive(&kb_->knowledge_base, options);
    ConcurrentDocsSystem sharded(&kb_->knowledge_base, options);
    ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
    ASSERT_TRUE(exclusive.AddTasks(inputs, &truths).ok());
    ASSERT_TRUE(sharded.AddTasks(inputs, &truths).ok());
    ASSERT_TRUE(async_system.AddTasks(inputs, &truths).ok());

    Rng rng(67);
    for (size_t round = 0; round < 20; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::string& id = ids[round % ids.size()];
      async_system.Drain();
      const auto selected =
          exclusive.SelectTasks(exclusive.WorkerIndex(id), 4);
      ASSERT_EQ(sharded.RequestTasks(id, 4), selected);
      ASSERT_EQ(async_system.RequestTasks(id, 4), selected);
      for (size_t task : selected) {
        const size_t choice = crowd::GenerateAnswer(
            personas[round % personas.size()], dataset.tasks[task].true_domain,
            dataset.tasks[task].truth, dataset.tasks[task].num_choices(), rng);
        ASSERT_TRUE(exclusive.SubmitAnswer(exclusive.WorkerIndex(id), task,
                                           choice)
                        .ok());
        ASSERT_TRUE(sharded.SubmitAnswer(id, task, choice).ok());
        ASSERT_TRUE(async_system.SubmitAnswer(id, task, choice).ok());
      }
    }
    async_system.Drain();
    // One answer-free full ranking per worker and path against the drained
    // state. No leases are granted (lease_duration 0), so the three systems
    // stay in lockstep.
    const size_t n = exclusive.tasks().size();
    for (const std::string& id : ids) {
      SCOPED_TRACE("worker " + id);
      const size_t w = exclusive.WorkerIndex(id);
      const auto expected = testing::ReferenceSelect(exclusive, options, w, n);
      ASSERT_EQ(expected.size(),
                n - exclusive.inference().answered_tasks(w).size());
      EXPECT_EQ(exclusive.SelectTasks(w, n), expected);
      EXPECT_EQ(sharded.RequestTasks(id, n), expected);
      EXPECT_EQ(async_system.RequestTasks(id, n), expected);

      const auto reference = testing::ReferenceScores(exclusive, options, w);
      EXPECT_EQ(exclusive.ScoreAllTasks(w), reference);
      EXPECT_EQ(sharded.WithLocked(
                    [&](DocsSystem& s) { return s.ScoreAllTasks(w); }),
                reference);
      EXPECT_EQ(async_system.WithLocked(
                    [&](DocsSystem& s) { return s.ScoreAllTasks(w); }),
                reference);
    }
  }
}

/// The golden probe closes on the same seed in both modes. A worker who
/// asks again before her last golden answers are applied finds all of them
/// booked while the engine has absorbed none; the facade drains before it
/// serves her, so the golden tallies that seed her quality see every golden
/// answer, as in sync mode, and her next grant is ranked with that seed.
TEST_F(InferenceServiceTest, GoldenProbeSeedsQualityBeforeTheNextGrant) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 4;
  options.reinfer_every = 0;
  options.num_threads = 1;
  DocsSystemOptions async_options = options;
  async_options.async_inference = true;
  ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
  ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
  // Slow applies keep the golden answers queued when the next request
  // arrives.
  async_system.SetAsyncApplyHookForTest([](const PendingAnswer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  ASSERT_TRUE(sync_system.AddTasks(inputs, &truths).ok());
  ASSERT_TRUE(async_system.AddTasks(inputs, &truths).ok());

  const auto golden = sync_system.RequestTasks("w", 4);
  ASSERT_EQ(golden.size(), 4u);
  ASSERT_EQ(async_system.RequestTasks("w", 4), golden);
  for (size_t task : golden) {
    // Right on the even-numbered golden tasks, wrong on the others, so the
    // seed differs from the default profile.
    const size_t choice = task % 2 == 0 ? truths[task]
                                        : (truths[task] + 1) %
                                              inputs[task].num_choices;
    ASSERT_TRUE(sync_system.SubmitAnswer("w", task, choice).ok());
    ASSERT_TRUE(async_system.SubmitAnswer("w", task, choice).ok());
  }
  const auto next = sync_system.RequestTasks("w", 2);
  EXPECT_EQ(async_system.RequestTasks("w", 2), next);
  async_system.Drain();

  const auto quality = [](ConcurrentDocsSystem& system) {
    return system.WithLocked([](DocsSystem& s) {
      return s.inference().worker_quality(0).quality;
    });
  };
  EXPECT_EQ(quality(async_system), quality(sync_system));
  const double default_quality = options.truth_inference.default_quality;
  const auto seeded = quality(sync_system);
  EXPECT_TRUE(std::any_of(seeded.begin(), seeded.end(), [&](double q) {
    return q != default_quality;
  }));
}

/// SubmitAnswer acks synchronously with the same status codes and messages
/// as sync mode — the wire contract must not change with the execution
/// model, and a duplicate must be caught at ack time from the submission
/// books, before the answer is ever applied.
TEST_F(InferenceServiceTest, RejectionsAreSynchronousAndMatchSyncCodes) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  DocsSystemOptions async_options = options;
  async_options.async_inference = true;
  ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
  ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
  ASSERT_TRUE(sync_system.AddTasks(inputs).ok());
  ASSERT_TRUE(async_system.AddTasks(inputs).ok());

  const auto sync_hit = sync_system.RequestTasks("w", 2);
  const auto async_hit = async_system.RequestTasks("w", 2);
  ASSERT_EQ(async_hit, sync_hit);
  ASSERT_GE(sync_hit.size(), 2u);

  // A worker id never seen by RequestTasks/LoadWorker.
  const Status sync_ghost = sync_system.SubmitAnswer("ghost", sync_hit[0], 0);
  const Status async_ghost = async_system.SubmitAnswer("ghost", sync_hit[0], 0);
  EXPECT_EQ(async_ghost.code(), sync_ghost.code());
  EXPECT_FALSE(async_ghost.ok());

  // Unknown task and out-of-range choice: identical code AND message.
  EXPECT_EQ(async_system.SubmitAnswer("w", 9999, 0),
            sync_system.SubmitAnswer("w", 9999, 0));
  EXPECT_EQ(async_system.SubmitAnswer("w", sync_hit[0], 999),
            sync_system.SubmitAnswer("w", sync_hit[0], 999));

  // Duplicate detection is immediate — no Drain between the two submits, so
  // the first answer is likely still in the queue when the retry arrives.
  ASSERT_TRUE(sync_system.SubmitAnswer("w", sync_hit[0], 0).ok());
  ASSERT_TRUE(async_system.SubmitAnswer("w", sync_hit[0], 0).ok());
  EXPECT_EQ(async_system.SubmitAnswer("w", sync_hit[0], 1),
            sync_system.SubmitAnswer("w", sync_hit[0], 1));
  EXPECT_EQ(async_system.SubmitAnswer("w", sync_hit[0], 1).code(),
            StatusCode::kAlreadyExists);

  // Only the accepted answer reached inference.
  async_system.Drain();
  EXPECT_EQ(async_system.num_answers(), sync_system.num_answers());
  EXPECT_EQ(async_system.num_answers(), 1u);
}

/// The rejection contract one acceptance path keeps (ValidateAnswer): every
/// rejection class gets the same StatusCode and message from a bare
/// DocsSystem, a sync facade and an async facade. Two classes are decided
/// before the system sees the answer: the facades resolve the external id
/// first, so before ingest and for an unknown id they answer "unknown
/// worker '<id>'", where the bare system, called by index, names the index.
/// Those two are pinned per layer, with the facades equal to each other.
TEST_F(InferenceServiceTest, RejectionContractIsOneAcrossBareSyncAndAsync) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  DocsSystemOptions async_options = options;
  async_options.async_inference = true;
  DocsSystem bare(&kb_->knowledge_base, options);
  ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
  ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
  std::atomic<bool> gate{false};
  std::atomic<bool> parked{false};
  async_system.SetAsyncApplyHookForTest([&](const PendingAnswer&) {
    if (!gate.load(std::memory_order_acquire)) return;
    parked.store(true, std::memory_order_release);
    while (gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::string unknown_w =
      "unknown worker 'w': never seen by RequestTasks/LoadWorker";

  // No tasks.
  EXPECT_EQ(bare.SubmitAnswer(0, 0, 0),
            Status(StatusCode::kFailedPrecondition, "no tasks ingested"));
  EXPECT_EQ(sync_system.SubmitAnswer("w", 0, 0),
            Status(StatusCode::kInvalidArgument, unknown_w));
  EXPECT_EQ(async_system.SubmitAnswer("w", 0, 0),
            Status(StatusCode::kInvalidArgument, unknown_w));

  ASSERT_TRUE(bare.AddTasks(inputs).ok());
  ASSERT_TRUE(sync_system.AddTasks(inputs).ok());
  ASSERT_TRUE(async_system.AddTasks(inputs).ok());

  // Unknown worker.
  EXPECT_EQ(bare.SubmitAnswer(0, 0, 0),
            Status(StatusCode::kInvalidArgument, "unknown worker 0"));
  EXPECT_EQ(sync_system.SubmitAnswer("w", 0, 0),
            Status(StatusCode::kInvalidArgument, unknown_w));
  EXPECT_EQ(async_system.SubmitAnswer("w", 0, 0),
            Status(StatusCode::kInvalidArgument, unknown_w));

  ASSERT_EQ(bare.WorkerIndex("w"), 0u);
  ASSERT_FALSE(sync_system.RequestTasks("w", 2).empty());
  ASSERT_FALSE(async_system.RequestTasks("w", 2).empty());

  // Every class past the id resolution: one expected status for all three.
  const auto expect_all = [&](size_t task, size_t choice,
                              const Status& expected) {
    EXPECT_EQ(bare.SubmitAnswer(0, task, choice), expected);
    EXPECT_EQ(sync_system.SubmitAnswer("w", task, choice), expected);
    EXPECT_EQ(async_system.SubmitAnswer("w", task, choice), expected);
  };
  expect_all(9999, 0,
             Status(StatusCode::kInvalidArgument, "unknown task 9999"));
  const size_t choices = inputs[3].num_choices;
  expect_all(3, 999,
             Status(StatusCode::kOutOfRange,
                    "choice 999 out of range for task 3 with " +
                        std::to_string(choices) + " choices"));
  expect_all(3, 0, OkStatus());
  async_system.Drain();
  const Status duplicate_of_3(StatusCode::kAlreadyExists,
                              "duplicate answer from worker 0 for task 3");
  expect_all(3, 1, duplicate_of_3);

  // Async only: a duplicate whose original is still queued. The apply
  // thread is parked on the original, so the engine has not absorbed it;
  // the books reject the retry all the same.
  ASSERT_TRUE(bare.SubmitAnswer(0, 5, 0).ok());
  gate.store(true, std::memory_order_release);
  ASSERT_TRUE(async_system.SubmitAnswer("w", 5, 0).ok());
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Status duplicate_of_5(StatusCode::kAlreadyExists,
                              "duplicate answer from worker 0 for task 5");
  EXPECT_EQ(bare.SubmitAnswer(0, 5, 1), duplicate_of_5);
  EXPECT_EQ(async_system.SubmitAnswer("w", 5, 1), duplicate_of_5);
  EXPECT_EQ(async_system.async_stats().service.answers_applied, 1u);
  gate.store(false, std::memory_order_release);
  async_system.Drain();
  EXPECT_EQ(async_system.num_answers(), 2u);
  EXPECT_EQ(bare.inference().num_answers(), 2u);
}

/// Staleness observability: the counters expose exactly how far behind the
/// published snapshot is, and a drain settles them to zero-pending with the
/// epoch advanced past every acked answer.
TEST_F(InferenceServiceTest, StalenessCountersTrackQueueAndPublishes) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 10;
  options.num_threads = 1;
  options.async_inference = true;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);

  // Sync mode (and pre-ingest) reports disabled and all-zero.
  ConcurrentDocsSystem sync_system(&kb_->knowledge_base, DocsSystemOptions{});
  ASSERT_TRUE(sync_system.AddTasks(inputs).ok());
  EXPECT_FALSE(sync_system.async_stats().enabled);
  EXPECT_EQ(sync_system.async_stats().service.snapshot_epoch, 0u);

  ASSERT_TRUE(system.AddTasks(inputs).ok());
  const AsyncInferenceStats boot = system.async_stats();
  EXPECT_TRUE(boot.enabled);
  EXPECT_EQ(boot.service.snapshot_epoch, 1u);  // the ingest-time publish
  EXPECT_EQ(boot.service.answers_enqueued, 0u);

  const auto hit = system.RequestTasks("w", 4);
  ASSERT_GE(hit.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(system.SubmitAnswer("w", hit[s], 0).ok());
  }
  system.Drain();

  const AsyncInferenceStats drained = system.async_stats();
  EXPECT_EQ(drained.service.answers_enqueued, 3u);
  EXPECT_EQ(drained.service.answers_applied, 3u);
  EXPECT_EQ(drained.service.answers_pending, 0u);
  EXPECT_GT(drained.service.snapshot_epoch, boot.service.snapshot_epoch);
  EXPECT_GE(drained.service.publishes, 1u);

  // The lease sweep records which snapshot epoch it was consistent with.
  (void)system.ExpireLeases(system.lease_clock());
  EXPECT_EQ(system.async_stats().last_sweep_epoch,
            drained.service.snapshot_epoch);
}

/// Backpressure: a tiny queue plus a deliberately slow apply hook forces
/// producers to block in Enqueue instead of growing memory without bound —
/// and every acked answer still lands exactly once.
TEST_F(InferenceServiceTest, BoundedQueueBackpressureLosesNothing) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  options.async_inference = true;
  options.async_queue_capacity = 4;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  system.SetAsyncApplyHookForTest([](const PendingAnswer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  constexpr size_t kProducers = 4;
  constexpr size_t kAnswersEach = 30;
  for (size_t p = 0; p < kProducers; ++p) {
    // Register up front (registration is the cold, state-locked path).
    ASSERT_FALSE(system.RequestTasks("p" + std::to_string(p), 1).empty());
  }
  std::vector<std::thread> producers;
  std::atomic<size_t> accepted{0};
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::string id = "p" + std::to_string(p);
      for (size_t t = 0; t < kAnswersEach; ++t) {
        if (system.SubmitAnswer(id, t, 0).ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : producers) thread.join();
  system.Drain();

  const AsyncInferenceStats stats = system.async_stats();
  EXPECT_EQ(accepted.load(), kProducers * kAnswersEach);
  EXPECT_EQ(stats.service.answers_enqueued, accepted.load());
  EXPECT_EQ(stats.service.answers_applied, accepted.load());
  EXPECT_EQ(stats.service.answers_pending, 0u);
  EXPECT_GT(stats.service.enqueue_waits, 0u);
  EXPECT_EQ(system.num_answers(), accepted.load());
}

/// The headline regression: RequestTasks for a servable worker completes
/// while the background thread is parked mid-apply (standing in for a slow
/// retro-update + full EM pass holding the state lock exclusively), and
/// SubmitAnswer acks without waiting for that pass either. In sync mode
/// both calls would queue behind the EM.
TEST_F(InferenceServiceTest, ServingNeverBlocksOnSlowApply) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 1;  // every answer triggers the full EM
  options.num_threads = 2;
  options.async_inference = true;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::atomic<bool> gate{false};
  std::atomic<bool> parked{false};
  system.SetAsyncApplyHookForTest([&](const PendingAnswer&) {
    if (!gate.load(std::memory_order_acquire)) return;
    parked.store(true, std::memory_order_release);
    while (gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  // Warm-up: register, answer once, drain — the published snapshot now
  // carries the worker as servable.
  const auto first = system.RequestTasks("w", 2);
  ASSERT_GE(first.size(), 2u);
  ASSERT_TRUE(system.SubmitAnswer("w", first[0], 0).ok());
  system.Drain();
  const uint64_t epoch_before = system.async_stats().service.snapshot_epoch;

  // Park the apply thread on the next answer, holding state + pool the way
  // a long EM pass does.
  gate.store(true, std::memory_order_release);
  const auto ack_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(system.SubmitAnswer("w", first[1], 0).ok());
  const auto ack_elapsed = std::chrono::steady_clock::now() - ack_start;
  EXPECT_LT(ack_elapsed, std::chrono::seconds(5));
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Serve from the stale snapshot. A state-lock dependency anywhere on this
  // path would deadlock here (the apply thread holds it until the gate
  // opens) — the 300 s ctest timeout is the backstop.
  const auto serve_start = std::chrono::steady_clock::now();
  const auto served = system.RequestTasks("w", 2);
  const auto serve_elapsed = std::chrono::steady_clock::now() - serve_start;
  EXPECT_FALSE(served.empty());
  EXPECT_LT(serve_elapsed, std::chrono::seconds(5));
  EXPECT_EQ(system.async_stats().service.snapshot_epoch, epoch_before);

  // The lease sweep is equally independent of the parked apply.
  (void)system.ExpireLeases(system.lease_clock());

  gate.store(false, std::memory_order_release);
  system.Drain();
  EXPECT_GT(system.async_stats().service.snapshot_epoch, epoch_before);
  EXPECT_EQ(system.num_answers(), 2u);
}

/// An observer's counter reads never wait on the apply thread: with the
/// apply parked mid-batch (holding the state lock exclusively, as an EM pass
/// does), the five lock-free counters each return within the deadline. The
/// reads run on their own thread so a read that blocks fails the test
/// instead of hanging it; the gate opens afterwards either way.
TEST_F(InferenceServiceTest, CounterReadsNeverBlockOnSlowApply) {
  const std::vector<TaskInput> inputs = [&] {
    const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
    std::vector<TaskInput> out;
    for (const auto& task : dataset.tasks) {
      out.push_back({task.text, task.num_choices()});
    }
    return out;
  }();
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 1;
  options.num_threads = 1;
  options.async_inference = true;
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  std::atomic<bool> gate{false};
  std::atomic<bool> parked{false};
  system.SetAsyncApplyHookForTest([&](const PendingAnswer&) {
    if (!gate.load(std::memory_order_acquire)) return;
    parked.store(true, std::memory_order_release);
    while (gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  const auto first = system.RequestTasks("w", 2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(system.SubmitAnswer("w", first[0], 0).ok());
  system.Drain();

  gate.store(true, std::memory_order_release);
  ASSERT_TRUE(system.SubmitAnswer("w", first[1], 0).ok());
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<int> reads_done{0};
  std::thread observer([&] {
    (void)system.benefit_cache_misses();
    reads_done.fetch_add(1, std::memory_order_release);
    (void)system.benefit_cache_request_hits();
    reads_done.fetch_add(1, std::memory_order_release);
    (void)system.benefit_cache_request_misses();
    reads_done.fetch_add(1, std::memory_order_release);
    (void)system.benefit_index_pops();
    reads_done.fetch_add(1, std::memory_order_release);
    (void)system.benefit_index_rebuilds();
    reads_done.fetch_add(1, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reads_done.load(std::memory_order_acquire) < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reads_done.load(std::memory_order_acquire), 5)
      << "a counter read waited on the parked apply";
  EXPECT_TRUE(parked.load(std::memory_order_acquire));

  gate.store(false, std::memory_order_release);
  observer.join();
  system.Drain();
  EXPECT_EQ(system.num_answers(), 2u);
}

}  // namespace
}  // namespace docs::core

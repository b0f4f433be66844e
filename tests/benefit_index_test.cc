// Equivalence suite for the per-worker ordered benefit index (DESIGN.md §16).
//
// The index is a max-heap over the worker's benefit scores (exact entries)
// and their upper bounds, rebuilt whenever its key (worker epoch,
// generation, answers absorbed) moves; a warm RequestTasks reads the top-k
// eligible tasks off it in O(k log n) instead of scanning all n scores. The
// contract is that an index-served selection is BITWISE identical to the
// reference selector (tests/reference_selector.h: every eligible task
// scored from scratch with the reference kernel, then sorted) — after every
// mutation class: answer submissions (including the §4.2 retro-update
// fan-out, which stales the indexes of uninvolved workers), lease expiry
// (which must invalidate nothing), the periodic full re-inference (which
// must invalidate everything with ONE generation bump, never an O(n) epoch
// walk), mid-campaign WorkerStore reseeds, and redundancy-cap churn that
// the heap walk skips through. Every comparison is exact (operator== on
// doubles), not a tolerance check. scripts/ci.sh additionally runs this
// binary under TSan and under DOCS_DEBUG_CHECKS (which compiles in the O(n)
// heap audit).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "client/crowd_client.h"
#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "reference_selector.h"
#include "server/crowd_gateway.h"
#include "storage/worker_store.h"

namespace docs::core {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};
constexpr SelectionRule kAllRules[] = {
    SelectionRule::kBenefit, SelectionRule::kDomainMax,
    SelectionRule::kUncertainty, SelectionRule::kQualityBlind};

std::vector<std::tuple<size_t, size_t, uint64_t>> Flatten(
    const std::vector<ExpiredLease>& leases) {
  std::vector<std::tuple<size_t, size_t, uint64_t>> out;
  out.reserve(leases.size());
  for (const auto& lease : leases) {
    out.emplace_back(lease.worker, lease.task, lease.deadline);
  }
  return out;
}

class BenefitIndexTest : public ::testing::Test {
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

kb::SyntheticKb* BenefitIndexTest::kb_ = nullptr;

/// The sync lockstep: a DocsSystem driven through one scripted campaign
/// grants what the reference selector picks at every step. The script hits
/// every invalidation class the index must survive: retro fan-out across
/// co-answering workers, abandoned grants reclaimed by ExpireLeases, the
/// periodic RunFullInference (the O(1) generation invalidation), and
/// mid-campaign WorkerStore reseeds — with and without a redundancy cap of
/// one, under which the walk skips the tasks other workers answered or hold
/// leases on.
TEST_F(BenefitIndexTest, IndexedServingIsBitIdenticalAcrossRulesAndThreads) {
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
  ASSERT_TRUE(store.Put("vet2", record).ok());

  for (size_t cap : {size_t{0}, size_t{1}}) {
    for (SelectionRule rule : kAllRules) {
      for (size_t threads : kThreadSweep) {
        SCOPED_TRACE("cap " + std::to_string(cap) + ", rule " +
                     std::to_string(static_cast<int>(rule)) + ", " +
                     std::to_string(threads) + " threads");
        DocsSystemOptions options;
        options.golden_count = 5;
        options.reinfer_every = 25;  // several O(1) invalidations mid-campaign
        options.lease_duration = 3;
        options.max_answers_per_task = cap;
        options.selection_rule = rule;
        options.num_threads = threads;

        DocsSystem system(&kb_->knowledge_base, options);
        ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());
        ASSERT_TRUE(system.LoadWorker("veteran", store).ok());

        std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                        "w4", "w5", "veteran"};
        Rng rng(61);
        for (size_t round = 0; round < 30; ++round) {
          SCOPED_TRACE("round " + std::to_string(round));
          if (round == 15) {
            // Mid-campaign reseeds: an active worker's quality is replaced
            // from the store (worker-epoch bump -> index rebuild), and a new
            // veteran joins past the golden phase.
            ASSERT_TRUE(system.LoadWorker("veteran", store).ok());
            ASSERT_TRUE(system.LoadWorker("vet2", store).ok());
            ids.push_back("vet2");
          }
          const size_t w = system.WorkerIndex(ids[round % ids.size()]);
          const auto expected = testing::ReferenceSelect(system, options, w, 4);
          const auto selected = system.SelectTasks(w, 4);
          ASSERT_EQ(selected, expected);

          for (size_t s = 0; s < selected.size(); ++s) {
            // Every third round the worker abandons the last granted task, so
            // ExpireLeases below has real work to reclaim.
            if (round % 3 == 2 && s + 1 == selected.size()) continue;
            const size_t task = selected[s];
            const size_t choice = crowd::GenerateAnswer(
                personas[round % personas.size()],
                dataset.tasks[task].true_domain, dataset.tasks[task].truth,
                dataset.tasks[task].num_choices(), rng);
            ASSERT_TRUE(system.SubmitAnswer(w, task, choice).ok());
          }

          if (round == 10 || round == 20) {
            EXPECT_FALSE(system.ExpireLeases(system.lease_clock()).empty());
          }
        }

        // The index actually served: heap reads and rebuilds happened, and the
        // periodic full inference registered as generation invalidations.
        EXPECT_GT(system.benefit_index_pops(), 0u);
        EXPECT_GT(system.benefit_index_rebuilds(), 0u);
        EXPECT_GT(system.benefit_index_generation_invalidations(), 0u);
      }
    }
  }
}

/// The async lockstep: with the inference decoupled onto the background
/// service (DESIGN.md §15), an async facade drained before every request
/// grants what the reference selector picks, and what the sync facade
/// grants. The async path exercises the index on the snapshot path
/// (rebuilt under the snapshot's answer count and generation).
TEST_F(BenefitIndexTest, DrainedAsyncIndexedServingMatchesReferenceAndSync) {
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
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)) + ", " +
                   std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 5;
      options.reinfer_every = 25;
      options.lease_duration = 3;
      options.selection_rule = rule;
      options.num_threads = threads;
      DocsSystemOptions async_options = options;
      async_options.async_inference = true;

      ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
      ConcurrentDocsSystem async_system(&kb_->knowledge_base, async_options);
      for (ConcurrentDocsSystem* system : {&sync_system, &async_system}) {
        ASSERT_TRUE(system->AddTasks(inputs, &truths).ok());
        ASSERT_TRUE(system->LoadWorker("veteran", store).ok());
      }

      std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                      "w4", "w5", "veteran"};
      Rng rng(61);
      for (size_t round = 0; round < 24; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::string& id = ids[round % ids.size()];

        // The contract is drained-state equality, not mid-flight equality
        // (the async system is allowed to serve stale between publishes);
        // ReferenceRequest drains before it reads.
        const auto expected =
            testing::ReferenceRequest(async_system, async_options, id, 4);
        const auto selected = async_system.RequestTasks(id, 4);
        ASSERT_EQ(selected, expected);
        ASSERT_EQ(sync_system.RequestTasks(id, 4), selected);

        for (size_t s = 0; s < selected.size(); ++s) {
          if (round % 3 == 2 && s + 1 == selected.size()) continue;
          const size_t task = selected[s];
          const size_t choice = crowd::GenerateAnswer(
              personas[round % personas.size()],
              dataset.tasks[task].true_domain, dataset.tasks[task].truth,
              dataset.tasks[task].num_choices(), rng);
          for (ConcurrentDocsSystem* system : {&sync_system, &async_system}) {
            ASSERT_TRUE(system->SubmitAnswer(id, task, choice).ok());
          }
        }

        if (round == 10 || round == 20) {
          async_system.Drain();
          EXPECT_EQ(
              Flatten(async_system.ExpireLeases(async_system.lease_clock())),
              Flatten(sync_system.ExpireLeases(sync_system.lease_clock())));
        }
      }

      EXPECT_EQ(async_system.InferredChoices(), sync_system.InferredChoices());
      const size_t workers = sync_system.WithLocked(
          [](DocsSystem& s) { return s.inference().num_workers(); });
      for (size_t w = 0; w < workers; ++w) {
        ASSERT_EQ(async_system.WithLocked([&](DocsSystem& s) {
          return s.inference().worker_quality(w).quality;
        }),
                  sync_system.WithLocked([&](DocsSystem& s) {
                    return s.inference().worker_quality(w).quality;
                  }))
            << "worker " << w;
      }

      // The snapshot branch of the index actually served.
      EXPECT_GT(async_system.benefit_index_pops(), 0u);
      EXPECT_GT(async_system.benefit_index_rebuilds(), 0u);
    }
  }
}

/// The lockstep over the wire, across reactor counts and serving modes:
/// gateways with 1, 2, and 4 reactors, sync and async, grant what the
/// reference selector picks at every step (the async system drained before
/// each request) and end with the same inferred truths, and the facade's
/// index counters show the index served the run.
TEST_F(BenefitIndexTest, GatewayServingIsBitIdenticalAcrossReactorsAndModes) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 6;
  const auto personas = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      77);

  auto drive = [&](bool async, size_t reactors) {
    DocsSystemOptions options;
    options.golden_count = 5;
    options.reinfer_every = 25;
    options.num_threads = 2;
    options.async_inference = async;
    ConcurrentDocsSystem system(&kb_->knowledge_base, options);
    EXPECT_TRUE(system.AddTasks(inputs, &truths).ok());
    server::CrowdGatewayOptions gateway_options;
    gateway_options.num_reactors = reactors;
    server::CrowdGateway gateway(&system, gateway_options);
    EXPECT_TRUE(gateway.Start().ok());

    client::CrowdClientOptions client_options;
    client_options.recv_timeout_ms = 5000;
    std::vector<std::unique_ptr<client::CrowdClient>> conns;
    for (size_t w = 0; w < 6; ++w) {
      conns.push_back(std::make_unique<client::CrowdClient>(client_options));
      EXPECT_TRUE(conns[w]->Connect("127.0.0.1", gateway.port()).ok());
    }

    Rng rng(61);
    for (size_t round = 0; round < 18; ++round) {
      const size_t w = round % 6;
      const std::string id = "w" + std::to_string(w);
      const auto expected = testing::ReferenceRequest(system, options, id, 4);
      std::vector<uint64_t> hit;
      EXPECT_TRUE(conns[w]->RequestTasks(id, 4, &hit).ok());
      EXPECT_EQ(std::vector<size_t>(hit.begin(), hit.end()), expected)
          << "round " << round;
      for (uint64_t task : hit) {
        const size_t choice = crowd::GenerateAnswer(
            personas[w], dataset.tasks[task].true_domain,
            dataset.tasks[task].truth, dataset.tasks[task].num_choices(), rng);
        EXPECT_TRUE(
            conns[w]->SubmitAnswer(id, task, static_cast<uint32_t>(choice))
                .ok());
      }
    }
    EXPECT_GT(system.benefit_index_pops() + system.benefit_index_rebuilds(),
              0u);
    gateway.Stop();
    return system.InferredChoices();
  };

  const std::vector<size_t> baseline = drive(/*async=*/false, /*reactors=*/1);
  for (bool async : {false, true}) {
    for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
      if (!async && reactors == 1) continue;  // the baseline itself
      SCOPED_TRACE(std::string(async ? "async, " : "sync, ") +
                   std::to_string(reactors) + " reactors");
      EXPECT_EQ(drive(async, reactors), baseline);
    }
  }
}

/// The O(1)-invalidation regression: RunFullInference must stale every
/// index with a single generation bump — the
/// per-task and per-worker epoch arrays must not move (the seed-era
/// implementation walked them, which is exactly the O(n) cost the
/// generation counter removes). The next serving pass rebuilds the index
/// once and still grants what the reference selector picks.
TEST_F(BenefitIndexTest, FullInferenceInvalidatesWithOneGenerationBump) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;  // straight to OTA scoring
  options.reinfer_every = 0;  // full inference only when called explicitly
  options.num_threads = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  const size_t w = system.WorkerIndex("w");
  auto step = [&](size_t k) {
    const auto expected = testing::ReferenceSelect(system, options, w, k);
    const auto selected = system.SelectTasks(w, k);
    EXPECT_EQ(selected, expected);
    return selected;
  };

  // Warm up: select, answer, select (the answer bumped w's worker epoch, so
  // this rebuilds), then a quiet repeat that is served off the fresh heap.
  const auto first = step(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(system.SubmitAnswer(w, first[0], 0).ok());
  (void)step(2);
  const uint64_t rebuilds_warm = system.benefit_index_rebuilds();
  const uint64_t pops_warm = system.benefit_index_pops();
  (void)step(2);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_warm);
  EXPECT_GT(system.benefit_index_pops(), pops_warm);

  // The invalidation itself: one generation bump, zero epoch movement.
  const auto task_epochs_before = system.inference().task_epochs();
  const uint64_t worker_epoch_before = system.inference().worker_epoch(w);
  const uint64_t generation_before = system.inference().generation();
  const uint64_t invalidations_before =
      system.benefit_index_generation_invalidations();
  system.RunFullInference();
  EXPECT_EQ(system.inference().generation(), generation_before + 1);
  EXPECT_EQ(system.benefit_index_generation_invalidations(),
            invalidations_before + 1);
  EXPECT_EQ(system.inference().task_epochs(), task_epochs_before);
  EXPECT_EQ(system.inference().worker_epoch(w), worker_epoch_before);

  // The stale index is detected by the generation tag alone: exactly one
  // rebuild, still bit-identical, and quiet repeats are warm again.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  (void)step(2);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);
  (void)step(2);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);
}

/// Lease expiry must invalidate nothing: benefit scores do not depend on
/// leases, so reclaiming abandoned grants leaves every index fresh — the
/// next pass does not rebuild, and the reclaimed tasks simply
/// become selectable again at their unchanged scores.
TEST_F(BenefitIndexTest, LeaseExpiryLeavesEveryIndexFresh) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  options.lease_duration = 1;
  options.max_answers_per_task = 1;  // outstanding leases gate eligibility
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  // w leases the top two tasks and abandons them; x (same default quality,
  // so the identical ranking) must take the next two.
  const size_t w = system.WorkerIndex("w");
  const size_t x = system.WorkerIndex("x");
  const auto first = system.SelectTasks(w, 2);
  ASSERT_EQ(first.size(), 2u);
  const auto other = system.SelectTasks(x, 2);
  ASSERT_EQ(other.size(), 2u);
  EXPECT_NE(other, first);

  // Only w's grants have reached their deadline (clock advanced once since).
  const auto expired = system.ExpireLeases(system.lease_clock());
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].worker, w);
  EXPECT_EQ(expired[1].worker, w);

  // The sweep moved no epochs and no generation: w's next pass is served
  // off the still-fresh heap (no rebuild) and re-grants exactly the tasks
  // the expiry returned to the pool.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  const uint64_t pops_before = system.benefit_index_pops();
  EXPECT_EQ(system.SelectTasks(w, 2), first);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before);
  EXPECT_GT(system.benefit_index_pops(), pops_before);
}

/// Any answer stales every index: a submission by worker A moves the task
/// it touched (and, by the §4.2 retro fan-out, the quality of its earlier
/// answerers) and the engine's answer count. An uninvolved worker B's index
/// — same worker epoch, same generation — is rebuilt exactly once by her
/// next pass, as is A's own (her quality moved). A WorkerStore reseed is
/// the other worker-epoch edge: one rebuild too. Selections stay lockstep
/// with the reference selector throughout.
TEST_F(BenefitIndexTest, AnswerRebuildsEveryStaleIndexOnce) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  const size_t a = system.WorkerIndex("a");
  const size_t b = system.WorkerIndex("b");
  auto step = [&](size_t worker, size_t k) {
    const auto expected = testing::ReferenceSelect(system, options, worker, k);
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(selected, expected);
    return selected;
  };

  (void)step(b, 4);  // b's index: built
  const auto granted = step(a, 1);  // a's index: built
  ASSERT_EQ(granted.size(), 1u);
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());

  // b is uninvolved: her worker epoch did not move, but the answer count
  // did, so her next pass rebuilds once.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  (void)step(b, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);

  // a answered, so her quality (worker epoch) moved: full rebuild.
  (void)step(a, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 2);

  // A mid-campaign reseed is the other worker-epoch bump: rebuild too.
  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("b", record).ok());
  ASSERT_TRUE(system.LoadWorker("b", store).ok());
  const uint64_t rebuilds_mid = system.benefit_index_rebuilds();
  (void)step(b, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_mid + 1);
}

/// One key across sources: an index built on the live engine serves the
/// snapshot path as it is when the snapshot names the same engine state
/// (worker epoch, generation, answers absorbed). With no golden phase, a
/// first-contact worker is served by the exclusive path off the live
/// engine. A LoadWorker of another worker then republishes without moving
/// any answer, and her next request, now served from that snapshot, must
/// not rebuild and must still grant what the reference selector picks.
TEST_F(BenefitIndexTest, SnapshotPassReusesAnIndexBuiltOnTheLiveEngine) {
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
  ConcurrentDocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  // The initial snapshot predates w, so her first request takes the
  // exclusive path and builds her index on the live engine.
  const auto first = testing::ReferenceRequest(system, options, "w", 4);
  ASSERT_EQ(system.RequestTasks("w", 4), first);
  const uint64_t rebuilds_live = system.benefit_index_rebuilds();
  EXPECT_EQ(rebuilds_live, 1u);

  // Seeding v republishes; the new snapshot names w at the same key.
  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("v", record).ok());
  const uint64_t epoch_before = system.async_stats().service.snapshot_epoch;
  ASSERT_TRUE(system.LoadWorker("v", store).ok());
  EXPECT_GT(system.async_stats().service.snapshot_epoch, epoch_before);

  const auto expected = testing::ReferenceRequest(system, options, "w", 4);
  const uint64_t pops_before = system.benefit_index_pops();
  EXPECT_EQ(system.RequestTasks("w", 4), expected);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_live);
  EXPECT_GT(system.benefit_index_pops(), pops_before);
}

/// Cap churn: when many of the heap's top entries are ineligible (here:
/// leased out under a redundancy cap of one), the frontier walk skips them
/// unscored and still selects exactly what the reference selector picks,
/// from the still-fresh index (no rebuild). kUncertainty entries are exact,
/// so the walk performs zero row lookups, and its pops are the skipped
/// entries plus the one it emits.
TEST_F(BenefitIndexTest, CapChurnIsServedByTheWalkBitIdentically) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 120, 17);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  // Worker-independent ranking: every worker leases from the same global
  // order, so the v-workers below deterministically occupy w's top ranks.
  options.selection_rule = SelectionRule::kUncertainty;
  options.lease_duration = 100;  // nothing expires during the test
  options.max_answers_per_task = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());

  auto step = [&](const std::string& id, size_t k) {
    const size_t worker = system.WorkerIndex(id);
    const auto expected = testing::ReferenceSelect(system, options, worker, k);
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(selected, expected);
    return selected;
  };

  // w warms her index (and leases the global top task); twenty other
  // workers then lease the next 80 ranks. No answers are submitted, so no
  // epoch or generation ever moves: w's index stays fresh throughout.
  const auto top = step("w", 1);
  ASSERT_EQ(top.size(), 1u);
  for (size_t v = 0; v < 20; ++v) {
    ASSERT_EQ(step("v" + std::to_string(v), 4).size(), 4u);
  }

  // w's next request: the 81 best-ranked tasks are all ineligible. The walk
  // skips them on the still-fresh index and still matches the reference bit
  // for bit.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  const uint64_t rows_scored_before = system.benefit_cache_misses();
  const uint64_t pops_before = system.benefit_index_pops();
  const auto churned = step("w", 1);
  ASSERT_EQ(churned.size(), 1u);
  EXPECT_NE(churned, top);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before);
  EXPECT_EQ(system.benefit_cache_misses(), rows_scored_before);
  EXPECT_EQ(system.benefit_index_pops() - pops_before, 81u + 1u);
}

// --- Lazy bound entries (DESIGN.md §16) --------------------------------------

/// One serving mode of the lazy-index suites below: ConcurrentDocsSystem in
/// sync mode, or in async mode drained before every observation.
struct ServingMode {
  bool async = false;
  std::string Name() const { return async ? "drained async" : "sync"; }
};
constexpr ServingMode kServingModes[] = {{false}, {true}};

std::vector<TaskInput> QaInputs(const kb::SyntheticKb& kb, size_t n,
                                uint64_t seed) {
  const auto dataset = datasets::MakeQaDataset(kb, n, seed);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  return inputs;
}

/// Ties across the k boundary: most tasks share one text, so DVE gives them
/// one support and, while unanswered, one exact score — and one bound. Each
/// tied bound entry must be resolved before any tied task is emitted (ties
/// go to the lower task id), whether the seed or the walk resolves it, so
/// the index still emits the reference order. The system agrees with the
/// reference selector cold and warm, for k = 1, 20 and n, and while one
/// worker's k grows on a warm index.
TEST_F(BenefitIndexTest, TiedScoresAcrossTheKBoundaryStayBitIdentical) {
  constexpr size_t kTasks = 60;
  constexpr size_t kFirstTied = 10;
  constexpr size_t kTied = 45;
  std::vector<TaskInput> inputs = QaInputs(*kb_, kTasks, 11);
  for (size_t i = kFirstTied; i < kFirstTied + kTied; ++i) {
    inputs[i] = inputs[kFirstTied];
  }
  for (const ServingMode mode : kServingModes) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE(mode.Name() + ", " + std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 0;
      options.reinfer_every = 0;
      options.num_threads = threads;
      options.async_inference = mode.async;
      ConcurrentDocsSystem system(&kb_->knowledge_base, options);
      ASSERT_TRUE(system.AddTasks(inputs).ok());
      auto request = [&](const std::string& id, size_t k) {
        const auto expected =
            testing::ReferenceRequest(system, options, id, k);
        const auto selected = system.RequestTasks(id, k);
        EXPECT_EQ(selected, expected) << id << " k " << k;
        return selected;
      };

      // One worker's k grows on a warm index. With no answers yet, the two
      // three-choice tasks lead and set the first pass's floor; the tied
      // two-choice run sits below it as bound entries until the walk
      // reaches and resolves it.
      (void)request("grow", 1);
      const uint64_t rebuilds = system.benefit_index_rebuilds();
      const uint64_t misses = system.benefit_cache_misses();
      (void)request("grow", 20);
      (void)request("grow", kTasks);
      EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds);
      EXPECT_GT(system.benefit_cache_misses(), misses);

      // A few answers outside the tied group, so answered (H(s_i) bound) and
      // unanswered (closed-form bound) entries mix in one heap.
      const auto first = request("a", 3);
      for (size_t task : first) {
        if (task >= kFirstTied && task < kFirstTied + kTied) continue;
        ASSERT_TRUE(system.SubmitAnswer("a", task, 0).ok());
      }
      for (size_t k : {size_t{1}, size_t{20}, kTasks}) {
        const std::string id = "k" + std::to_string(k);
        const auto cold_pass = request(id, k);  // rebuild: bounds seeded
        EXPECT_EQ(request(id, k), cold_pass);   // warm: resolved entries kept
      }

      // The premise: the tied tasks share one exact score, and the k = 20
      // selection ends inside the tied run.
      system.Drain();
      const auto premise = system.WithLocked([&](DocsSystem& s) {
        const size_t w = *s.FindWorker("k20");
        const auto scores = testing::ReferenceScores(s, options, w);
        size_t tied_selected = 0;
        const auto selected = s.SelectTasks(w, 20);
        for (size_t task : selected) {
          tied_selected += task >= kFirstTied && task < kFirstTied + kTied;
        }
        bool one_score = true;
        for (size_t i = kFirstTied; i < kFirstTied + kTied; ++i) {
          if (s.inference().task_answered(i)) continue;
          one_score = one_score && scores[i] == scores[kFirstTied + kTied - 1];
        }
        return std::make_pair(one_score, tied_selected);
      });
      EXPECT_TRUE(premise.first);
      EXPECT_GT(premise.second, 0u);
      EXPECT_LT(premise.second, kTied);
    }
  }
}

/// A k far beyond n, as a wire request can carry (`RequestTasksReq.k` is a
/// uint32): the seed sizes nothing by k, so a cold pass with k = 2^32 - 1
/// selects every eligible task in the reference order, like k = n would.
TEST_F(BenefitIndexTest, ColdPassWithKBeyondTheTaskCountSelectsEveryTask) {
  constexpr size_t kTasks = 40;
  constexpr size_t kHugeK = std::numeric_limits<uint32_t>::max();
  const std::vector<TaskInput> inputs = QaInputs(*kb_, kTasks, 13);
  for (const ServingMode mode : kServingModes) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE(mode.Name() + ", " + std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 0;
      options.reinfer_every = 0;
      options.num_threads = threads;
      options.async_inference = mode.async;
      ConcurrentDocsSystem system(&kb_->knowledge_base, options);
      ASSERT_TRUE(system.AddTasks(inputs).ok());
      auto request = [&](const std::string& id) {
        const auto expected =
            testing::ReferenceRequest(system, options, id, kHugeK);
        const auto selected = system.RequestTasks(id, kHugeK);
        EXPECT_EQ(selected, expected) << id;
        return selected;
      };
      // Cold on a fresh campaign: every row is an unanswered bound entry.
      const auto everything = request("a");
      EXPECT_EQ(everything.size(), kTasks);
      // Answered and unanswered bound entries mixed in one cold pass.
      for (size_t x = 0; x < 5; ++x) {
        ASSERT_TRUE(system.SubmitAnswer("a", everything[x], 0).ok());
      }
      EXPECT_EQ(request("b").size(), kTasks);
      EXPECT_EQ(request("a").size(), kTasks - 5);
    }
  }
}

/// What a cold lazy pass scores. With a redundancy cap of one, every task
/// another worker answered is ineligible, yet it stays in the heap as a
/// bound entry (the exclude list names only the requester's own answers).
/// The pass scores the eligible rows the seed's floor admits (upper bound at
/// least the k-th largest lower bound) and whatever else the walk reaches
/// (upper bound ahead of the k-th selection in BetterScored order); the
/// test derives both sets from the public bounds. No ineligible row is
/// scored, so the pass's rows scored equal the size of their union. The
/// scored rows are then reused: a warm repeat rescores nothing.
TEST_F(BenefitIndexTest, ColdPassResolvesOnlyEligibleRowsThatReachTheTopK) {
  const std::vector<TaskInput> inputs = QaInputs(*kb_, 80, 11);
  constexpr size_t kK = 4;
  for (const ServingMode mode : kServingModes) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE(mode.Name() + ", " + std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 0;
      options.reinfer_every = 0;
      options.num_threads = threads;
      options.max_answers_per_task = 1;
      options.async_inference = mode.async;
      ConcurrentDocsSystem system(&kb_->knowledge_base, options);
      ASSERT_TRUE(system.AddTasks(inputs).ok());
      auto request = [&](const std::string& id, size_t k) {
        const auto expected = testing::ReferenceRequest(system, options, id, k);
        const auto selected = system.RequestTasks(id, k);
        EXPECT_EQ(selected, expected);
        return selected;
      };
      // Two workers answer the tasks every default-quality worker ranks
      // highest, which puts capped (ineligible) entries at the heap's top.
      for (const std::string id : {"a", "b"}) {
        for (size_t task : request(id, 6)) {
          ASSERT_TRUE(system.SubmitAnswer(id, task, 1).ok());
        }
      }

      system.Drain();
      const uint64_t misses_before = system.benefit_cache_misses();
      const uint64_t rebuilds_before = system.benefit_index_rebuilds();
      const auto selected = request("w", kK);
      ASSERT_EQ(selected.size(), kK);
      const uint64_t resolved = system.benefit_cache_misses() - misses_before;
      EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);

      // The oracle, from the public bounds of every indexed entry (all stale:
      // w is new) and the k-th selection's exact key.
      struct Expected {
        uint64_t scored = 0;             // eligible: floor or walk
        uint64_t walk_needed = 0;        // eligible: ahead of the k-th key
        uint64_t ineligible_ahead = 0;   // ineligible: floor or walk
      };
      const Expected expected = system.WithLocked([&](DocsSystem& s) {
        const size_t w = *s.FindWorker("w");
        const size_t n = s.tasks().size();
        const std::vector<double> exact =
            testing::ReferenceScores(s, options, w);
        const BenefitSupport support(s.tasks());
        WorkerBenefitFactors factors;
        factors.Hoist(s.inference().worker_quality(w).quality,
                      options.truth_inference.quality_clamp,
                      support.num_domains(),
                      support.choice_counts());
        std::vector<BenefitBounds> bounds(n);
        std::vector<double> floors;
        for (size_t t = 0; t < n; ++t) {
          bounds[t] = BenefitBoundsOf(support, t, factors,
                                      s.inference().truth_entropy(t),
                                      s.inference().task_answered(t));
          if (std::isfinite(bounds[t].lower)) floors.push_back(bounds[t].lower);
        }
        std::sort(floors.begin(), floors.end(), std::greater<double>());
        EXPECT_GE(floors.size(), kK);
        const double floor = floors[kK - 1];
        const ScoredTask kth{selected.back(), exact[selected.back()]};
        Expected out;
        for (size_t t = 0; t < n; ++t) {
          const bool walk = t == kth.task ||
                            BetterScored({t, bounds[t].upper}, kth);
          const bool seed = bounds[t].upper >= floor;
          // Cap 1 and no leases: eligible = nobody answered it yet.
          if (s.inference().task_answered(t)) {
            out.ineligible_ahead += walk || seed;
          } else {
            out.scored += walk || seed;
            out.walk_needed += walk;
          }
        }
        return out;
      });
      EXPECT_GT(expected.ineligible_ahead, 0u) << "premise: capped entries "
                                                  "outrank the k-th bound";
      EXPECT_EQ(resolved, expected.scored);
      EXPECT_GE(resolved, expected.walk_needed);
      EXPECT_LT(resolved, 80u - 12u);  // the pass pruned

      // Reuse: a warm repeat rescores nothing and is a request-level hit.
      const uint64_t request_hits = system.benefit_cache_request_hits();
      const uint64_t misses_warm = system.benefit_cache_misses();
      EXPECT_EQ(request("w", kK), selected);
      EXPECT_EQ(system.benefit_cache_misses(), misses_warm);
      EXPECT_EQ(system.benefit_cache_request_hits(), request_hits + 1);
    }
  }
}

/// The floor of a cold rebuild's seed by its definition: the k-th largest
/// of the values that are neither -infinity nor NaN, by nth_element;
/// +infinity for k = 0 and -infinity when fewer than k values count.
double NthElementFloor(std::vector<double> values, size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::erase_if(values, [](double value) { return !(value > -kInf); });
  if (k == 0) return kInf;
  if (k > values.size()) return -kInf;
  const auto kth = values.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(values.begin(), kth, values.end(), std::greater<double>());
  return *kth;
}

/// The one-sweep floor (KthLargest) equals the nth_element definition on
/// every shape the seed offers it: k = 0, k above the finite count (up to
/// the wire's 2^32 - 1), ties across the k-th place, -infinity lowers (the
/// answered tasks' bounds) and NaN, with exact scores and closed forms of
/// either sign mixed in. Its storage follows the count, never k.
TEST(SeedFloorTest, KthLargestMatchesTheNthElementDefinition) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2417);
  const double ties[] = {0.25, 0.5, 0.5, 0.75};
  std::vector<double> storage;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.UniformInt(48);
    std::vector<double> values;
    for (size_t v = 0; v < n; ++v) {
      switch (rng.UniformInt(5)) {
        case 0:
          values.push_back(-kInf);
          break;
        case 1:
          values.push_back(trial % 7 == 0
                               ? std::numeric_limits<double>::quiet_NaN()
                               : -kInf);
          break;
        case 2:
          values.push_back(ties[rng.UniformInt(4)]);
          break;
        default:
          values.push_back(rng.UniformDoubleRange(-0.5, 1.5));
      }
    }
    const size_t finite = static_cast<size_t>(std::count_if(
        values.begin(), values.end(), [](double v) { return v > -kInf; }));
    for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, n / 2,
                     finite, finite + 1, n, size_t{0xffffffff}}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", k " +
                   std::to_string(k));
      KthLargest floor(k, &storage);
      for (double value : values) floor.Offer(value);
      EXPECT_EQ(floor.value(), NthElementFloor(values, k));
      EXPECT_LE(storage.size(), std::min(k, finite));
    }
  }
}

/// A cold pass scores, before its walk, exactly the eligible rows whose
/// upper bound reaches the floor, and the walk then resolves nothing more:
/// with no leases and no cap every indexed task is eligible, so the k tasks
/// behind the floor are eligible too and every bound entry the walk pops
/// was already scored. Checked on the rows-scored counter against a
/// reference built from the public bounds, once after a full inference (a
/// generation move) and once after another worker's answers (an answer-count
/// move that leaves w's epoch alone): the index is the only score store, so
/// either rebuild starts from bounds alone.
TEST_F(BenefitIndexTest, ColdPassScoresExactlyTheEligibleStaleRowsAboveTheFloor) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 240, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    DocsSystemOptions options;
    options.golden_count = 0;
    options.reinfer_every = 0;
    options.num_threads = threads;
    DocsSystem system(&kb_->knowledge_base, options);
    ASSERT_TRUE(system.AddTasks(inputs).ok());
    const size_t n = system.tasks().size();
    // Six workers answer every twelfth task each, so the answered half
    // (H(s_i) bounds, no lower side) sits among unanswered tasks (closed
    // forms).
    for (size_t v = 0; v < 6; ++v) {
      const size_t worker = system.WorkerIndex("v" + std::to_string(v));
      for (size_t t = v; t < n; t += 12) {
        ASSERT_TRUE(system.SubmitAnswer(worker, t, (t + v) % 2).ok());
      }
    }
    const size_t w = system.WorkerIndex("v0");

    // The expected rows scored by a cold SelectTasks(w, k).
    auto expected_rows = [&](size_t k) {
      const IncrementalTruthInference& engine = system.inference();
      const BenefitSupport support(system.tasks());
      WorkerBenefitFactors factors;
      factors.Hoist(engine.worker_quality(w).quality,
                    options.truth_inference.quality_clamp,
                    support.num_domains(),
                    support.choice_counts());
      std::vector<double> lowers;
      std::vector<double> uppers(n, 0.0);
      for (size_t t = 0; t < n; ++t) {
        if (engine.HasAnswered(w, t)) continue;  // not indexed
        const BenefitBounds bounds =
            BenefitBoundsOf(support, t, factors, engine.truth_entropy(t),
                            engine.task_answered(t));
        lowers.push_back(bounds.lower);
        uppers[t] = bounds.upper;
      }
      const double floor = NthElementFloor(lowers, k);
      uint64_t rows = 0;
      for (size_t t = 0; t < n; ++t) {
        rows += !engine.HasAnswered(w, t) && uppers[t] >= floor;
      }
      return rows;
    };
    auto cold_request = [&](size_t k) {
      const uint64_t rebuilds = system.benefit_index_rebuilds();
      const uint64_t rows = system.benefit_cache_misses();
      EXPECT_EQ(system.SelectTasks(w, k),
                testing::ReferenceSelect(system, options, w, k));
      EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds + 1);
      return system.benefit_cache_misses() - rows;
    };

    // A generation move: the full inference.
    system.RunFullInference();
    const uint64_t after_inference = expected_rows(10);
    EXPECT_GT(after_inference, 10u);
    EXPECT_LT(after_inference,
              n - system.inference().answered_tasks(w).size())
        << "premise: the floor prunes";
    EXPECT_EQ(cold_request(10), after_inference);

    // Answer-count moves: another worker answers tasks w has not answered,
    // so w's epoch stays and only the engine's answer count stales her
    // index, once before each k.
    const size_t v = system.WorkerIndex("late");
    size_t next = 1;
    auto late_answer = [&] {
      while (system.inference().HasAnswered(w, next)) ++next;
      ASSERT_TRUE(system.SubmitAnswer(v, next, 0).ok());
      next += 9;
    };
    for (size_t k : {size_t{5}, size_t{0}}) {
      SCOPED_TRACE("k " + std::to_string(k));
      late_answer();
      const uint64_t rows = expected_rows(k);
      if (k > 0) {
        EXPECT_GT(rows, 0u);
      }
      EXPECT_EQ(cold_request(k), rows);
    }
  }
}

/// The §16 sub-linearity claim as counters. On bench_micro's warm serving
/// shape (8 workers answer every 17th task, no periodic inference, one
/// thread), one fill request settles the worker's index; the warm k = 10
/// request after it rebuilds nothing, rescores nothing, and visits the same
/// number of heap nodes at every task count. An O(n) warm path would grow
/// those visits with n.
class WarmIndexScalingTest : public BenefitIndexTest,
                             public ::testing::WithParamInterface<size_t> {};

TEST_P(WarmIndexScalingTest, WarmRequestVisitsTheSameNodesAtEveryTaskCount) {
  constexpr size_t kK = 10;
  const std::vector<TaskInput> inputs = QaInputs(*kb_, GetParam(), 3);
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.lease_duration = 0;
  options.num_threads = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  for (size_t w = 0; w < 8; ++w) {
    const size_t worker = system.WorkerIndex("bench_w" + std::to_string(w));
    for (size_t t = w; t < inputs.size(); t += 17) {
      ASSERT_TRUE(
          system.SubmitAnswer(worker, t, (t + w) % inputs[t].num_choices)
              .ok());
    }
  }
  const size_t worker = system.WorkerIndex("bench_w0");
  const std::vector<size_t> fill = system.SelectTasks(worker, kK);
  ASSERT_EQ(fill.size(), kK);

  const uint64_t rebuilds = system.benefit_index_rebuilds();
  const uint64_t misses = system.benefit_cache_misses();
  const uint64_t pops = system.benefit_index_pops();
  EXPECT_EQ(system.SelectTasks(worker, kK), fill);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds);
  EXPECT_EQ(system.benefit_cache_misses(), misses);
  // Every top-k entry is exact after the fill, so the walk emits k nodes
  // and visits no other, whatever n is.
  const uint64_t warm_pops = system.benefit_index_pops() - pops;
  EXPECT_EQ(warm_pops, kK);
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, WarmIndexScalingTest,
                         ::testing::Values(size_t{250}, size_t{1000},
                                           size_t{4000}));

}  // namespace
}  // namespace docs::core

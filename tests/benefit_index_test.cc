// Equivalence suite for the per-worker ordered benefit index (DESIGN.md §16).
//
// The index is a lazily repaired max-heap over the epoch-tagged benefit cache
// rows; a warm RequestTasks reads the top-k eligible tasks off it in
// O(k log n) instead of scanning all n cached scores. The contract is that an
// index-served selection is BITWISE identical to the scan path (index off)
// and to the cache-off path — after every mutation class: answer submissions
// (including the §4.2 retro-update fan-out repaired from the engine's
// mutation log), lease expiry (which must invalidate nothing), the periodic
// full re-inference (which must invalidate everything with ONE generation
// bump, never an O(n) epoch walk), mid-campaign WorkerStore reseeds, and
// redundancy-cap churn that exhausts the heap walk's budget and falls back
// to the scan. Every comparison is exact (operator== on doubles), not a
// tolerance check. scripts/ci.sh additionally runs this binary under TSan
// and under DOCS_DEBUG_CHECKS (which compiles in the O(n) heap audit).

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
#include "common/math_utils.h"
#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
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

/// The sync lockstep oracle: an index-on, an index-off (scan), and a
/// cache-off DocsSystem driven through one identical scripted campaign must
/// agree on every observable at every step. The script hits every
/// invalidation class the index must survive: retro fan-out across
/// co-answering workers, abandoned grants reclaimed by ExpireLeases, the
/// periodic RunFullInference (the O(1) generation invalidation), and
/// mid-campaign WorkerStore reseeds.
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

  for (SelectionRule rule : kAllRules) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)) + ", " +
                   std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 5;
      options.reinfer_every = 25;  // several O(1) invalidations mid-campaign
      options.lease_duration = 3;
      options.selection_rule = rule;
      options.num_threads = threads;
      ASSERT_TRUE(options.benefit_cache);
      ASSERT_TRUE(options.benefit_index);
      DocsSystemOptions scan_options = options;
      scan_options.benefit_index = false;
      DocsSystemOptions cold_options = scan_options;
      cold_options.benefit_cache = false;

      auto indexed =
          std::make_unique<DocsSystem>(&kb_->knowledge_base, options);
      auto scan =
          std::make_unique<DocsSystem>(&kb_->knowledge_base, scan_options);
      auto cold =
          std::make_unique<DocsSystem>(&kb_->knowledge_base, cold_options);
      for (DocsSystem* system : {indexed.get(), scan.get(), cold.get()}) {
        ASSERT_TRUE(system->AddTasks(inputs, &truths).ok());
        ASSERT_TRUE(system->LoadWorker("veteran", store).ok());
      }

      std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                      "w4", "w5", "veteran"};
      Rng rng(61);  // one stream serves all systems: selections are asserted
                    // equal before any answer is generated
      for (size_t round = 0; round < 30; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        if (round == 15) {
          // Mid-campaign reseeds: an active worker's quality is replaced
          // from the store (worker-epoch bump -> index rebuild), and a new
          // veteran joins past the golden phase.
          for (DocsSystem* system : {indexed.get(), scan.get(), cold.get()}) {
            ASSERT_TRUE(system->LoadWorker("veteran", store).ok());
            ASSERT_TRUE(system->LoadWorker("vet2", store).ok());
          }
          ids.push_back("vet2");
        }
        const std::string& id = ids[round % ids.size()];
        const size_t w = indexed->WorkerIndex(id);
        ASSERT_EQ(scan->WorkerIndex(id), w);
        ASSERT_EQ(cold->WorkerIndex(id), w);

        const auto selected = indexed->SelectTasks(w, 4);
        ASSERT_EQ(scan->SelectTasks(w, 4), selected);
        ASSERT_EQ(cold->SelectTasks(w, 4), selected);

        if (round % 5 == 0) {
          // Full-score probe: the cached pass and the bypass pass must agree
          // bit for bit on the indexed system too (the probe walks the cache
          // rows the index is built over).
          const auto warm = indexed->ScoreAllTasks(w, /*bypass_cache=*/false);
          EXPECT_EQ(indexed->ScoreAllTasks(w, /*bypass_cache=*/true), warm);
          EXPECT_EQ(scan->ScoreAllTasks(w, /*bypass_cache=*/false), warm);
        }

        for (size_t s = 0; s < selected.size(); ++s) {
          // Every third round the worker abandons the last granted task, so
          // ExpireLeases below has real work to reclaim.
          if (round % 3 == 2 && s + 1 == selected.size()) continue;
          const size_t task = selected[s];
          const size_t choice = crowd::GenerateAnswer(
              personas[round % personas.size()],
              dataset.tasks[task].true_domain, dataset.tasks[task].truth,
              dataset.tasks[task].num_choices(), rng);
          for (DocsSystem* system : {indexed.get(), scan.get(), cold.get()}) {
            ASSERT_TRUE(system->SubmitAnswer(w, task, choice).ok());
          }
        }

        if (round == 10 || round == 20) {
          const auto swept =
              Flatten(indexed->ExpireLeases(indexed->lease_clock()));
          EXPECT_EQ(Flatten(scan->ExpireLeases(scan->lease_clock())), swept);
          EXPECT_EQ(Flatten(cold->ExpireLeases(cold->lease_clock())), swept);
        }
      }

      EXPECT_EQ(indexed->InferredChoices(), scan->InferredChoices());
      EXPECT_EQ(indexed->InferredChoices(), cold->InferredChoices());
      ASSERT_EQ(indexed->inference().num_workers(),
                scan->inference().num_workers());
      for (size_t w = 0; w < indexed->inference().num_workers(); ++w) {
        ASSERT_EQ(indexed->inference().worker_quality(w).quality,
                  scan->inference().worker_quality(w).quality)
            << "worker " << w;
        ASSERT_EQ(indexed->inference().worker_quality(w).weight,
                  scan->inference().worker_quality(w).weight)
            << "worker " << w;
      }

      // The index actually served: heap reads and rebuilds happened, and the
      // periodic full inference registered as generation invalidations. A
      // disabled index counts nothing.
      EXPECT_GT(indexed->benefit_index_pops(), 0u);
      EXPECT_GT(indexed->benefit_index_rebuilds(), 0u);
      EXPECT_GT(indexed->benefit_index_generation_invalidations(), 0u);
      EXPECT_EQ(scan->benefit_index_pops(), 0u);
      EXPECT_EQ(scan->benefit_index_repairs(), 0u);
      EXPECT_EQ(scan->benefit_index_rebuilds(), 0u);
    }
  }
}

/// The async lockstep oracle: with the inference decoupled onto the
/// background service (DESIGN.md §15), an index-on and an index-off async
/// facade — and the sync index-on facade — must produce bit-identical
/// selections when drained before every comparison. The indexed async path
/// exercises the snapshot branch of the index (repair from the snapshot's
/// changed-task diff, rebuild tagged with the publish epoch).
TEST_F(BenefitIndexTest, DrainedAsyncIndexedServingMatchesScanAndSync) {
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
      ASSERT_TRUE(options.benefit_index);
      DocsSystemOptions async_options = options;
      async_options.async_inference = true;
      DocsSystemOptions async_scan_options = async_options;
      async_scan_options.benefit_index = false;

      ConcurrentDocsSystem sync_system(&kb_->knowledge_base, options);
      ConcurrentDocsSystem async_indexed(&kb_->knowledge_base, async_options);
      ConcurrentDocsSystem async_scan(&kb_->knowledge_base,
                                      async_scan_options);
      for (ConcurrentDocsSystem* system :
           {&sync_system, &async_indexed, &async_scan}) {
        ASSERT_TRUE(system->AddTasks(inputs, &truths).ok());
        ASSERT_TRUE(system->LoadWorker("veteran", store).ok());
      }

      std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                      "w4", "w5", "veteran"};
      Rng rng(61);
      for (size_t round = 0; round < 24; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::string& id = ids[round % ids.size()];

        // Quiesce before comparing: the contract is drained-state equality,
        // not mid-flight equality (the async systems are allowed to serve
        // stale between publishes).
        async_indexed.Drain();
        async_scan.Drain();
        const auto selected = sync_system.RequestTasks(id, 4);
        ASSERT_EQ(async_indexed.RequestTasks(id, 4), selected);
        ASSERT_EQ(async_scan.RequestTasks(id, 4), selected);

        for (size_t s = 0; s < selected.size(); ++s) {
          if (round % 3 == 2 && s + 1 == selected.size()) continue;
          const size_t task = selected[s];
          const size_t choice = crowd::GenerateAnswer(
              personas[round % personas.size()],
              dataset.tasks[task].true_domain, dataset.tasks[task].truth,
              dataset.tasks[task].num_choices(), rng);
          for (ConcurrentDocsSystem* system :
               {&sync_system, &async_indexed, &async_scan}) {
            ASSERT_TRUE(system->SubmitAnswer(id, task, choice).ok());
          }
        }

        if (round == 10 || round == 20) {
          async_indexed.Drain();
          async_scan.Drain();
          const auto swept =
              Flatten(sync_system.ExpireLeases(sync_system.lease_clock()));
          EXPECT_EQ(
              Flatten(async_indexed.ExpireLeases(async_indexed.lease_clock())),
              swept);
          EXPECT_EQ(
              Flatten(async_scan.ExpireLeases(async_scan.lease_clock())),
              swept);
        }
      }

      async_indexed.Drain();
      async_scan.Drain();
      EXPECT_EQ(async_indexed.InferredChoices(), sync_system.InferredChoices());
      EXPECT_EQ(async_scan.InferredChoices(), sync_system.InferredChoices());
      const size_t workers = sync_system.WithLocked(
          [](DocsSystem& s) { return s.inference().num_workers(); });
      for (size_t w = 0; w < workers; ++w) {
        const auto quality = sync_system.WithLocked([&](DocsSystem& s) {
          return s.inference().worker_quality(w).quality;
        });
        ASSERT_EQ(async_indexed.WithLocked([&](DocsSystem& s) {
          return s.inference().worker_quality(w).quality;
        }),
                  quality)
            << "worker " << w;
        ASSERT_EQ(async_scan.WithLocked([&](DocsSystem& s) {
          return s.inference().worker_quality(w).quality;
        }),
                  quality)
            << "worker " << w;
      }

      // The snapshot branch of the index actually served.
      EXPECT_GT(async_indexed.benefit_index_pops(), 0u);
      EXPECT_GT(async_indexed.benefit_index_rebuilds(), 0u);
      EXPECT_EQ(async_scan.benefit_index_pops(), 0u);
      EXPECT_EQ(async_scan.benefit_index_rebuilds(), 0u);
    }
  }
}

/// The lockstep oracle over the wire, across reactor counts AND index
/// modes: index-on gateways with 1, 2, and 4 reactors must reproduce the
/// index-off single-reactor baseline bit for bit, and the index counters
/// must surface through GatewayStats.
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

  struct Outcome {
    std::vector<std::vector<uint64_t>> selections;
    std::vector<size_t> choices;
  };
  auto drive = [&](bool index_on, size_t reactors) {
    DocsSystemOptions options;
    options.golden_count = 5;
    options.reinfer_every = 25;
    options.num_threads = 2;
    options.benefit_index = index_on;
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

    Outcome outcome;
    Rng rng(61);
    for (size_t round = 0; round < 18; ++round) {
      const size_t w = round % 6;
      const std::string id = "w" + std::to_string(w);
      std::vector<uint64_t> hit;
      EXPECT_TRUE(conns[w]->RequestTasks(id, 4, &hit).ok());
      outcome.selections.push_back(hit);
      for (uint64_t task : hit) {
        const size_t choice = crowd::GenerateAnswer(
            personas[w], dataset.tasks[task].true_domain,
            dataset.tasks[task].truth, dataset.tasks[task].num_choices(), rng);
        EXPECT_TRUE(
            conns[w]->SubmitAnswer(id, task, static_cast<uint32_t>(choice))
                .ok());
      }
    }
    const server::GatewayStats stats = gateway.stats();
    if (index_on) {
      EXPECT_GT(stats.benefit_index_pops + stats.benefit_index_rebuilds, 0u);
    } else {
      EXPECT_EQ(stats.benefit_index_pops, 0u);
      EXPECT_EQ(stats.benefit_index_repairs, 0u);
      EXPECT_EQ(stats.benefit_index_rebuilds, 0u);
    }
    gateway.Stop();
    outcome.choices = system.InferredChoices();
    return outcome;
  };

  const Outcome baseline = drive(/*index_on=*/false, /*reactors=*/1);
  for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("indexed, " + std::to_string(reactors) + " reactors");
    const Outcome swept = drive(/*index_on=*/true, reactors);
    EXPECT_EQ(swept.selections, baseline.selections);
    EXPECT_EQ(swept.choices, baseline.choices);
  }
}

/// The O(1)-invalidation regression: RunFullInference must stale every
/// cached score and every index with a single generation bump — the
/// per-task and per-worker epoch arrays must not move (the seed-era
/// implementation walked them, which is exactly the O(n) cost the
/// generation counter removes). The next serving pass rebuilds the index
/// once and stays bit-identical to a cache-off twin.
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
  ASSERT_TRUE(options.benefit_index);
  DocsSystemOptions cold_options = options;
  cold_options.benefit_cache = false;
  DocsSystem system(&kb_->knowledge_base, options);
  DocsSystem cold(&kb_->knowledge_base, cold_options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  ASSERT_TRUE(cold.AddTasks(inputs).ok());

  const size_t w = system.WorkerIndex("w");
  ASSERT_EQ(cold.WorkerIndex("w"), w);
  auto step = [&](size_t k) {
    const auto selected = system.SelectTasks(w, k);
    EXPECT_EQ(cold.SelectTasks(w, k), selected);
    return selected;
  };

  // Warm up: select, answer, select (the answer bumped w's worker epoch, so
  // this rebuilds), then a quiet repeat that is served off the fresh heap.
  const auto first = step(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(system.SubmitAnswer(w, first[0], 0).ok());
  ASSERT_TRUE(cold.SubmitAnswer(w, first[0], 0).ok());
  (void)step(2);
  const uint64_t rebuilds_warm = system.benefit_index_rebuilds();
  const uint64_t pops_warm = system.benefit_index_pops();
  (void)step(2);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_warm);
  EXPECT_GT(system.benefit_index_pops(), pops_warm);

  // The invalidation itself: one generation bump, zero epoch movement, and
  // the mutation log resets (nothing to replay across a generation change).
  const auto task_epochs_before = system.inference().task_epochs();
  const uint64_t worker_epoch_before = system.inference().worker_epoch(w);
  const uint64_t generation_before = system.inference().generation();
  const uint64_t invalidations_before =
      system.benefit_index_generation_invalidations();
  system.RunFullInference();
  cold.RunFullInference();
  EXPECT_EQ(system.inference().generation(), generation_before + 1);
  EXPECT_EQ(system.benefit_index_generation_invalidations(),
            invalidations_before + 1);
  EXPECT_EQ(system.inference().task_epochs(), task_epochs_before);
  EXPECT_EQ(system.inference().worker_epoch(w), worker_epoch_before);
  EXPECT_EQ(system.inference().mutation_log_begin(),
            system.inference().mutation_log_end());

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
/// next pass neither rebuilds nor repairs, and the reclaimed tasks simply
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
  // off the still-fresh heap (no rebuild, no repair) and re-grants exactly
  // the tasks the expiry returned to the pool.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  const uint64_t repairs_before = system.benefit_index_repairs();
  const uint64_t pops_before = system.benefit_index_pops();
  EXPECT_EQ(system.SelectTasks(w, 2), first);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before);
  EXPECT_EQ(system.benefit_index_repairs(), repairs_before);
  EXPECT_GT(system.benefit_index_pops(), pops_before);
}

/// The mutation-log repair path: a submission by worker A bumps the epochs
/// of the tasks it touched (including the §4.2 retro fan-out) and appends
/// them to the engine's mutation log. An uninvolved worker B's index — same
/// worker epoch, same generation — must catch up by replaying exactly that
/// log tail (repairs, no rebuild), while A's own next pass rebuilds (her
/// quality moved). A WorkerStore reseed is the other worker-epoch edge:
/// rebuild, not repair. Selections stay lockstep with a scan twin
/// throughout.
TEST_F(BenefitIndexTest, RetroFanOutRepairsFromTheMutationLog) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.num_threads = 1;
  DocsSystemOptions scan_options = options;
  scan_options.benefit_index = false;
  DocsSystem system(&kb_->knowledge_base, options);
  DocsSystem twin(&kb_->knowledge_base, scan_options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  ASSERT_TRUE(twin.AddTasks(inputs).ok());

  const size_t a = system.WorkerIndex("a");
  const size_t b = system.WorkerIndex("b");
  ASSERT_EQ(twin.WorkerIndex("a"), a);
  ASSERT_EQ(twin.WorkerIndex("b"), b);
  auto step = [&](size_t worker, size_t k) {
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(twin.SelectTasks(worker, k), selected);
    return selected;
  };

  (void)step(b, 4);  // b's index: built
  const auto granted = step(a, 1);  // a's index: built
  ASSERT_EQ(granted.size(), 1u);
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());
  ASSERT_TRUE(twin.SubmitAnswer(a, granted[0], 0).ok());

  // b is uninvolved: her worker epoch did not move, so her index repairs
  // the logged tasks in place instead of rebuilding.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  const uint64_t repairs_before = system.benefit_index_repairs();
  (void)step(b, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before);
  EXPECT_GT(system.benefit_index_repairs(), repairs_before);

  // a answered, so her quality (worker epoch) moved: full rebuild.
  (void)step(a, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);

  // A mid-campaign reseed is the other worker-epoch bump: rebuild too.
  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("b", record).ok());
  ASSERT_TRUE(system.LoadWorker("b", store).ok());
  ASSERT_TRUE(twin.LoadWorker("b", store).ok());
  const uint64_t rebuilds_mid = system.benefit_index_rebuilds();
  (void)step(b, 4);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_mid + 1);
}

/// Budget exhaustion under cap churn: when enough of the heap's top entries
/// are ineligible (here: leased out under a redundancy cap of one), the
/// frontier walk gives up within its visit budget and the pass falls back
/// to the scan — which must select exactly what a cache-off twin selects.
/// The fallback is observable as row-cache traffic (a successful index pass
/// performs zero row lookups) with the index left fresh (no rebuild).
TEST_F(BenefitIndexTest, CapChurnFallsBackToTheScanBitIdentically) {
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
  DocsSystemOptions cold_options = options;
  cold_options.benefit_cache = false;
  DocsSystem system(&kb_->knowledge_base, options);
  DocsSystem cold(&kb_->knowledge_base, cold_options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  ASSERT_TRUE(cold.AddTasks(inputs).ok());

  auto step = [&](const std::string& id, size_t k) {
    const size_t worker = system.WorkerIndex(id);
    EXPECT_EQ(cold.WorkerIndex(id), worker);
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(cold.SelectTasks(worker, k), selected);
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

  // w's next request: the 81 best-ranked tasks are all ineligible, which
  // exceeds the k=1 walk budget (64 visits) — the pass must fall back to
  // the scan without rebuilding the still-fresh index, and still match the
  // cache-off twin bit for bit.
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  const uint64_t row_traffic_before =
      system.benefit_cache_hits() + system.benefit_cache_misses();
  const auto fallback = step("w", 1);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_NE(fallback, top);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before);
  EXPECT_GT(system.benefit_cache_hits() + system.benefit_cache_misses(),
            row_traffic_before);
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
/// the index still emits the scan's order. Index, scan and cache-off
/// systems agree cold and warm, for k = 1, 20 and n, and while one worker's
/// k grows on a warm index.
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
      DocsSystemOptions scan_options = options;
      scan_options.benefit_index = false;
      DocsSystemOptions cold_options = scan_options;
      cold_options.benefit_cache = false;
      ConcurrentDocsSystem indexed(&kb_->knowledge_base, options);
      ConcurrentDocsSystem scan(&kb_->knowledge_base, scan_options);
      ConcurrentDocsSystem cold(&kb_->knowledge_base, cold_options);
      std::vector<ConcurrentDocsSystem*> systems = {&indexed, &scan, &cold};
      for (ConcurrentDocsSystem* system : systems) {
        ASSERT_TRUE(system->AddTasks(inputs).ok());
      }
      auto request = [&](const std::string& id, size_t k) {
        for (ConcurrentDocsSystem* system : systems) system->Drain();
        const auto selected = indexed.RequestTasks(id, k);
        EXPECT_EQ(scan.RequestTasks(id, k), selected) << id << " k " << k;
        EXPECT_EQ(cold.RequestTasks(id, k), selected) << id << " k " << k;
        return selected;
      };

      // One worker's k grows on a warm index. With no answers yet, the two
      // three-choice tasks lead and set the first pass's floor; the tied
      // two-choice run sits below it as bound entries until the walk
      // reaches and resolves it.
      (void)request("grow", 1);
      const uint64_t rebuilds = indexed.benefit_index_rebuilds();
      const uint64_t misses = indexed.benefit_cache_misses();
      (void)request("grow", 20);
      (void)request("grow", kTasks);
      EXPECT_EQ(indexed.benefit_index_rebuilds(), rebuilds);
      EXPECT_GT(indexed.benefit_cache_misses(), misses);

      // A few answers outside the tied group, so answered (H(s_i) bound) and
      // unanswered (closed-form bound) entries mix in one heap.
      const auto first = request("a", 3);
      for (size_t task : first) {
        if (task >= kFirstTied && task < kFirstTied + kTied) continue;
        for (ConcurrentDocsSystem* system : systems) {
          ASSERT_TRUE(system->SubmitAnswer("a", task, 0).ok());
        }
      }
      for (size_t k : {size_t{1}, size_t{20}, kTasks}) {
        const std::string id = "k" + std::to_string(k);
        const auto cold_pass = request(id, k);  // rebuild: bounds seeded
        EXPECT_EQ(request(id, k), cold_pass);   // warm: resolved entries kept
      }

      // The premise: the tied tasks share one exact score, and the k = 20
      // selection ends inside the tied run.
      indexed.Drain();
      const auto premise = indexed.WithLocked([&](DocsSystem& s) {
        const size_t w = *s.FindWorker("k20");
        const auto scores = s.ScoreAllTasks(w, /*bypass_cache=*/true);
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
/// selects every eligible task in the scan's order, like k = n would.
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
      DocsSystemOptions scan_options = options;
      scan_options.benefit_index = false;
      DocsSystemOptions cold_options = scan_options;
      cold_options.benefit_cache = false;
      ConcurrentDocsSystem indexed(&kb_->knowledge_base, options);
      ConcurrentDocsSystem scan(&kb_->knowledge_base, scan_options);
      ConcurrentDocsSystem cold(&kb_->knowledge_base, cold_options);
      std::vector<ConcurrentDocsSystem*> systems = {&indexed, &scan, &cold};
      for (ConcurrentDocsSystem* system : systems) {
        ASSERT_TRUE(system->AddTasks(inputs).ok());
      }
      auto request = [&](const std::string& id) {
        for (ConcurrentDocsSystem* system : systems) system->Drain();
        const auto selected = indexed.RequestTasks(id, kHugeK);
        EXPECT_EQ(scan.RequestTasks(id, kHugeK), selected) << id;
        EXPECT_EQ(cold.RequestTasks(id, kHugeK), selected) << id;
        return selected;
      };
      // Cold on a fresh campaign: every row is an unanswered bound entry.
      const auto everything = request("a");
      EXPECT_EQ(everything.size(), kTasks);
      // Answered and unanswered bound entries mixed in one cold pass.
      for (size_t x = 0; x < 5; ++x) {
        for (ConcurrentDocsSystem* system : systems) {
          ASSERT_TRUE(system->SubmitAnswer("a", everything[x], 0).ok());
        }
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
/// scored, so the pass's cache misses equal the size of their union. The
/// scored rows are then reused: a warm repeat rescores nothing, and exactly
/// those rows are fresh in the cache.
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
      DocsSystemOptions cold_options = options;
      cold_options.benefit_cache = false;
      ConcurrentDocsSystem system(&kb_->knowledge_base, options);
      ConcurrentDocsSystem cold(&kb_->knowledge_base, cold_options);
      ASSERT_TRUE(system.AddTasks(inputs).ok());
      ASSERT_TRUE(cold.AddTasks(inputs).ok());
      auto request = [&](const std::string& id, size_t k) {
        system.Drain();
        cold.Drain();
        const auto selected = system.RequestTasks(id, k);
        EXPECT_EQ(cold.RequestTasks(id, k), selected);
        return selected;
      };
      // Two workers answer the tasks every default-quality worker ranks
      // highest, which puts capped (ineligible) entries at the heap's top.
      for (const std::string id : {"a", "b"}) {
        for (size_t task : request(id, 6)) {
          ASSERT_TRUE(system.SubmitAnswer(id, task, 1).ok());
          ASSERT_TRUE(cold.SubmitAnswer(id, task, 1).ok());
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
            s.ScoreAllTasks(w, /*bypass_cache=*/true);
        const BenefitSupport support(s.tasks());
        WorkerBenefitFactors factors;
        factors.Hoist(s.inference().worker_quality(w).quality,
                      options.assigner.quality_clamp, support.num_domains(),
                      support.choice_counts());
        std::vector<BenefitBounds> bounds(n);
        std::vector<double> floors;
        for (size_t t = 0; t < n; ++t) {
          bounds[t] = BenefitBoundsOf(support, t, s.tasks()[t], factors,
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

      // Reuse: a warm repeat rescores nothing and is a request-level hit ...
      const uint64_t request_hits = system.benefit_cache_request_hits();
      const uint64_t misses_warm = system.benefit_cache_misses();
      EXPECT_EQ(request("w", kK), selected);
      EXPECT_EQ(system.benefit_cache_misses(), misses_warm);
      EXPECT_EQ(system.benefit_cache_request_hits(), request_hits + 1);
      // ... and the rows the cold pass resolved are exactly the fresh rows
      // of the worker's cache.
      system.Drain();
      const uint64_t hits_before = system.benefit_cache_hits();
      system.WithLocked([](DocsSystem& s) {
        (void)s.ScoreAllTasks(*s.FindWorker("w"), /*bypass_cache=*/false);
        return 0;
      });
      EXPECT_EQ(system.benefit_cache_hits() - hits_before, resolved);
    }
  }
}

// --- Standalone TaskAssigner index overload ---------------------------------

// Random small OTA instance: tasks with random domain vectors and truth
// matrices, plus a random worker quality vector (same recipe as
// tests/ota_test.cc).
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

/// The assigner-level equivalence surface: the index-accelerated SelectTopK
/// overload must return exactly what the cacheless and the cache-only
/// overloads return — cold, warm, after a targeted task-epoch bump, after a
/// worker-epoch bump, and after a bare generation bump.
TEST(TaskAssignerIndexTest, IndexOverloadMatchesScanAndCachelessOverloads) {
  Rng rng(311);
  auto instance = MakeInstance(60, 5, 4, rng);
  std::vector<uint8_t> eligible(60, 1);
  for (size_t i = 0; i < 60; i += 9) eligible[i] = 0;
  TaskAssignerOptions options;
  options.num_threads = 1;
  TaskAssigner assigner(options);

  std::vector<uint64_t> task_epochs(60, 1);
  uint64_t worker_epoch = 1;
  uint64_t generation = 7;
  std::vector<CachedBenefit> scan_cache(60);
  std::vector<CachedBenefit> index_cache(60);
  BenefitIndex index;

  auto expect_all_equal = [&]() {
    const auto plain =
        assigner.SelectTopK(instance.tasks, instance.matrices, instance.truths,
                            instance.worker_quality, eligible, 12);
    const auto scan = assigner.SelectTopK(
        instance.tasks, instance.matrices, instance.truths,
        instance.worker_quality, eligible, 12, &task_epochs, worker_epoch,
        &scan_cache, generation);
    const auto indexed = assigner.SelectTopK(
        instance.tasks, instance.matrices, instance.truths,
        instance.worker_quality, eligible, 12, &task_epochs, worker_epoch,
        &index_cache, generation, &index);
    EXPECT_EQ(scan, plain);
    EXPECT_EQ(indexed, plain);
  };

  expect_all_equal();  // cold: index built from scratch
  expect_all_equal();  // warm: served off the fresh heap

  // Targeted staleness: swap two tasks' inference state and bump exactly
  // their epochs — the index repairs those two entries in place.
  std::swap(instance.tasks[5], instance.tasks[6]);
  std::swap(instance.matrices[5], instance.matrices[6]);
  std::swap(instance.truths[5], instance.truths[6]);
  ++task_epochs[5];
  ++task_epochs[6];
  expect_all_equal();

  // Worker staleness: a new quality vector invalidates every entry.
  for (auto& q : instance.worker_quality) {
    q = rng.UniformDoubleRange(0.3, 0.95);
  }
  worker_epoch = 2;
  expect_all_equal();

  // Generation staleness: nothing else changed, but a bumped generation
  // must still force a full rescore (the O(1) invalidation contract).
  generation = 8;
  expect_all_equal();
}

}  // namespace
}  // namespace docs::core

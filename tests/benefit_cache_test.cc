// Equivalence suite for the per-worker score store (DESIGN.md §11, §16).
//
// Each worker's benefit index holds her scores under one key (worker epoch,
// invalidation generation, answers absorbed); the contract is that serving
// from it is BITWISE identical to recomputing every score from live
// inference state with the reference kernel (tests/reference_selector.h) —
// after every mutation class the system supports: answer submissions
// (including the §4.2 retro-update fan-out onto co-answering workers),
// lease expiry, the periodic full re-inference, and mid-campaign
// WorkerStore reseeds. Every comparison below
// is exact (operator== on doubles), not a tolerance check. scripts/ci.sh
// additionally runs this binary under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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

class BenefitCacheTest : public ::testing::Test {
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

kb::SyntheticKb* BenefitCacheTest::kb_ = nullptr;

/// Drives a DocsSystem through one scripted campaign and asserts, at every
/// step, that each grant equals the reference selector's and, every fifth
/// round, that every product score equals the reference score. The script
/// deliberately hits all invalidation classes:
///  - SubmitAnswer, with several workers sharing tasks (retro fan-out);
///  - abandoned grants reclaimed by ExpireLeases (which must NOT need any
///    invalidation — benefit scores do not depend on leases);
///  - the periodic RunFullInference every reinfer_every answers;
///  - a WorkerStore reseed of an active worker plus a fresh veteran joining
///    mid-campaign (worker-epoch bumps outside the answer path).
TEST_F(BenefitCacheTest, CachedServingPathIsBitIdenticalAcrossRulesAndThreads) {
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
      options.reinfer_every = 25;  // several full re-runs mid-campaign
      options.lease_duration = 3;
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
          // from the store, and a new veteran joins past the golden phase.
          ASSERT_TRUE(system.LoadWorker("veteran", store).ok());
          ASSERT_TRUE(system.LoadWorker("vet2", store).ok());
          ids.push_back("vet2");
        }
        const size_t w = system.WorkerIndex(ids[round % ids.size()]);
        const auto expected = testing::ReferenceSelect(system, options, w, 4);
        const auto selected = system.SelectTasks(w, 4);
        ASSERT_EQ(selected, expected);

        if (round % 5 == 0) {
          // Full-score probe: the product scorer agrees with the reference
          // on every task's score, bit for bit.
          EXPECT_EQ(system.ScoreAllTasks(w),
                    testing::ReferenceScores(system, options, w));
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
          ASSERT_TRUE(system.SubmitAnswer(w, task, choice).ok());
        }

        if (round == 10 || round == 20) {
          EXPECT_FALSE(system.ExpireLeases(system.lease_clock()).empty());
        }
      }

      // Every worker's scores, against the reference, on the final state
      // and again after a full inference: it moves every posterior behind
      // one generation bump and no epoch.
      for (bool reinfer : {false, true}) {
        if (reinfer) system.RunFullInference();
        for (size_t w = 0; w < system.inference().num_workers(); ++w) {
          EXPECT_EQ(system.ScoreAllTasks(w),
                    testing::ReferenceScores(system, options, w))
              << "worker " << w << (reinfer ? ", after a full inference" : "");
        }
      }

      // A quiet repeat request is served from the index: the first call
      // rebuilds it (the full inference moved the generation), nothing
      // moves in between, and the repeat rescores nothing.
      const size_t probe = system.WorkerIndex("w0");
      const auto first = system.SelectTasks(probe, 4);
      const uint64_t misses_before = system.benefit_cache_misses();
      const uint64_t request_hits_before = system.benefit_cache_request_hits();
      EXPECT_EQ(system.SelectTasks(probe, 4), first);
      EXPECT_EQ(system.benefit_cache_misses(), misses_before);
      EXPECT_EQ(system.benefit_cache_request_hits(), request_hits_before + 1);
    }
  }
}

/// Regression for the counter split: a row-level hit/miss pair once mixed
/// per-entry lookups into one number, so "hit rate" computed from it said
/// 98% on a system where every serving pass recomputed something. The row
/// counter tallies individual scores computed; request-level counters tally
/// whole serving passes (a pass that scores even one row is a request
/// miss). Dashboards want request_hits / (request_hits + request_misses).
TEST_F(BenefitCacheTest, RequestCountersTallyServingPassesNotRowLookups) {
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

  // Cold pass: the index rebuild scores only the rows that can reach the
  // top 4 (DESIGN.md §16) — some rows scored, ONE request miss.
  const size_t b = system.WorkerIndex("b");
  (void)system.SelectTasks(b, 4);
  const uint64_t cold_rows = system.benefit_cache_misses();
  EXPECT_GT(cold_rows, 0u);
  EXPECT_LT(cold_rows, 60u);
  EXPECT_EQ(system.benefit_cache_request_misses(), 1u);
  EXPECT_EQ(system.benefit_cache_request_hits(), 0u);

  // Quiet repeat: served off the fresh heap with no row scored at all — ONE
  // request hit.
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.benefit_cache_misses(), cold_rows);
  EXPECT_EQ(system.benefit_cache_request_hits(), 1u);
  EXPECT_EQ(system.benefit_cache_request_misses(), 1u);

  // The full-score test hook is not a serving pass: it scores every task
  // but counts nothing, rows or requests.
  (void)system.ScoreAllTasks(b);
  EXPECT_EQ(system.benefit_cache_misses(), cold_rows);
  EXPECT_EQ(system.benefit_cache_request_hits(), 1u);
  EXPECT_EQ(system.benefit_cache_request_misses(), 1u);

  // Another worker's answer moves the engine's answer count, so b's next
  // pass rebuilds her index and rescores the rows that can reach her top 4:
  // a request MISS, however few rows the answer actually moved.
  const size_t a = system.WorkerIndex("a");
  const auto granted = system.SelectTasks(a, 1);
  ASSERT_EQ(granted.size(), 1u);
  const uint64_t request_hits_warm = system.benefit_cache_request_hits();
  const uint64_t request_misses_warm = system.benefit_cache_request_misses();
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());
  const uint64_t row_misses_before = system.benefit_cache_misses();
  const uint64_t rebuilds_before = system.benefit_index_rebuilds();
  (void)system.SelectTasks(b, 4);
  const uint64_t rescored = system.benefit_cache_misses() - row_misses_before;
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds_before + 1);
  EXPECT_GT(rescored, 0u);
  EXPECT_LT(rescored, 60u);
  EXPECT_EQ(system.benefit_cache_request_misses(), request_misses_warm + 1);
  EXPECT_EQ(system.benefit_cache_request_hits(), request_hits_warm);
  // Nothing of b's old index survives the key move: her rebuild scores
  // exactly the rows a first contact with her (default) profile scores.
  const size_t c = system.WorkerIndex("c");
  const uint64_t first_contact_before = system.benefit_cache_misses();
  const auto first_contact = system.SelectTasks(c, 4);
  EXPECT_EQ(first_contact, system.SelectTasks(b, 4));
  EXPECT_EQ(system.benefit_cache_misses() - first_contact_before, rescored);
}

/// The lockstep over the wire, across reactor counts: gateways with 1, 2,
/// and 4 reactors, driven through the same sequential TCP campaign, grant
/// what the reference selector picks at every step and end with
/// bit-identical posteriors and worker qualities. The gateways surface the
/// request-level counters through stats().
TEST_F(BenefitCacheTest, GatewayLockstepIsBitIdenticalAcrossReactorCounts) {
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
    std::vector<size_t> choices;
    std::vector<std::vector<double>> qualities;
  };
  auto drive = [&](size_t reactors) {
    DocsSystemOptions options;
    options.golden_count = 5;
    options.reinfer_every = 25;
    options.num_threads = 2;
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
    EXPECT_GT(system.benefit_cache_request_hits() +
                  system.benefit_cache_request_misses(),
              0u);
    gateway.Stop();
    outcome.choices = system.InferredChoices();
    for (size_t w = 0; w < 6; ++w) {
      outcome.qualities.push_back(system.WithLocked([&](DocsSystem& inner) {
        return inner.inference().worker_quality(w).quality;
      }));
    }
    return outcome;
  };

  const Outcome baseline = drive(/*reactors=*/1);
  for (size_t reactors : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(reactors) + " reactors");
    const Outcome swept = drive(reactors);
    EXPECT_EQ(swept.choices, baseline.choices);
    ASSERT_EQ(swept.qualities, baseline.qualities);
  }
}

TEST_F(BenefitCacheTest, WarmRequestsKeepHittingUnderEveryRule) {
  // Rule-independence smoke: all four selection rules route through the
  // index, and a quiet system serves repeats entirely from it: each repeat
  // is a request-level hit that rescores nothing (the index serves it off
  // the fresh heap).
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  for (SelectionRule rule : kAllRules) {
    SCOPED_TRACE(static_cast<int>(rule));
    DocsSystemOptions options;
    options.golden_count = 0;
    options.reinfer_every = 0;
    options.num_threads = 1;
    options.selection_rule = rule;
    DocsSystem system(&kb_->knowledge_base, options);
    ASSERT_TRUE(system.AddTasks(inputs).ok());
    const size_t w = system.WorkerIndex("w");
    const auto first = system.SelectTasks(w, 5);
    EXPECT_EQ(first, testing::ReferenceSelect(system, options, w, 5));
    const uint64_t misses_after_first = system.benefit_cache_misses();
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(system.SelectTasks(w, 5), first);
    }
    EXPECT_EQ(system.benefit_cache_misses(), misses_after_first);
    EXPECT_EQ(system.benefit_cache_request_hits(), 3u);
  }
}

}  // namespace
}  // namespace docs::core

// End-to-end determinism sweep for the parallel inference/assignment engine:
// thread counts 1/2/4/8 must produce byte-identical truth vectors, worker
// qualities and task selections. Every comparison below is exact double
// equality (operator== on the vectors), not a tolerance check — that is the
// contract the deterministic chunking in common/parallel.h provides.
// scripts/ci.sh additionally runs this binary under TSan.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "client/crowd_client.h"
#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "core/incremental_ti.h"
#include "core/task_assignment.h"
#include "core/truth_inference.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "reference_selector.h"
#include "server/crowd_gateway.h"

namespace docs::core {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

/// A mid-size synthetic inference instance: n tasks over m domains, answered
/// by a pool of workers of mixed reliability.
struct Instance {
  std::vector<Task> tasks;
  std::vector<Answer> answers;
  size_t num_workers;
};

Instance MakeInstance(size_t n, size_t m, size_t num_workers, uint64_t seed) {
  Instance instance;
  instance.num_workers = num_workers;
  Rng rng(seed);
  instance.tasks.resize(n);
  for (auto& task : instance.tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 2 + rng.UniformInt(3);  // 2..4 choices
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < 7; ++a) {
      instance.answers.push_back(
          {i, (i * 5 + a * 11) % num_workers,
           rng.UniformInt(instance.tasks[i].num_choices)});
    }
  }
  return instance;
}

bool SameQualities(const std::vector<WorkerQuality>& a,
                   const std::vector<WorkerQuality>& b) {
  if (a.size() != b.size()) return false;
  for (size_t w = 0; w < a.size(); ++w) {
    if (a[w].quality != b[w].quality || a[w].weight != b[w].weight) {
      return false;
    }
  }
  return true;
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DeterminismTest, TruthInferenceSweepIsByteIdentical) {
  const Instance instance = MakeInstance(150, 8, 40, 21);

  TruthInferenceOptions options;
  options.num_threads = 1;
  TruthInference baseline_engine(options);
  const TruthInferenceResult baseline = baseline_engine.Run(
      instance.tasks, instance.num_workers, instance.answers);

  for (size_t threads : kThreadSweep) {
    TruthInferenceOptions sweep = options;
    sweep.num_threads = threads;
    TruthInference engine(sweep);
    const TruthInferenceResult result =
        engine.Run(instance.tasks, instance.num_workers, instance.answers);

    EXPECT_EQ(result.iterations_run, baseline.iterations_run);
    EXPECT_EQ(result.inferred_choice, baseline.inferred_choice);
    EXPECT_EQ(result.task_truth, baseline.task_truth) << threads << " threads";
    EXPECT_TRUE(SameQualities(result.worker_quality, baseline.worker_quality))
        << threads << " threads";
    EXPECT_EQ(result.delta_history, baseline.delta_history);
    for (size_t i = 0; i < result.truth_matrices.size(); ++i) {
      ASSERT_EQ(result.truth_matrices[i].data(),
                baseline.truth_matrices[i].data())
          << "task " << i << ", " << threads << " threads";
    }
  }
}

TEST(DeterminismTest, IncrementalFullInferenceSweepIsByteIdentical) {
  const Instance instance = MakeInstance(80, 6, 25, 33);

  auto run = [&](size_t threads) {
    TruthInferenceOptions options;
    options.num_threads = threads;
    IncrementalTruthInference engine(instance.tasks, options);
    for (const Answer& answer : instance.answers) {
      EXPECT_TRUE(engine.OnAnswer(answer.worker, answer.task, answer.choice)
                      .ok());
    }
    engine.RunFullInference();
    return engine;
  };

  IncrementalTruthInference baseline = run(1);
  for (size_t threads : kThreadSweep) {
    IncrementalTruthInference swept = run(threads);
    EXPECT_EQ(swept.InferredChoices(), baseline.InferredChoices())
        << threads << " threads";
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      ASSERT_EQ(swept.task_truth(i), baseline.task_truth(i))
          << "task " << i << ", " << threads << " threads";
      ASSERT_EQ(Matrix(swept.truth_matrix(i)).data(),
                Matrix(baseline.truth_matrix(i)).data())
          << "task " << i << ", " << threads << " threads";
    }
    for (size_t w = 0; w < instance.num_workers; ++w) {
      ASSERT_EQ(swept.worker_quality(w).quality,
                baseline.worker_quality(w).quality)
          << "worker " << w << ", " << threads << " threads";
    }
  }
}

TEST(DeterminismTest, SelectTopKSweepIsIdentical) {
  const Instance instance = MakeInstance(120, 8, 30, 45);
  // Score against a converged inference state.
  TruthInferenceOptions ti_options;
  ti_options.num_threads = 1;
  const TruthInferenceResult state = TruthInference(ti_options).Run(
      instance.tasks, instance.num_workers, instance.answers);

  Rng rng(7);
  std::vector<double> worker_quality = rng.Dirichlet(8, 4.0);
  for (double& q : worker_quality) q = 0.4 + q;
  std::vector<uint8_t> eligible(instance.tasks.size(), 1);
  for (size_t i = 0; i < eligible.size(); i += 9) eligible[i] = 0;

  TaskAssignerOptions options;
  options.num_threads = 1;
  const auto baseline =
      TaskAssigner(options).SelectTopK(instance.tasks, state.truth_matrices,
                                       state.task_truth, worker_quality,
                                       eligible, 15);
  ASSERT_EQ(baseline.size(), 15u);
  for (size_t threads : kThreadSweep) {
    TaskAssignerOptions sweep = options;
    sweep.num_threads = threads;
    EXPECT_EQ(TaskAssigner(sweep).SelectTopK(
                  instance.tasks, state.truth_matrices, state.task_truth,
                  worker_quality, eligible, 15),
              baseline)
        << threads << " threads";
  }
}

/// Full-system sweep: identical answer streams into DocsSystem instances that
/// differ only in num_threads must yield identical selections (every rule),
/// inferred truths and worker qualities — including across the periodic
/// RunFullInference every `reinfer_every` answers. Every grant also equals
/// the reference selector's (tests/reference_selector.h).
class DocsSystemDeterminismTest : public ::testing::Test {
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

kb::SyntheticKb* DocsSystemDeterminismTest::kb_ = nullptr;

TEST_F(DocsSystemDeterminismTest, ServingPathSweepIsIdentical) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }

  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 12;
  const auto workers = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      99);

  for (SelectionRule rule :
       {SelectionRule::kBenefit, SelectionRule::kDomainMax,
        SelectionRule::kUncertainty, SelectionRule::kQualityBlind}) {
    auto drive = [&](size_t threads) {
      DocsSystemOptions options;
      options.golden_count = 5;
      options.reinfer_every = 40;  // exercise RunFullInference mid-stream
      options.selection_rule = rule;
      options.num_threads = threads;
      auto system =
          std::make_unique<DocsSystem>(&kb_->knowledge_base, options);
      EXPECT_TRUE(system->AddTasks(inputs, &truths).ok());

      std::vector<std::vector<size_t>> selections;
      Rng rng(17);  // identical answer stream for every thread count
      for (size_t round = 0; round < 30; ++round) {
        const size_t w = system->WorkerIndex("w" + std::to_string(round % 12));
        const auto expected = testing::ReferenceSelect(*system, options, w, 4);
        auto selected = system->SelectTasks(w, 4);
        EXPECT_EQ(selected, expected)
            << "rule " << static_cast<int>(rule) << ", " << threads
            << " threads, round " << round;
        selections.push_back(selected);
        for (size_t task : selected) {
          const size_t choice = crowd::GenerateAnswer(
              workers[round % 12], dataset.tasks[task].true_domain,
              dataset.tasks[task].truth, dataset.tasks[task].num_choices(),
              rng);
          system->OnAnswer(w, task, choice);
        }
      }
      return std::make_pair(std::move(system), std::move(selections));
    };

    auto [baseline_system, baseline_selections] = drive(1);
    const auto baseline_choices = baseline_system->InferredChoices();
    for (size_t threads : kThreadSweep) {
      auto [system, selections] = drive(threads);
      EXPECT_EQ(selections, baseline_selections)
          << "rule " << static_cast<int>(rule) << ", " << threads
          << " threads";
      EXPECT_EQ(system->InferredChoices(), baseline_choices)
          << "rule " << static_cast<int>(rule) << ", " << threads
          << " threads";
      for (size_t w = 0; w < 12; ++w) {
        ASSERT_EQ(system->inference().worker_quality(w).quality,
                  baseline_system->inference().worker_quality(w).quality)
            << "worker " << w << ", rule " << static_cast<int>(rule) << ", "
            << threads << " threads";
      }
    }
  }
}

/// DVE runs under the deterministic ParallelFor: every task's domain vector
/// (and so the golden set chosen from them) must be bit-identical for any
/// scoring-thread count.
TEST_F(DocsSystemDeterminismTest, AddTasksSweepIsByteIdentical) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 1000, 3);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  auto build = [&](size_t threads) {
    DocsSystemOptions options;
    options.golden_count = 20;
    options.num_threads = threads;
    auto system = std::make_unique<DocsSystem>(&kb_->knowledge_base, options);
    EXPECT_TRUE(system->AddTasks(inputs, &truths).ok());
    return system;
  };
  const auto baseline = build(1);
  ASSERT_EQ(baseline->tasks().size(), inputs.size());
  ASSERT_EQ(baseline->golden_tasks().size(), 20u);
  for (size_t threads : kThreadSweep) {
    const auto system = build(threads);
    ASSERT_EQ(system->tasks().size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_TRUE(BytesEqual(system->tasks()[i].domain_vector,
                             baseline->tasks()[i].domain_vector))
          << "task " << i << ", " << threads << " threads";
    }
    EXPECT_EQ(system->golden_tasks(), baseline->golden_tasks())
        << threads << " threads";
  }
}

/// The tentpole oracle for the sharded serving core: the SAME campaign driven
/// over real TCP through gateways that differ only in reactor count and
/// scoring-thread count must leave bit-identical posteriors, selections and
/// worker qualities. Requests are driven sequentially (one at a time, rotating
/// over 12 connections that round-robin across the reactors), so the answer
/// order is fixed and any divergence isolates a reactor- or thread-dependent
/// code path — hand-off, sharded scoring, per-shard indexes, pool fallback.
/// The baseline run (1 reactor, 1 thread) also checks every grant against
/// the reference selector.
TEST_F(DocsSystemDeterminismTest, GatewayServingSweepIsIdenticalAcrossReactors) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 12;
  const auto workers = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      99);

  struct Outcome {
    std::vector<std::vector<uint64_t>> selections;
    std::vector<size_t> choices;
    std::vector<std::vector<double>> qualities;
  };
  auto drive = [&](SelectionRule rule, size_t threads, size_t reactors) {
    DocsSystemOptions options;
    options.golden_count = 5;  // exclusive golden path, then the sharded one
    options.reinfer_every = 40;
    options.selection_rule = rule;
    options.num_threads = threads;
    ConcurrentDocsSystem system(&kb_->knowledge_base, options);
    EXPECT_TRUE(system.AddTasks(inputs, &truths).ok());
    server::CrowdGatewayOptions gateway_options;
    gateway_options.num_reactors = reactors;
    server::CrowdGateway gateway(&system, gateway_options);
    EXPECT_TRUE(gateway.Start().ok());

    client::CrowdClientOptions client_options;
    client_options.recv_timeout_ms = 5000;
    std::vector<std::unique_ptr<client::CrowdClient>> conns;
    for (size_t w = 0; w < 12; ++w) {
      conns.push_back(std::make_unique<client::CrowdClient>(client_options));
      EXPECT_TRUE(conns[w]->Connect("127.0.0.1", gateway.port()).ok());
    }

    Outcome outcome;
    Rng rng(17);  // identical answer stream for every configuration
    for (size_t round = 0; round < 24; ++round) {
      const size_t w = round % 12;
      const std::string id = "w" + std::to_string(w);
      std::vector<size_t> expected;
      if (threads == 1 && reactors == 1) {
        expected = testing::ReferenceRequest(system, options, id, 4);
      }
      std::vector<uint64_t> hit;
      EXPECT_TRUE(conns[w]->RequestTasks(id, 4, &hit).ok());
      if (threads == 1 && reactors == 1) {
        EXPECT_EQ(std::vector<size_t>(hit.begin(), hit.end()), expected)
            << "rule " << static_cast<int>(rule) << ", round " << round;
      }
      outcome.selections.push_back(hit);
      for (uint64_t task : hit) {
        const size_t choice = crowd::GenerateAnswer(
            workers[w], dataset.tasks[task].true_domain,
            dataset.tasks[task].truth, dataset.tasks[task].num_choices(), rng);
        const Status answered =
            conns[w]->SubmitAnswer(id, task, static_cast<uint32_t>(choice));
        EXPECT_TRUE(answered.ok()) << answered.ToString();
      }
    }
    gateway.Stop();
    outcome.choices = system.InferredChoices();
    for (size_t w = 0; w < 12; ++w) {
      outcome.qualities.push_back(system.WithLocked([&](DocsSystem& inner) {
        return inner.inference().worker_quality(w).quality;
      }));
    }
    return outcome;
  };

  for (SelectionRule rule :
       {SelectionRule::kBenefit, SelectionRule::kDomainMax,
        SelectionRule::kUncertainty, SelectionRule::kQualityBlind}) {
    const Outcome baseline = drive(rule, 1, 1);
    for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
      for (size_t threads : kThreadSweep) {
        if (reactors == 1 && threads == 1) continue;  // the baseline itself
        const Outcome swept = drive(rule, threads, reactors);
        EXPECT_EQ(swept.selections, baseline.selections)
            << "rule " << static_cast<int>(rule) << ", " << reactors
            << " reactors, " << threads << " threads";
        EXPECT_EQ(swept.choices, baseline.choices)
            << "rule " << static_cast<int>(rule) << ", " << reactors
            << " reactors, " << threads << " threads";
        ASSERT_EQ(swept.qualities, baseline.qualities)
            << "rule " << static_cast<int>(rule) << ", " << reactors
            << " reactors, " << threads << " threads";
      }
    }
  }
}

/// FNV-1a over the bytes of each fed value, for the serving-state pin below.
class Fnv1a {
 public:
  void Feed(uint64_t value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    FeedBytes(bytes, sizeof(bytes));
  }
  void Feed(double value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    FeedBytes(bytes, sizeof(bytes));
  }
  void Feed(std::span<const double> values) {
    for (double value : values) Feed(value);
  }
  uint64_t hash() const { return hash_; }

 private:
  void FeedBytes(const unsigned char* bytes, size_t size) {
    for (size_t b = 0; b < size; ++b) {
      hash_ ^= bytes[b];
      hash_ *= 1099511628211ULL;  // FNV-1a prime
    }
  }
  uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

/// Pins the serving state of a small DocsSystem campaign: QA at 400 tasks,
/// 12 workers, a full inference every z = 25 answers, HITs of 5. The hash
/// covers every granted HIT and the final s, M, M̂, H(s) and worker
/// qualities, bit for bit. The async campaign drains after every session,
/// so each request sees every earlier answer in its snapshot, and the run
/// matches the sync one bit for bit: both pin the same value. It was
/// computed before the EM loop stopped building M^(i) on every iteration;
/// any change to the periodic inference or to selection that is not
/// bit-identical moves it.
TEST_F(DocsSystemDeterminismTest, ServingStateIsPinned) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 400, 3);
  const auto truths = dataset.Truths();
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 12;
  const auto workers = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      77);

  auto campaign_hash = [&](bool async) {
    DocsSystemOptions options;
    options.golden_count = 10;
    options.reinfer_every = 25;
    options.num_threads = 1;
    options.async_inference = async;
    ConcurrentDocsSystem system(&kb_->knowledge_base, options);
    EXPECT_TRUE(system.AddTasks(inputs, &truths).ok());
    Fnv1a hash;
    Rng rng(23);
    for (size_t session = 0; session < 60; ++session) {
      const size_t w = rng.UniformInt(12);
      const std::string id = "w" + std::to_string(w);
      const std::vector<size_t> hit = system.RequestTasks(id, 5);
      hash.Feed(uint64_t{hit.size()});
      for (size_t task : hit) {
        hash.Feed(uint64_t{task});
        const size_t choice = crowd::GenerateAnswer(
            workers[w], dataset.tasks[task].true_domain,
            dataset.tasks[task].truth, dataset.tasks[task].num_choices(), rng);
        const Status submitted = system.SubmitAnswer(id, task, choice);
        EXPECT_TRUE(submitted.ok()) << submitted.ToString();
      }
      system.Drain();
    }
    system.WithLocked([&](DocsSystem& inner) {
      const IncrementalTruthInference& engine = inner.inference();
      EXPECT_GT(engine.num_answers(), 200u);
      for (size_t i = 0; i < engine.num_tasks(); ++i) {
        hash.Feed(engine.task_truth(i));
        hash.Feed(engine.truth_matrix(i).data());
        hash.Feed(engine.log_numerator(i).data());
        hash.Feed(engine.truth_entropy(i));
      }
      for (size_t w = 0; w < engine.num_workers(); ++w) {
        hash.Feed(engine.worker_quality(w).quality);
        hash.Feed(engine.worker_quality(w).weight);
      }
    });
    return hash.hash();
  };
  const uint64_t sync_hash = campaign_hash(false);
  const uint64_t async_hash = campaign_hash(true);
  EXPECT_EQ(sync_hash, 0x3a1c097a90e48bbeULL)
      << "sync: 0x" << std::hex << sync_hash;
  EXPECT_EQ(async_hash, 0x3a1c097a90e48bbeULL)
      << "async: 0x" << std::hex << async_hash;
}

}  // namespace
}  // namespace docs::core

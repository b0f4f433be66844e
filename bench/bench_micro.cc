// google-benchmark micro-benchmarks of the hot kernels behind the paper's
// complexity claims: Algorithm 1 (DVE), the TI step, the OTA benefit
// computation, golden-count approximation and the worker store.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/docs_system.h"
#include "core/domain_vector.h"
#include "core/golden_selection.h"
#include "core/incremental_ti.h"
#include "core/task_assignment.h"
#include "core/truth_inference.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "storage/worker_store.h"

// --- Heap-allocation accounting ---------------------------------------------
// The serving-path benchmarks report allocations per request, so global
// operator new is replaced with a counting forwarder (process-wide; the
// fetch_add is a few ns against the multi-microsecond operations measured
// here). Scalar and array forms share one counter; the sized/aligned delete
// variants all forward to free() as malloc-backed storage requires.

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC's -Wmismatched-new-delete cannot see through the replaced operators at
// -O2: it pairs the opaque `operator new` call at an inlined delete site with
// the visible free() below and flags a mismatch. The forwarders are malloc/
// free-backed by construction, so the pairing is correct; silence the false
// positive for these definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace docs {
namespace {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

std::vector<core::EntityObservation> RandomEntities(size_t num_entities,
                                                    size_t candidates,
                                                    size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<core::EntityObservation> entities(num_entities);
  for (auto& entity : entities) {
    entity.link_probabilities = rng.Dirichlet(candidates, 1.0);
    entity.indicators.resize(candidates);
    for (auto& h : entity.indicators) {
      h.resize(m);
      for (auto& bit : h) bit = rng.Bernoulli(0.3) ? 1 : 0;
    }
  }
  return entities;
}

// Algorithm 1 over |E_t| entities with top-20 candidates, m = 26.
void BM_DveAlgorithm1(benchmark::State& state) {
  const size_t num_entities = static_cast<size_t>(state.range(0));
  auto entities = RandomEntities(num_entities, 20, 26, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeDomainVector(entities, 26));
  }
}
BENCHMARK(BM_DveAlgorithm1)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

// Enumeration on instances small enough to finish.
void BM_DveEnumeration(benchmark::State& state) {
  const size_t num_entities = static_cast<size_t>(state.range(0));
  auto entities = RandomEntities(num_entities, 3, 26, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeDomainVectorByEnumeration(entities, 26));
  }
}
BENCHMARK(BM_DveEnumeration)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

// One TI step-1 matrix computation for a task with R answers, m = 26.
void BM_TiTruthMatrix(benchmark::State& state) {
  const size_t answers = static_cast<size_t>(state.range(0));
  Rng rng(11);
  core::Task task;
  task.domain_vector = rng.Dirichlet(26, 0.5);
  task.num_choices = 4;
  std::vector<core::Answer> task_answers;
  std::vector<core::WorkerQuality> qualities(answers);
  for (size_t w = 0; w < answers; ++w) {
    task_answers.push_back({0, w, rng.UniformInt(4)});
    qualities[w].quality = rng.Dirichlet(26, 5.0);
    for (auto& q : qualities[w].quality) q = 0.3 + q;  // plausible range
    qualities[w].weight.assign(26, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeTruthMatrix(task, task_answers, qualities));
  }
}
BENCHMARK(BM_TiTruthMatrix)->Arg(5)->Arg(10)->Arg(20);

// Full iterative TI on n tasks with 10 answers each, m = 20. The second
// argument is the thread count of the EM sweep (1 = the sequential loops);
// results are bit-identical across the sweep, only the time moves.
void BM_TiFullRun(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = 20;
  const size_t num_workers = 100;
  Rng rng(13);
  std::vector<core::Task> tasks(n);
  for (auto& task : tasks) {
    task.domain_vector.assign(m, 0.0);
    task.domain_vector[rng.UniformInt(m)] = 1.0;
    task.num_choices = 2;
  }
  std::vector<core::Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < 10; ++a) {
      answers.push_back({i, (i * 3 + a) % num_workers, rng.UniformInt(2)});
    }
  }
  core::TruthInferenceOptions options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.num_threads = static_cast<size_t>(state.range(1));
  core::TruthInference engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(tasks, num_workers, answers));
  }
}
BENCHMARK(BM_TiFullRun)
    ->ArgsProduct({{100, 1000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->Unit(benchmark::kMillisecond);

// Full iterative TI on the answer matrix a QA-4000 campaign reaches (n =
// 4000, m = 26, l = 2): 20 golden tasks with 60 answers each plus ~2200
// answers scattered over the other tasks, so most tasks have no answer and
// most answered ones have exactly one. BM_TiFullRun (10 answers on every
// task) shows only the log-table gain of the step-1 kernel; this case adds
// its copied rows for 0/1-answer tasks. One thread, 20 iterations.
void BM_TiFullRunCampaignShape(benchmark::State& state) {
  const size_t n = 4000;
  const size_t m = 26;
  const size_t num_workers = 112;
  const size_t golden = 20;
  Rng rng(17);
  std::vector<core::Task> tasks(n);
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 2;
  }
  std::vector<core::Answer> answers;
  for (size_t i = 0; i < golden; ++i) {
    for (size_t w = 0; w < 60; ++w) {
      answers.push_back({i, (w * 7 + i) % num_workers, rng.UniformInt(2)});
    }
  }
  std::vector<std::vector<size_t>> workers_of_task(n);
  for (size_t a = 0; a < 2200; ++a) {
    const size_t i = golden + rng.UniformInt(n - golden);
    const size_t w = rng.UniformInt(num_workers);
    auto& seen = workers_of_task[i];
    if (std::find(seen.begin(), seen.end(), w) != seen.end()) continue;
    seen.push_back(w);
    answers.push_back({i, w, rng.UniformInt(2)});
  }
  core::TruthInferenceOptions options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.num_threads = 1;
  core::TruthInference engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(tasks, num_workers, answers));
  }
  state.counters["answers"] = static_cast<double>(answers.size());
}
BENCHMARK(BM_TiFullRunCampaignShape)->Unit(benchmark::kMillisecond);

// OTA top-k selection over n candidate tasks, m = 26, scored on `threads`
// threads (the SelectTopK benefit loop).
void BM_OtaSelectTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = 26;
  Rng rng(29);
  std::vector<core::Task> tasks(n);
  std::vector<Matrix> matrices;
  std::vector<std::vector<double>> truths;
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 4;
    Matrix matrix(m, 4, 0.0);
    for (size_t d = 0; d < m; ++d) matrix.SetRow(d, rng.Dirichlet(4, 1.0));
    truths.push_back(matrix.LeftMultiply(task.domain_vector));
    matrices.push_back(std::move(matrix));
  }
  std::vector<double> quality(m);
  for (auto& q : quality) q = rng.UniformDoubleRange(0.4, 0.95);
  std::vector<uint8_t> eligible(n, 1);
  core::TaskAssignerOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  core::TaskAssigner assigner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assigner.SelectTopK(tasks, matrices, truths, quality, eligible, 10));
  }
}
BENCHMARK(BM_OtaSelectTopK)
    ->ArgsProduct({{1000, 10000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// Benefit of a single task (Theorems 2-3 + Eq. 8), m = 26, l = 4.
void BM_OtaBenefit(benchmark::State& state) {
  Rng rng(17);
  core::Task task;
  task.domain_vector = rng.Dirichlet(26, 0.5);
  task.num_choices = 4;
  Matrix matrix(26, 4, 0.0);
  for (size_t d = 0; d < 26; ++d) matrix.SetRow(d, rng.Dirichlet(4, 1.0));
  std::vector<double> truth = matrix.LeftMultiply(task.domain_vector);
  std::vector<double> quality(26);
  for (auto& q : quality) q = rng.UniformDoubleRange(0.4, 0.95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Benefit(task, matrix, truth, quality));
  }
}
BENCHMARK(BM_OtaBenefit);

// Golden-count approximation for m domains.
void BM_GoldenApproximation(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(19);
  auto tau = rng.Dirichlet(m, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ApproximateGoldenCounts(tau, 20));
  }
}
BENCHMARK(BM_GoldenApproximation)->Arg(10)->Arg(26)->Arg(50);

// Incremental TI per-answer update (the O(m |V(i)|) path of Section 4.2).
void BM_IncrementalOnAnswer(benchmark::State& state) {
  const size_t m = 26;
  Rng rng(23);
  std::vector<core::Task> tasks(1024);
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 2;
  }
  core::IncrementalTruthInference engine(std::move(tasks));
  size_t worker = 0, task = 0;
  for (auto _ : state) {
    Status status = engine.OnAnswer(worker, task, rng.UniformInt(2));
    benchmark::DoNotOptimize(status);
    task = (task + 1) % 1024;
    if (task == 0) ++worker;
  }
}
BENCHMARK(BM_IncrementalOnAnswer);

// End-to-end entity linking + Algorithm 1, one task per iteration, cycling
// through the QA-4000 task texts (dataset seed 3, as perfbench's campaign):
// the time per iteration is DVE's mean cost per task of that campaign.
void BM_DveEndToEnd(benchmark::State& state) {
  static const kb::SyntheticKb* kKb = new kb::SyntheticKb(kb::BuildSyntheticKb());
  static const datasets::Dataset* kQa =
      new datasets::Dataset(datasets::MakeQaDataset(*kKb, 4000, 3));
  core::DomainVectorEstimator estimator(&kKb->knowledge_base);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(kQa->tasks[next].text));
    next = next + 1 == kQa->tasks.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_DveEndToEnd);

// --- Serving-path RequestTasks benchmarks -----------------------------------
// One DocsSystem serving SelectTasks(worker, 10) over an n-task QA campaign
// with a settled answer history. Configurations:
//   Warm      — repeat requests on a quiet system pop the top-k off the
//               per-worker benefit index. tests/serving_alloc_test.cc pins
//               the heap allocations of one such request.
//   WarmSweep — Warm across n = 1k/10k/100k tasks: the heap walk is
//               sub-linear (DESIGN.md §16); the request's eligibility
//               bitmap fill is O(n) with a small constant.
//               tests/benefit_index_test.cc checks the walk's shape by
//               counting heap nodes visited at 250/1k/4k tasks.
//   Cold      — Warm's shape with an untimed full inference before each
//               timed request: its generation bump stales the worker's
//               index, so every request rebuilds it
//               (tests/serving_alloc_test.cc checks the rebuild and the
//               rescored rows by counters).
// Each reports allocs/op from the counting operator new above.

const kb::SyntheticKb& ServingKb() {
  static const kb::SyntheticKb* kKb =
      new kb::SyntheticKb(kb::BuildSyntheticKb());
  return *kKb;
}

std::unique_ptr<core::DocsSystem> MakeServingSystem(size_t num_tasks) {
  const kb::SyntheticKb& kb = ServingKb();
  const auto dataset = datasets::MakeQaDataset(kb, num_tasks);
  std::vector<core::TaskInput> inputs;
  inputs.reserve(dataset.tasks.size());
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  core::DocsSystemOptions options;
  options.golden_count = 0;    // no golden probe: measure OTA serving only
  options.reinfer_every = 0;   // no periodic re-inference mid-benchmark
  options.lease_duration = 0;  // no lease bookkeeping in the request loop
  options.num_threads = 1;
  auto system =
      std::make_unique<core::DocsSystem>(&kb.knowledge_base, options);
  Status status = system->AddTasks(inputs);
  DOCS_CHECK(status.ok()) << status.ToString();
  // Settle a non-trivial inference state: 8 workers answer a spread of
  // tasks, so the benefit scores rank real truth matrices, not priors.
  for (size_t w = 0; w < 8; ++w) {
    const size_t worker = system->WorkerIndex("bench_w" + std::to_string(w));
    for (size_t t = w; t < dataset.tasks.size(); t += 17) {
      system->OnAnswer(worker, t, (t + w) % dataset.tasks[t].num_choices());
    }
  }
  return system;
}

void ServeRequestTasksLoop(benchmark::State& state, size_t num_tasks,
                           bool cold) {
  auto system = MakeServingSystem(num_tasks);
  const size_t worker = system->WorkerIndex("bench_w0");
  // One untimed request warms the index heap and the scratch arenas.
  benchmark::DoNotOptimize(system->SelectTasks(worker, 10));
  uint64_t allocs = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      system->RunFullInference();
      state.ResumeTiming();
    }
    const uint64_t allocs_before = HeapAllocations();
    benchmark::DoNotOptimize(system->SelectTasks(worker, 10));
    allocs += HeapAllocations() - allocs_before;
    ++iters;
  }
  if (iters > 0) {
    state.counters["allocs/op"] =
        static_cast<double>(allocs) / static_cast<double>(iters);
  }
}

void BM_ServeRequestTasksWarm(benchmark::State& state) {
  ServeRequestTasksLoop(state, /*num_tasks=*/512, /*cold=*/false);
}
BENCHMARK(BM_ServeRequestTasksWarm);

void BM_ServeRequestTasksWarmSweep(benchmark::State& state) {
  ServeRequestTasksLoop(state, static_cast<size_t>(state.range(0)),
                        /*cold=*/false);
}
BENCHMARK(BM_ServeRequestTasksWarmSweep)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->ArgName("n");

void BM_ServeRequestTasksCold(benchmark::State& state) {
  ServeRequestTasksLoop(state, /*num_tasks=*/512, /*cold=*/true);
}
BENCHMARK(BM_ServeRequestTasksCold);

// One worker's full cold OTA pass in the campaign shape the serving
// benchmark loads: QA-4000 (m = 26, l = 2 and 3), a settled multi-worker
// state (8 workers' answers plus one full EM), and every task rescored
// from live state — the work of a request whose worker epoch or generation
// moved. An untimed full inference before each pass bumps the generation
// (ScoreAllTasks scores every task regardless). Reports CPU ns per scored
// task and the task mix.
void BM_OtaColdPassCampaignShape(benchmark::State& state) {
  auto system = MakeServingSystem(/*num_tasks=*/4000);
  const size_t worker = system->WorkerIndex("bench_w0");
  const size_t n = system->tasks().size();
  size_t two_choice = 0;
  for (const auto& task : system->tasks()) {
    if (task.num_choices == 2) ++two_choice;
  }
  for (auto _ : state) {
    state.PauseTiming();
    system->RunFullInference();
    state.ResumeTiming();
    benchmark::DoNotOptimize(system->ScoreAllTasks(worker));
  }
  // Inverted per-score rate: CPU seconds per scored task.
  state.counters["per_score"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
  state.counters["tasks_l2"] = static_cast<double>(two_choice);
  state.counters["tasks_l3+"] = static_cast<double>(n - two_choice);
}
BENCHMARK(BM_OtaColdPassCampaignShape)->Unit(benchmark::kMillisecond);

// One cold RequestTasks of the serving path as a session meets it: the
// QA-4000 campaign shape above, and a full inference (untimed) right
// before each request, so its generation bump
// stales the worker's index. The request rebuilds the index
// and ranks k = 20 (the HIT size). Reports the rows the pass rescored per
// request.
void BM_ServeRequestTasksColdIndexed(benchmark::State& state) {
  auto system = MakeServingSystem(/*num_tasks=*/4000);
  const size_t worker = system->WorkerIndex("bench_w0");
  const uint64_t misses_before = system->benefit_cache_misses();
  for (auto _ : state) {
    state.PauseTiming();
    system->RunFullInference();
    state.ResumeTiming();
    benchmark::DoNotOptimize(system->SelectTasks(worker, 20));
  }
  state.counters["rows/request"] = benchmark::Counter(
      static_cast<double>(system->benefit_cache_misses() - misses_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeRequestTasksColdIndexed)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(40);

// --- The periodic full inference on campaign states ------------------------
// One IncrementalTruthInference::RunFullInference (z = 100's EM pass plus the
// refresh of M̂, M and s) on the real QA-4000 domain vectors, one thread.
//   PerfbenchState — the state perfbench's campaigns reach: its crowd (60
//                    workers from benchutil::PoolFor) in sessions of k = 20
//                    served by DocsSystem (20 golden tasks, a full inference
//                    every 100 answers) up to 3440 answers, so most tasks
//                    have no answer and most answered ones have one.
//   Mature         — 10 answers on every task from the same crowd: every
//                    task has several answers.
// Counters give the task mix by answer count.

struct CampaignCrowd {
  datasets::Dataset dataset;
  std::vector<crowd::SimulatedWorker> workers;
};

const CampaignCrowd& PerfbenchCrowd() {
  static const CampaignCrowd* kCrowd = [] {
    auto* crowd_state = new CampaignCrowd;
    crowd_state->dataset = datasets::MakeQaDataset(ServingKb(), 4000, 3);
    crowd_state->workers = benchutil::PoolFor(crowd_state->dataset, 60, 1234);
    return crowd_state;
  }();
  return *kCrowd;
}

void ReportAnswerMix(benchmark::State& state,
                     const core::IncrementalTruthInference& engine) {
  double counts[3] = {0, 0, 0};
  for (size_t i = 0; i < engine.num_tasks(); ++i) {
    size_t answered = 0;
    for (size_t w = 0; w < engine.num_workers() && answered < 2; ++w) {
      if (engine.HasAnswered(w, i)) ++answered;
    }
    counts[answered] += 1;
  }
  state.counters["tasks_0"] = counts[0];
  state.counters["tasks_1"] = counts[1];
  state.counters["tasks_2+"] = counts[2];
  state.counters["answers"] = static_cast<double>(engine.num_answers());
}

void BM_RunFullInferencePerfbenchState(benchmark::State& state) {
  const CampaignCrowd& crowd_state = PerfbenchCrowd();
  const datasets::Dataset& dataset = crowd_state.dataset;
  std::vector<core::TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  const std::vector<size_t> truths = dataset.Truths();
  core::DocsSystemOptions options;
  options.golden_count = 20;
  options.reinfer_every = 100;
  options.num_threads = 1;
  core::DocsSystem system(&ServingKb().knowledge_base, options);
  Status status = system.AddTasks(inputs, &truths);
  DOCS_CHECK(status.ok()) << status.ToString();
  std::vector<double> activity;
  for (const auto& worker : crowd_state.workers) {
    activity.push_back(worker.activity);
  }
  Rng rng(5);
  while (system.inference().num_answers() < 3440) {
    const size_t w = rng.SampleDiscrete(activity);
    const size_t worker = system.WorkerIndex(crowd_state.workers[w].id);
    for (size_t task : system.SelectTasks(worker, 20)) {
      const auto& spec = dataset.tasks[task];
      system.OnAnswer(worker, task,
                      crowd::GenerateAnswer(crowd_state.workers[w],
                                            spec.true_domain, spec.truth,
                                            spec.num_choices(), rng));
    }
  }
  system.RunFullInference();
  for (auto _ : state) system.RunFullInference();
  ReportAnswerMix(state, system.inference());
}
BENCHMARK(BM_RunFullInferencePerfbenchState)->Unit(benchmark::kMillisecond);

void BM_RunFullInferenceMature(benchmark::State& state) {
  const CampaignCrowd& crowd_state = PerfbenchCrowd();
  const datasets::Dataset& dataset = crowd_state.dataset;
  std::vector<core::TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.num_threads = 1;
  core::DocsSystem system(&ServingKb().knowledge_base, options);
  Status status = system.AddTasks(inputs);
  DOCS_CHECK(status.ok()) << status.ToString();
  core::TruthInferenceOptions ti_options;
  ti_options.num_threads = 1;
  core::IncrementalTruthInference engine(system.tasks(), ti_options);
  const size_t num_workers = crowd_state.workers.size();
  Rng rng(6);
  for (size_t i = 0; i < dataset.tasks.size(); ++i) {
    const auto& spec = dataset.tasks[i];
    for (size_t a = 0; a < 10; ++a) {
      const size_t w = (i * 7 + a * 13) % num_workers;
      DOCS_CHECK(engine
                     .OnAnswer(w, i,
                               crowd::GenerateAnswer(
                                   crowd_state.workers[w], spec.true_domain,
                                   spec.truth, spec.num_choices(), rng))
                     .ok());
    }
  }
  engine.RunFullInference(nullptr);
  for (auto _ : state) engine.RunFullInference(nullptr);
  ReportAnswerMix(state, engine);
}
BENCHMARK(BM_RunFullInferenceMature)->Unit(benchmark::kMillisecond);

// WorkerStore in-memory put+merge throughput.
void BM_WorkerStoreMerge(benchmark::State& state) {
  auto store = storage::WorkerStore::InMemory(26);
  storage::WorkerQualityRecord record;
  record.quality.assign(26, 0.8);
  record.weight.assign(26, 1.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Merge("worker_" + std::to_string(i++ % 100), record));
  }
}
BENCHMARK(BM_WorkerStoreMerge);

}  // namespace
}  // namespace docs

BENCHMARK_MAIN();

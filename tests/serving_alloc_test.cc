// Heap-allocation and work pin of the serving path (DESIGN.md §11, §16): one
// warm SelectTasks on a quiet system reads the top k off the worker's benefit
// index and allocates only its result. The count is pinned exactly, so any
// new per-request allocation (a rebuilt closure, a scratch vector that no
// longer persists, a row copied instead of borrowed) fails here. The same
// request made cold by a full inference must rebuild the index and rescore
// rows the warm one never touches: the deterministic form of "warm beats
// cold". Its allocations are pinned too. The shape is bench_micro's BM_ServeRequestTasksWarm: QA-512, one
// thread, no golden probe, no leases, no periodic inference, k = 10.
//
// Global operator new is replaced with a counting forwarder, as in
// bench/bench_micro.cc; the counter is process-wide, so the measured call
// runs on the test's thread with no pool (num_threads = 1).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/docs_system.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

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

// See bench/bench_micro.cc: GCC pairs the opaque operator new with the free()
// below and flags a mismatch that cannot happen here.
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

namespace docs::core {
namespace {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

TEST(ServingAllocTest, WarmRequestAllocatesOnlyItsResult) {
  const kb::SyntheticKb kb = kb::BuildSyntheticKb();
  const auto dataset = datasets::MakeQaDataset(kb, 512);
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.lease_duration = 0;
  options.num_threads = 1;
  DocsSystem system(&kb.knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(inputs).ok());
  // The benchmark's settled state: 8 workers answer every 17th task.
  for (size_t w = 0; w < 8; ++w) {
    const size_t worker = system.WorkerIndex("bench_w" + std::to_string(w));
    for (size_t t = w; t < dataset.tasks.size(); t += 17) {
      ASSERT_TRUE(system
                      .SubmitAnswer(worker, t,
                                    (t + w) % dataset.tasks[t].num_choices())
                      .ok());
    }
  }
  const size_t worker = system.WorkerIndex("bench_w0");
  // The first request rebuilds the index and grows the scratch arenas; the
  // second is the first warm one.
  const std::vector<size_t> cold = system.SelectTasks(worker, 10);
  ASSERT_EQ(cold.size(), 10u);
  ASSERT_EQ(system.SelectTasks(worker, 10), cold);

  const uint64_t rebuilds = system.benefit_index_rebuilds();
  const uint64_t misses = system.benefit_cache_misses();
  const uint64_t before = HeapAllocations();
  const std::vector<size_t> warm = system.SelectTasks(worker, 10);
  const uint64_t allocations = HeapAllocations() - before;
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds);
  EXPECT_EQ(system.benefit_cache_misses(), misses);
  // The result vector is reserved once to k = 10 before the index walk
  // fills it. Nothing else allocates.
  EXPECT_EQ(allocations, 1u);

  // A full inference bumps the generation: the same request now rebuilds
  // the index once and rescores rows from live state. The rebuild's seed
  // sweep and its resolve batch run in the worker's scratch and the index's
  // own storage, all sized by the first cold request above, so the cold
  // request too allocates only its result.
  system.RunFullInference();
  const uint64_t cold_before = HeapAllocations();
  const std::vector<size_t> recold = system.SelectTasks(worker, 10);
  const uint64_t cold_allocations = HeapAllocations() - cold_before;
  EXPECT_EQ(recold.size(), 10u);
  EXPECT_EQ(system.benefit_index_rebuilds(), rebuilds + 1);
  EXPECT_GT(system.benefit_cache_misses(), misses);
  EXPECT_EQ(cold_allocations, 1u);
}

}  // namespace
}  // namespace docs::core

#ifndef DOCS_COMMON_PARALLEL_H_
#define DOCS_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace docs {

/// Default chunk grain for ParallelFor/ParallelReduce: the index space is cut
/// into chunks of this many elements. The grain (and therefore the chunk
/// boundaries) depends only on the problem size, never on the thread count —
/// that invariance is what makes chunk-ordered reductions bit-identical for
/// any pool size. 16 keeps per-chunk dispatch overhead (one atomic fetch_add
/// plus one counter increment) negligible against the microseconds of work a
/// chunk of inference/scoring carries.
inline constexpr size_t kParallelGrain = 16;

/// std::thread::hardware_concurrency(), floored at 1 (the standard allows 0
/// when the count is unknowable).
size_t DefaultThreadCount();

/// Resolves a user-facing thread-count knob: 0 means "hardware default",
/// anything else is taken literally. Always >= 1.
size_t EffectiveThreadCount(size_t requested);

/// A fixed-size pool of worker threads executing indexed chunks. The pool is
/// created once and reused across parallel regions (thread creation costs tens
/// of microseconds; the hot loops run every answer submission). One Run() is
/// active at a time; the calling thread participates, so a pool constructed
/// with `num_threads` applies exactly `num_threads` threads to each region.
///
/// Determinism contract: Run(num_chunks, fn) invokes fn(c) exactly once for
/// every c in [0, num_chunks). *Which* thread runs a chunk is scheduling-
/// dependent, but callers that (a) write only to chunk-owned slots, or
/// (b) accumulate into per-chunk partials merged in chunk order afterwards,
/// produce results independent of both the schedule and the pool size.
class ThreadPool {
 public:
  /// `num_threads` counts the caller: a pool of 1 spawns no workers and runs
  /// everything inline; a pool of 0 resolves to DefaultThreadCount().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a region, including the caller.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Executes fn(c) for every chunk index c in [0, num_chunks), blocking until
  /// all chunks finished. Chunks are claimed dynamically (an idle thread takes
  /// the next index), so uneven chunk costs balance automatically. Not
  /// reentrant: fn must not call Run() on the same pool.
  ///
  /// If fn throws, the first exception (in completion order) is rethrown from
  /// Run() after every chunk has been accounted for and the pool state is
  /// reset — a chunk whose fn threw still counts as completed, so the pool
  /// stays usable for subsequent Run() calls. Exceptions thrown on worker
  /// threads are transported to the caller instead of terminating the
  /// process.
  void Run(size_t num_chunks, const std::function<void(size_t)>& fn)
      DOCS_EXCLUDES(mutex_);

 private:
  void WorkerLoop() DOCS_EXCLUDES(mutex_);
  /// Claims and executes chunks of the job tagged `generation` until none
  /// remain or the ticket's generation moves on; returns the number of chunks
  /// this thread completed. `num_chunks` is that job's chunk count, read
  /// under mutex_ together with `fn` and `generation`. `fn` is dereferenced
  /// only after a successful claim below `num_chunks`, which proves the job
  /// (and the caller's fn) is still alive.
  size_t DrainChunks(uint64_t generation, const std::function<void(size_t)>* fn,
                     size_t num_chunks) DOCS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(size_t)>* job_ DOCS_GUARDED_BY(mutex_) = nullptr;
  /// Chunk-claim ticket: the job generation in the high 32 bits, the next
  /// unclaimed chunk index in the low 32. Claims are CAS increments that fail
  /// if the generation tag changed, so a worker that stalled after picking up
  /// a job but before claiming anything can never consume a chunk of (or run
  /// fn from) a later job — the tag mismatch fences it off. Wrap-around would
  /// need a worker to stall across exactly 2^32 Run() generations.
  std::atomic<uint64_t> ticket_{0};
  /// Chunk count of the active job, published with job_ and generation_.
  /// Workers copy all three under the mutex, so a claim is only ever
  /// bounded by the count of the job its ticket generation names.
  size_t num_chunks_ DOCS_GUARDED_BY(mutex_) = 0;
  size_t completed_ DOCS_GUARDED_BY(mutex_) = 0;
  uint64_t generation_ DOCS_GUARDED_BY(mutex_) = 0;  ///< bumped per Run()
  std::exception_ptr first_error_ DOCS_GUARDED_BY(mutex_);  ///< see Run()
  bool shutdown_ DOCS_GUARDED_BY(mutex_) = false;
};

/// Number of chunks a ParallelFor over `n` elements dispatches. Depends only
/// on `n` and `grain`.
inline size_t NumChunks(size_t n, size_t grain = kParallelGrain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// Runs body(i) for every i in [0, n). Within a chunk indices run in
/// ascending order on one thread; distinct chunks may run concurrently.
/// `pool == nullptr` (or a 1-thread pool, or a single chunk) degrades to the
/// plain sequential loop. Bodies that only touch state owned by index i are
/// bit-identical to the sequential loop for every pool size.
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, const Body& body,
                 size_t grain = kParallelGrain) {
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return;
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * grain;
    const size_t end = std::min(n, begin + grain);
    for (size_t i = begin; i < end; ++i) body(i);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  pool->Run(chunks, run_chunk);
}

/// Deterministic chunked reduction: splits [0, n) into NumChunks(n, grain)
/// chunks, runs chunk_body(begin, end, partial) with a freshly
/// value-initialized Partial per chunk, then folds the partials into `result`
/// with merge(result, partial) in ascending chunk order on the calling
/// thread. Because the chunk boundaries and the merge order depend only on
/// (n, grain), the result is bit-identical for any thread count — including
/// the degenerate sequential execution.
template <typename Partial, typename ChunkBody, typename Merge>
void ParallelReduce(ThreadPool* pool, size_t n, Partial& result,
                    const ChunkBody& chunk_body, const Merge& merge,
                    size_t grain = kParallelGrain) {
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return;
  std::vector<Partial> partials(chunks);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * grain;
    const size_t end = std::min(n, begin + grain);
    chunk_body(begin, end, partials[c]);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    pool->Run(chunks, run_chunk);
  }
  for (size_t c = 0; c < chunks; ++c) merge(result, partials[c]);
}

}  // namespace docs

#endif  // DOCS_COMMON_PARALLEL_H_

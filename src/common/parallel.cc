#include "common/parallel.h"

namespace docs {

size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t EffectiveThreadCount(size_t requested) {
  return requested == 0 ? DefaultThreadCount() : requested;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t total = EffectiveThreadCount(num_threads);
  workers_.reserve(total - 1);
  for (size_t t = 0; t + 1 < total; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

namespace {
// ticket_ layout: generation in the high 32 bits, next chunk in the low 32.
constexpr uint64_t kTicketGenShift = 32;
constexpr uint64_t kTicketChunkMask = 0xffffffffULL;
}  // namespace

size_t ThreadPool::DrainChunks(uint64_t generation,
                               const std::function<void(size_t)>* fn,
                               size_t num_chunks) {
  const uint64_t gen_tag = generation << kTicketGenShift;
  size_t ran = 0;
  uint64_t ticket = ticket_.load(std::memory_order_acquire);
  for (;;) {
    // The generation check and the claim are one atomic step: a straggler
    // still holding an old job sees the tag mismatch and backs off without
    // consuming an index of the new job or touching the old (possibly
    // destroyed) fn. A plain fetch_add could not give that guarantee — it
    // would burn a chunk of the new job before the check.
    if ((ticket & ~kTicketChunkMask) != gen_tag) return ran;
    const size_t chunk = static_cast<size_t>(ticket & kTicketChunkMask);
    // The bound is the job's own chunk count, captured with `fn` under the
    // mutex. Reading a shared "current job" count here would let a straggler
    // pair its stale ticket with the NEXT job's larger count and claim an
    // index this job never had, calling a dead (or re-used) fn.
    if (chunk >= num_chunks) return ran;
    if (!ticket_.compare_exchange_weak(ticket, ticket + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;  // ticket was reloaded by the failed CAS
    }
    ticket += 1;
    // The successful claim proves *fn is alive: this chunk has not been
    // counted into completed_, so Run() is still blocked in its wait.
    try {
      (*fn)(chunk);
    } catch (...) {
      MutexLock lock(&mutex_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    // A chunk whose fn threw still counts as completed — Run() must never
    // wait for work nobody will redo.
    ++ran;
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    size_t job_chunks = 0;
    {
      MutexLock lock(&mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded reads
      // stay in this function, where the analysis can see the lock is held.
      while (!shutdown_ &&
             !(job_ != nullptr && generation_ != seen_generation)) {
        work_cv_.Wait(mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      job_chunks = num_chunks_;
    }
    const size_t ran = DrainChunks(seen_generation, job, job_chunks);
    if (ran > 0) {
      // Having claimed a chunk of this generation pins Run() in its wait
      // until we report, so completed_ still counts this job here.
      MutexLock lock(&mutex_);
      completed_ += ran;
      if (completed_ == job_chunks) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Run(size_t num_chunks, const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  // A chunk count overflowing the ticket's 32-bit chunk field (64G+ elements
  // at the default grain) would corrupt the generation tag; run it inline.
  if (workers_.empty() || num_chunks == 1 || num_chunks > kTicketChunkMask) {
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  uint64_t generation;
  {
    MutexLock lock(&mutex_);
    job_ = &fn;
    num_chunks_ = num_chunks;
    completed_ = 0;
    // The pool's own job-generation tag, unrelated to the inference engine's
    // invalidation counter of the same name.
    generation = ++generation_;  // NOLINT(docs-lint)
    // Publishing the new generation tag atomically invalidates any claim a
    // straggler from the previous job might still attempt (see DrainChunks).
    ticket_.store(generation << kTicketGenShift, std::memory_order_release);
  }
  work_cv_.NotifyAll();
  const size_t ran = DrainChunks(generation, &fn, num_chunks);
  std::exception_ptr error;
  {
    MutexLock lock(&mutex_);
    completed_ += ran;
    while (completed_ != num_chunks) done_cv_.Wait(mutex_);
    // Every chunk is accounted for. Workers that claimed chunks have left fn
    // (completion is only reported after fn returned or threw); workers that
    // claimed none are fenced off fn by the generation tag. Safe to drop the
    // job and let the caller's fn die.
    job_ = nullptr;
    num_chunks_ = 0;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace docs

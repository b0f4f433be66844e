#ifndef DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_
#define DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/docs_system.h"
#include "core/inference_service.h"

namespace docs::core {

/// Bounded retry policy for checkpoint saves: transient storage failures
/// (full disk, slow NFS, an injected fault) are retried with exponential
/// backoff instead of dropping the snapshot on the floor.
struct CheckpointRetryOptions {
  size_t max_attempts = 5;
  std::chrono::milliseconds initial_backoff{1};
  double backoff_multiplier = 2.0;
};

/// Staleness observability for async mode (DESIGN.md §15): the service's
/// counters plus the snapshot epoch the last lease sweep ran against. All
/// zero when async mode is off.
struct AsyncInferenceStats {
  bool enabled = false;
  InferenceServiceStats service;
  uint64_t last_sweep_epoch = 0;
};

/// Thread-safe facade over DocsSystem for a serving deployment: the real
/// system sits behind a web frontend where AMT's callbacks (task requests,
/// answer submissions) arrive concurrently.
///
/// Striped serving (DESIGN.md §13): steady-state RequestTasks — a returning,
/// golden-complete worker asking for her next HIT — is the hot path, and its
/// scoring pass only *reads* the inference posteriors while writing nothing
/// shared beyond her own benefit index and the lease books. One loop,
/// ServeStriped, serves it in both modes (eligibility snapshot → score →
/// commit), with the writes funneled through two narrow mutexes:
///  - a per-worker shard lock (worker index mod kNumShards) guarding her
///    benefit index and reusable scoring scratch, so concurrent requests from
///    different workers score genuinely in parallel;
///  - one assign lock, held only for the O(n) eligibility snapshot and the
///    O(k) grant commit.
///
/// One lock rule in both modes: the assign lock guards the worker table,
/// the submission books, the lease books and the lease clock. Every write
/// to them holds it (a registration holds the exclusive state lock too), so
/// worker resolution, answer booking, lease sweeps and the clock run under
/// the assign lock alone, and there is one slow path — exclusive state plus
/// shard, assign and pool — for first contact and golden probes. The mode
/// (DocsSystemOptions::async_inference, DESIGN.md §15) decides only two
/// things:
///  - what the striped pass reads: the live engine under a reader (shared)
///    state lock (sync), or the last published immutable snapshot with no
///    state lock (async);
///  - what SubmitAnswer does after booking: apply inline under the
///    exclusive state lock (sync), or enqueue for the background
///    InferenceService thread and ack (async) — so neither serving call
///    ever waits on a retro-update fan-out or the periodic full EM.
/// Both modes accept an answer through DocsSystem::ValidateAnswer and
/// RecordAnswer.
///
/// The scoring thread pool stays engine-owned and deterministic (DESIGN.md
/// §8): striped scorers try-lock a pool mutex, and the loser of the race
/// scores serially — bit-identical either way, because the ranking is
/// thread-count invariant.
///
/// Lock hierarchy (acquire left-to-right, never right-to-left; DESIGN.md
/// §14, machine-checked via the DOCS_* annotations below):
///   state (shared or exclusive) → shard → assign → pool.
/// The InferenceService's queue and snapshot mutexes are leaves held by no
/// path that also holds any lock above (the service thread holds neither
/// while applying; producers hold nothing while enqueueing), so the queue
/// EXCLUDES the state lock by construction.
class ConcurrentDocsSystem {
 public:
  ConcurrentDocsSystem(const kb::KnowledgeBase* knowledge_base,
                       DocsSystemOptions options = {});
  ~ConcurrentDocsSystem();

  [[nodiscard]] Status AddTasks(const std::vector<TaskInput>& inputs,
                                const std::vector<size_t>* known_truths =
                                    nullptr)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  /// Atomically resolves the worker id and selects her next HIT. Known
  /// workers past the golden phase are served by the striped loop (parallel
  /// across worker shards); first contact and golden probes fall back to the
  /// exclusive path. Before any AddTasks/LoadCheckpoint the grant is empty
  /// and the worker is not registered.
  std::vector<size_t> RequestTasks(const std::string& worker_id, size_t k)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_, pool_mutex_);

  /// Atomically resolves the worker id and submits one answer. Invalid
  /// submissions (unknown task, out-of-range choice, duplicate (worker,
  /// task) pair) are rejected with the reason instead of silently dropped —
  /// the web frontend can surface it to the platform. A worker id never seen
  /// by RequestTasks/LoadWorker is rejected too: resolving it here would
  /// silently register a fresh worker for every malformed or forged id the
  /// network delivers.
  [[nodiscard]] Status SubmitAnswer(const std::string& worker_id, size_t task,
                                    size_t choice)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  /// Reclaims every lease whose logical deadline is at or before `now`
  /// (workers who accepted a HIT and vanished); the freed tasks are
  /// immediately assignable again. Serving deployments call this on a timer.
  /// Touches only the lease books, so it runs under the assign lock alone —
  /// a sweep never waits on scoring or an inference pass.
  std::vector<ExpiredLease> ExpireLeases(uint64_t now)
      DOCS_EXCLUDES(assign_mutex_);

  /// Seeds a returning worker's quality profile from the persistent store;
  /// the worker is registered and skips the golden probe (Theorem 1 state).
  [[nodiscard]] Status LoadWorker(const std::string& worker_id,
                                  const storage::WorkerStore& store)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  uint64_t lease_clock() DOCS_EXCLUDES(assign_mutex_);
  size_t num_tasks() DOCS_EXCLUDES(state_mutex_);
  size_t outstanding_leases() DOCS_EXCLUDES(assign_mutex_);
  std::vector<size_t> InferredChoices() DOCS_EXCLUDES(state_mutex_);
  size_t num_answers() DOCS_EXCLUDES(state_mutex_);

  /// Forces a full inference pass (the recovery bit-equality oracle; see
  /// DocsSystem::RunFullInference).
  void RunFullInference() DOCS_EXCLUDES(state_mutex_, pool_mutex_);

  /// Registered worker ids in registration order.
  std::vector<std::string> WorkerIds() DOCS_EXCLUDES(assign_mutex_);

  /// Rows scored and request-level hits and misses; see DocsSystem for the
  /// meanings (rows are the wrong unit for a hit-rate). Lock-free: relaxed
  /// atomic loads through StripedSystem(), so an observer never waits out
  /// an apply batch or an EM pass.
  uint64_t benefit_cache_misses();
  uint64_t benefit_cache_request_hits();
  uint64_t benefit_cache_request_misses();

  /// Benefit-index effectiveness counters (DESIGN.md §16): heap pops served
  /// and full rebuilds (lock-free, as above), and O(1) generation
  /// invalidations, which read the engine under the shared state lock.
  uint64_t benefit_index_pops();
  uint64_t benefit_index_rebuilds();
  uint64_t benefit_index_generation_invalidations() DOCS_EXCLUDES(state_mutex_);

  [[nodiscard]] Status SaveCheckpoint(const std::string& path)
      DOCS_EXCLUDES(state_mutex_);
  [[nodiscard]] Status LoadCheckpoint(const std::string& path)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  /// SaveCheckpoint with bounded retry: sleeps between attempts with
  /// exponential backoff (outside the lock, so serving calls proceed while
  /// the saver waits out a transient storage failure). Returns the last
  /// attempt's status.
  [[nodiscard]] Status SaveCheckpointWithRetry(
      const std::string& path, const CheckpointRetryOptions& retry = {});

  /// Runs `fn` under the exclusive state lock and the assign lock, with
  /// direct access to the underlying system — for setup/inspection that needs
  /// several calls to be atomic, registration and the books included. A
  /// worker registered here resolves at once in both modes.
  /// Async-mode callers that read inference state should Drain() first: the
  /// lock serializes against the service thread, but queued answers are
  /// otherwise still in flight.
  template <typename Fn>
  auto WithLocked(Fn&& fn) DOCS_EXCLUDES(state_mutex_, assign_mutex_) {
    WriterLock lock(&state_mutex_);
    MutexLock assign(&assign_mutex_);
    return fn(system_);
  }

  /// True when `worker_id` is already registered, in either mode and however
  /// she was registered (serving, LoadWorker, checkpoint or WAL replay). The
  /// durable layer gates its lock-free warm path on this so registration
  /// stays on the recovery-ordered exclusive path.
  bool KnowsWorker(const std::string& worker_id) DOCS_EXCLUDES(assign_mutex_);

  /// Async-mode quiesce barrier: returns once every answer acked before the
  /// call is applied and visible in a published snapshot. No-op in sync
  /// mode. Callers must hold no lock (the apply path takes state + pool).
  void Drain() DOCS_EXCLUDES(state_mutex_, assign_mutex_, pool_mutex_);

  /// Staleness counters; safe to call concurrently with serving. All-zero /
  /// disabled in sync mode.
  AsyncInferenceStats async_stats() const;

  /// Test hook: runs on the service thread immediately before each answer is
  /// applied (e.g. to slow an apply/EM pass down deliberately). Must be
  /// installed before AddTasks/LoadCheckpoint — the service reads it
  /// unsynchronized once running.
  void SetAsyncApplyHookForTest(std::function<void(const PendingAnswer&)> hook) {
    async_apply_hook_ = std::move(hook);
  }

 private:
  /// Worker-shard count: a fixed power of two well above any realistic
  /// reactor count, so concurrent requests rarely collide on a shard.
  static constexpr size_t kNumShards = 16;

  /// One lock stripe: guards the scoring scratch below and the benefit
  /// indexes of every worker hashing to this shard. Cache-line aligned so two
  /// reactors hammering adjacent shards do not false-share.
  struct alignas(64) WorkerShard {
    Mutex mutex;
    /// Guarded by `mutex` (declared via the annotation so the analysis binds
    /// the scratch to its own stripe, not a sibling's).
    DocsSystem::ShardScratch scratch DOCS_GUARDED_BY(mutex);
  };

  /// The striped fast path of both modes: eligibility snapshot → score →
  /// commit under the worker's shard stripe, retrying on a commit-time
  /// redundancy-cap conflict (forced through, dropping only the conflicted
  /// tasks, on the final attempt so a hot task cannot livelock the request).
  /// `snap` is the pinned published snapshot the pass reads (async mode; the
  /// caller holds no state lock), or nullptr for the live engine (sync mode;
  /// the caller holds the shared state lock and has verified
  /// CanServeSharded). The analysis cannot express that either-or, so the
  /// state side of the contract is kept by hand.
  std::vector<size_t> ServeStriped(size_t worker, size_t k,
                                   const InferenceSnapshot* snap)
      DOCS_EXCLUDES(assign_mutex_, pool_mutex_);

  /// The one slow path of both modes, under state (exclusive) → shard →
  /// assign → pool: registers the worker and runs SelectTasks. nullopt,
  /// with nothing granted, while DocsSystem::GoldenAwaitsApply holds for
  /// her; the caller drains and retries.
  std::optional<std::vector<size_t>> ServeExclusive(
      const std::string& worker_id, size_t k)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_, pool_mutex_);

  /// Registers `worker_id` (or resolves it) under the assign lock, which
  /// guards the worker table and the books registration appends to.
  size_t RegisterWorkerLocked(const std::string& worker_id)
      DOCS_REQUIRES(state_mutex_) DOCS_EXCLUDES(assign_mutex_);

  /// Resolves `worker_id` without registering it, under the assign lock
  /// alone; nullopt for an id never registered.
  std::optional<size_t> FindWorker(const std::string& worker_id)
      DOCS_EXCLUDES(assign_mutex_);

  /// Resolves, validates and books one answer under the assign lock, and
  /// returns the worker's index; the engine has not absorbed it yet.
  StatusOr<size_t> BookAnswer(const std::string& worker_id, size_t task,
                              size_t choice) DOCS_EXCLUDES(assign_mutex_);

  /// Async mode only (a no-op in sync mode): publishes the initial snapshot
  /// and starts the service, after a successful ingest/restore.
  void StartServiceLocked() DOCS_REQUIRES(state_mutex_, assign_mutex_);

  /// Forces a snapshot publish after an out-of-band state change; a no-op
  /// in sync mode, like Drain().
  void Republish();

  /// The InferenceService's apply callback: runs on the service thread,
  /// applies one FIFO batch under state (exclusive) + pool, and builds the
  /// next snapshot copy-on-write.
  std::shared_ptr<const InferenceSnapshot> ApplyBatch(
      const std::vector<PendingAnswer>& batch)
      DOCS_EXCLUDES(state_mutex_, pool_mutex_);

  /// Narrow, documented escape hatch from system_'s GUARDED_BY(state_mutex_)
  /// for the striped loop (which holds the state lock shared in sync mode and
  /// not at all in async mode) and for the paths that by design run under
  /// the assign lock alone, and for the lock-free counter reads. Every
  /// member they reach is protected by a finer lock the caller holds (assign
  /// for the worker table, books and leases; the shard stripe for benefit
  /// indexes), is immutable after ingest (tasks, options), is read from a
  /// published snapshot, or is a relaxed atomic counter — see the locking
  /// notes on DocsSystem's answer-acceptance and striped-serving methods.
  DocsSystem& StripedSystem() DOCS_NO_THREAD_SAFETY_ANALYSIS { return system_; }

  /// Top of the hierarchy: every other lock here is acquired strictly after
  /// it (shared for the sync striped serve, exclusive for mutators).
  SharedMutex state_mutex_ DOCS_ACQUIRED_BEFORE(assign_mutex_, pool_mutex_);
  /// Worker table, submission books, lease books and logical clock, in both
  /// modes; taken after state and any shard stripe, never before one. The
  /// ONLY lock that resolution, acceptance and the lease paths (sweeps,
  /// grants, releases) need.
  Mutex assign_mutex_ DOCS_ACQUIRED_BEFORE(pool_mutex_);
  /// Scoring-pool try-lock (DESIGN.md §13): the loser scores serially.
  Mutex pool_mutex_;
  WorkerShard shards_[kNumShards];
  /// Fixed at construction (copied before options move into system_).
  const bool async_;
  const size_t async_queue_capacity_;
  /// See SetAsyncApplyHookForTest: written before the service starts only.
  std::function<void(const PendingAnswer&)> async_apply_hook_;
  /// Snapshot epoch the last async lease sweep was consistent with.
  std::atomic<uint64_t> last_sweep_epoch_{0};
  /// The wrapped engine. Hold state_mutex_ — shared on read-mostly serving
  /// paths (per-shard writes are funneled through the stripe mutexes),
  /// exclusive for anything that mutates shared structure. The striped loop
  /// and the assign-only paths go through StripedSystem() under the
  /// finer-lock contract documented there.
  DocsSystem system_ DOCS_GUARDED_BY(state_mutex_);
  /// The background inference thread; constructed (not started) in the
  /// constructor when async mode is on, so the pointer is immutable while
  /// any other thread can observe it. Declared last: destroyed first, and
  /// its destructor joins the thread before system_ can die under it.
  std::unique_ptr<InferenceService> service_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_

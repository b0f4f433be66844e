#include "core/concurrent_docs_system.h"

#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace docs::core {

ConcurrentDocsSystem::ConcurrentDocsSystem(
    const kb::KnowledgeBase* knowledge_base, DocsSystemOptions options)
    : async_(options.async_inference),
      async_queue_capacity_(options.async_queue_capacity),
      system_(knowledge_base, std::move(options)) {
  if (async_) {
    // Constructed here (started at ingest) so the pointer never changes
    // while another thread can observe it — async_stats() and the serving
    // paths read it lock-free.
    InferenceServiceOptions service_options;
    service_options.queue_capacity = async_queue_capacity_;
    service_ = std::make_unique<InferenceService>(
        [this](const std::vector<PendingAnswer>& batch) {
          return ApplyBatch(batch);
        },
        service_options);
  }
}

ConcurrentDocsSystem::~ConcurrentDocsSystem() {
  // Explicit for clarity only: service_ is declared last, so its destructor
  // (which drains and joins the apply thread) runs before system_ dies.
  if (service_ != nullptr) service_->Stop();
}

Status ConcurrentDocsSystem::AddTasks(const std::vector<TaskInput>& inputs,
                                      const std::vector<size_t>* known_truths) {
  WriterLock lock(&state_mutex_);
  MutexLock assign(&assign_mutex_);  // sizes the submission and lease books
  Status status = system_.AddTasks(inputs, known_truths);
  if (status.ok()) StartServiceLocked();
  return status;
}

void ConcurrentDocsSystem::StartServiceLocked() {
  if (!async_) return;
  // Built eagerly: once serving starts, the pool may only be built under
  // pool_mutex_, and the exclusive-path callers below this layer do not
  // all take it.
  system_.ScoringPool();
  service_->Publish(system_.BuildSnapshot(nullptr));
  service_->Start();
}

std::shared_ptr<const InferenceSnapshot> ConcurrentDocsSystem::ApplyBatch(
    const std::vector<PendingAnswer>& batch) {
  WriterLock lock(&state_mutex_);
  // The pool lock is held for the whole batch: the periodic full EM inside
  // ApplyAnswer fans out on the shared pool, and snapshot scorers try-lock
  // it (losing the race costs them a serial pass, never a stall).
  MutexLock pool(&pool_mutex_);
  for (const PendingAnswer& answer : batch) {
    if (async_apply_hook_) async_apply_hook_(answer);
    // The books were written at ack time under the assign lock, which this
    // thread does not hold: ApplyAnswer reads none of them.
    Status status =
        system_.ApplyAnswer(answer.worker, answer.task, answer.choice);
    if (!status.ok()) {
      // Unreachable for a correctly booked answer; surfaced, not silently
      // dropped, if it ever fires.
      DOCS_LOG(Warning) << "async apply rejected a booked answer: "
                        << status.ToString();
    }
  }
  std::shared_ptr<const InferenceSnapshot> prev = service_->snapshot();
  return system_.BuildSnapshot(prev.get());
}

std::optional<size_t> ConcurrentDocsSystem::FindWorker(
    const std::string& worker_id) {
  MutexLock assign(&assign_mutex_);
  return StripedSystem().FindWorker(worker_id);
}

std::vector<size_t> ConcurrentDocsSystem::RequestTasks(
    const std::string& worker_id, size_t k) {
  if (const std::optional<size_t> worker = FindWorker(worker_id)) {
    // The striped pass reads the published snapshot (async) or the live
    // engine under the shared state lock (sync).
    if (async_) {
      // Pin the current snapshot for the whole pass; a publish mid-pass
      // retires the old epoch without touching it.
      std::shared_ptr<const InferenceSnapshot> snap = service_->snapshot();
      if (snap != nullptr && *worker < snap->workers.size() &&
          snap->workers[*worker] != nullptr &&
          snap->workers[*worker]->servable) {
        return ServeStriped(*worker, k, snap.get());
      }
    } else {
      ReaderLock state(&state_mutex_);
      if (system_.CanServeSharded(*worker)) {
        return ServeStriped(*worker, k, nullptr);
      }
    }
  }
  // Slow path, one in both modes: first contact, golden probes, or a worker
  // whose index row does not exist yet (sync) or is not yet published
  // (async). Exclusive over state — serialized against the apply thread —
  // plus her shard stripe (a concurrent snapshot pass for the same worker
  // rebuilds her index under it), the assign lock (books and leases), and
  // the pool lock (striped scorers try-lock it). The eligibility re-check
  // happens inside SelectTasks, so losing a race since the probe above
  // costs a detour, never correctness.
  for (;;) {
    if (std::optional<std::vector<size_t>> granted =
            ServeExclusive(worker_id, k)) {
      return *std::move(granted);
    }
    // Her last golden answers are acked but not applied (async only): the
    // seed that closes her probe is in the queue. Drain with no lock held,
    // then serve her on converged state. A drain applies every booked
    // answer, so only a new answer of hers racing this request can send
    // the loop round again.
    Drain();
  }
}

std::optional<std::vector<size_t>> ConcurrentDocsSystem::ServeExclusive(
    const std::string& worker_id, size_t k) {
  WriterLock lock(&state_mutex_);
  // Before ingest there is nothing to grant and no engine to register with.
  if (system_.tasks().empty()) return std::vector<size_t>{};
  const size_t index = RegisterWorkerLocked(worker_id);
  MutexLock shard_lock(&shards_[index % kNumShards].mutex);
  MutexLock assign(&assign_mutex_);
  if (system_.GoldenAwaitsApply(index)) return std::nullopt;
  MutexLock pool(&pool_mutex_);
  return system_.SelectTasks(index, k);
}

size_t ConcurrentDocsSystem::RegisterWorkerLocked(const std::string& worker_id) {
  MutexLock assign(&assign_mutex_);
  return system_.WorkerIndex(worker_id);
}

std::vector<size_t> ConcurrentDocsSystem::ServeStriped(
    size_t worker, size_t k, const InferenceSnapshot* snap) {
  WorkerShard& shard = shards_[worker % kNumShards];
  // The shard lock serializes same-worker index access and hands this request
  // exclusive use of the shard's scoring scratch.
  MutexLock shard_lock(&shard.mutex);
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock assign(&assign_mutex_);
      StripedSystem().BeginShardedSelect(worker, &shard.scratch.eligible);
    }
    // One deterministic pool, many would-be users: the winner of the
    // try-lock fans the scoring pass out, everyone else scores serially.
    // Bit-identical either way (the ranking is thread-count invariant), so
    // contention degrades latency, never results. Explicit TryLock/Unlock
    // on the tracked boolean (not a scoped guard): the analysis follows the
    // branch on a try-acquire result, so both paths check out.
    const bool pool_locked = pool_mutex_.TryLock();
    ThreadPool* pool = pool_locked ? StripedSystem().ScoringPool() : nullptr;
    std::vector<size_t> selected =
        StripedSystem().ScoreAndRank(worker, shard.scratch, k, pool, snap);
    if (pool_locked) pool_mutex_.Unlock();
    {
      MutexLock assign(&assign_mutex_);
      // A commit conflict means another shard granted the last cap slot of a
      // selected task mid-scoring; rescore from a fresh snapshot, and after
      // two clean retries force through without the conflicted tasks.
      const bool force = attempt >= 2;
      if (StripedSystem().CommitShardedSelect(worker, &selected, force)) {
        return selected;
      }
    }
  }
}

StatusOr<size_t> ConcurrentDocsSystem::BookAnswer(const std::string& worker_id,
                                                  size_t task, size_t choice) {
  MutexLock assign(&assign_mutex_);
  const std::optional<size_t> worker = StripedSystem().FindWorker(worker_id);
  if (!worker.has_value()) {
    return InvalidArgumentError("unknown worker '" + worker_id +
                                "': never seen by RequestTasks/LoadWorker");
  }
  Status status = StripedSystem().ValidateAnswer(*worker, task, choice);
  if (!status.ok()) return status;
  StripedSystem().RecordAnswer(*worker, task);
  return *worker;
}

Status ConcurrentDocsSystem::SubmitAnswer(const std::string& worker_id,
                                          size_t task, size_t choice) {
  // The books make the acceptance side effects (duplicate rejection, cap
  // accounting, lease release) visible at once; ApplyAnswer reads none of
  // them, so booking before the engine absorbs the answer changes nothing.
  if (async_) {
    // Enqueue with no lock held: Enqueue blocks on a full queue, and
    // backpressure must not pin the books.
    StatusOr<size_t> worker = BookAnswer(worker_id, task, choice);
    if (!worker.ok()) return worker.status();
    service_->Enqueue({*worker, task, choice});
    return OkStatus();
  }
  WriterLock lock(&state_mutex_);
  StatusOr<size_t> worker = BookAnswer(worker_id, task, choice);
  if (!worker.ok()) return worker.status();
  return system_.ApplyAnswer(*worker, task, choice);
}

bool ConcurrentDocsSystem::KnowsWorker(const std::string& worker_id) {
  return FindWorker(worker_id).has_value();
}

void ConcurrentDocsSystem::Drain() {
  if (service_ != nullptr) service_->Drain();
}

void ConcurrentDocsSystem::Republish() {
  if (service_ != nullptr) service_->RequestRepublish();
}

AsyncInferenceStats ConcurrentDocsSystem::async_stats() const {
  AsyncInferenceStats out;
  out.enabled = async_;
  if (service_ != nullptr) out.service = service_->stats();
  out.last_sweep_epoch = last_sweep_epoch_.load(std::memory_order_relaxed);
  return out;
}

std::vector<ExpiredLease> ConcurrentDocsSystem::ExpireLeases(uint64_t now) {
  // The sweep reads only the assign-guarded lease books — never inference
  // state — so it can neither stall behind an EM pass nor observe a
  // half-applied retro-update. The published snapshot epoch (0 in sync
  // mode) is sampled first and recorded so observers can bound which
  // publish the sweep was consistent with (tests/gateway_test.cc races
  // sweeps against publishes; DESIGN.md §15).
  const std::shared_ptr<const InferenceSnapshot> snap =
      service_ != nullptr ? service_->snapshot() : nullptr;
  std::vector<ExpiredLease> expired;
  {
    MutexLock assign(&assign_mutex_);
    expired = StripedSystem().ExpireLeases(now);
  }
  last_sweep_epoch_.store(snap != nullptr ? snap->epoch : 0,
                          std::memory_order_relaxed);
  return expired;
}

Status ConcurrentDocsSystem::LoadWorker(const std::string& worker_id,
                                        const storage::WorkerStore& store) {
  // The seed reshapes the worker's quality out-of-band: drain so it lands on
  // converged state, and republish so a snapshot serves the seeded profile.
  Drain();
  Status status;
  {
    WriterLock lock(&state_mutex_);
    MutexLock assign(&assign_mutex_);  // LoadWorker may register
    status = system_.LoadWorker(worker_id, store);
  }
  if (status.ok()) Republish();
  return status;
}

uint64_t ConcurrentDocsSystem::lease_clock() {
  MutexLock assign(&assign_mutex_);
  return StripedSystem().lease_clock();
}

size_t ConcurrentDocsSystem::num_tasks() {
  ReaderLock state(&state_mutex_);
  return system_.tasks().size();
}

size_t ConcurrentDocsSystem::outstanding_leases() {
  MutexLock assign(&assign_mutex_);
  return StripedSystem().outstanding_leases();
}

std::vector<size_t> ConcurrentDocsSystem::InferredChoices() {
  // The inferred truths must reflect every acked answer.
  Drain();
  WriterLock lock(&state_mutex_);
  return system_.InferredChoices();
}

size_t ConcurrentDocsSystem::num_answers() {
  ReaderLock state(&state_mutex_);
  return system_.inference().num_answers();
}

void ConcurrentDocsSystem::RunFullInference() {
  // Runs on converged state; the pool lock because striped scorers try-lock
  // the shared pool; the republish so a snapshot serves the result.
  Drain();
  {
    WriterLock lock(&state_mutex_);
    MutexLock pool(&pool_mutex_);
    system_.RunFullInference();
  }
  Republish();
}

std::vector<std::string> ConcurrentDocsSystem::WorkerIds() {
  MutexLock assign(&assign_mutex_);
  return StripedSystem().WorkerIds();
}

uint64_t ConcurrentDocsSystem::benefit_cache_misses() {
  return StripedSystem().benefit_cache_misses();
}

uint64_t ConcurrentDocsSystem::benefit_cache_request_hits() {
  return StripedSystem().benefit_cache_request_hits();
}

uint64_t ConcurrentDocsSystem::benefit_cache_request_misses() {
  return StripedSystem().benefit_cache_request_misses();
}

uint64_t ConcurrentDocsSystem::benefit_index_pops() {
  return StripedSystem().benefit_index_pops();
}

uint64_t ConcurrentDocsSystem::benefit_index_rebuilds() {
  return StripedSystem().benefit_index_rebuilds();
}

uint64_t ConcurrentDocsSystem::benefit_index_generation_invalidations() {
  ReaderLock state(&state_mutex_);
  return system_.benefit_index_generation_invalidations();
}

Status ConcurrentDocsSystem::SaveCheckpoint(const std::string& path) {
  // Quiesce first so the checkpoint contains every acked answer — the
  // durable layer truncates its WAL after a checkpoint, and an acked answer
  // must never exist in neither.
  Drain();
  // Snapshot state is everything the sharded path only reads (tasks, golden
  // set, seeds, answers) — leases are volatile by contract — so a shared
  // lock suffices and a save never stalls serving.
  ReaderLock state(&state_mutex_);
  return system_.SaveCheckpoint(path);
}

Status ConcurrentDocsSystem::LoadCheckpoint(const std::string& path) {
  WriterLock lock(&state_mutex_);
  MutexLock assign(&assign_mutex_);  // the replay registers and books
  Status status = system_.LoadCheckpoint(path);
  if (status.ok()) StartServiceLocked();
  return status;
}

Status ConcurrentDocsSystem::SaveCheckpointWithRetry(
    const std::string& path, const CheckpointRetryOptions& retry) {
  const size_t attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  std::chrono::duration<double, std::milli> backoff = retry.initial_backoff;
  Status status;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= retry.backoff_multiplier;
    }
    status = SaveCheckpoint(path);
    if (status.ok()) return status;
  }
  return status;
}

}  // namespace docs::core

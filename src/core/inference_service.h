#ifndef DOCS_CORE_INFERENCE_SERVICE_H_
#define DOCS_CORE_INFERENCE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "common/sync.h"
#include "core/task_assignment.h"

namespace docs::core {

/// Immutable posterior of one task as of a snapshot publish: the normalized
/// truth matrix M^(i), copied verbatim from the live engine (snapshot
/// scoring reads it and the flat InferenceSnapshot::truth_entropy). Shared
/// (by shared_ptr) between consecutive snapshots while the task's inference
/// epoch is unchanged, so a publish copies only the tasks an apply batch
/// actually moved.
struct TaskPosteriorSnapshot {
  Matrix truth_matrix;
};

/// One worker's serving view as of a publish.
struct WorkerSnapshot {
  std::vector<double> quality;
  /// The tasks the worker had answered in the engine at publish time,
  /// ascending. Covered by `epoch`: each of her answers bumps it.
  std::vector<size_t> answered;
  /// The worker's inference epoch at publish time: the worker half of her
  /// benefit index key on the snapshot path, and (with the generation) what
  /// lets the next publish share this view copy-on-write.
  uint64_t epoch = 0;
  /// True when the striped loop may serve this worker from the snapshot: she
  /// is past the golden probe. (BuildSnapshot sizes her index row at every
  /// publish, so unlike CanServeSharded it need not check it.)
  bool servable = false;
  /// The worker's live benefit index (DESIGN.md §16), published by pointer:
  /// the object's address is stable (deque row) and its contents stay
  /// guarded by the worker's shard stripe, exactly as on the sync sharded
  /// path. Indexing the owner's container from the lock-free snapshot path
  /// would race container growth; the pointer cannot.
  BenefitIndex* index = nullptr;
};

/// An immutable, epoch-tagged picture of the inference state, published by
/// the background service via shared_ptr swap (RCU-style: readers copy the
/// pointer under a leaf mutex and then read freely; the retiring snapshot
/// dies when its last reader drops it). Grown out of TruthInference::Run's
/// buffer-swap rotation: instead of two buffers swapped inside one EM pass,
/// an unbounded chain of copy-on-write snapshots swapped at publish points.
struct InferenceSnapshot {
  /// Publish sequence number, starting at 1 for the initial (empty) publish.
  uint64_t epoch = 0;
  /// Answers absorbed by the engine when this snapshot was built; the
  /// staleness of a serving decision is answers_enqueued - answers_applied.
  /// With `generation` it is the benefit index key's engine half, as
  /// IncrementalTruthInference::num_answers (DESIGN.md §16).
  uint64_t answers_applied = 0;
  /// Per-task inference epochs at publish time; the next publish shares a
  /// task's posterior copy-on-write while its epoch is unchanged.
  std::vector<uint64_t> task_epochs;
  /// Per-task benefit bound inputs at publish time (DESIGN.md §16), as
  /// IncrementalTruthInference::truth_entropy and task_answered. Flat, like
  /// task_epochs: a cold index rebuild reads them for every task, and one
  /// pointer chase per task into `tasks` would cost more than the bound.
  std::vector<double> truth_entropy;
  std::vector<uint8_t> answered;
  /// The engine's invalidation generation at publish time (DESIGN.md §16):
  /// a full re-inference replaces every posterior without bumping the task
  /// epochs, so both the copy-on-write sharing below and the index key on
  /// the serving path must compare the generation too.
  uint64_t generation = 0;
  std::vector<std::shared_ptr<const TaskPosteriorSnapshot>> tasks;
  std::vector<std::shared_ptr<const WorkerSnapshot>> workers;
};

/// One validated answer awaiting application to the inference engine.
struct PendingAnswer {
  size_t worker = 0;
  size_t task = 0;
  size_t choice = 0;
};

struct InferenceServiceOptions {
  /// Bound on answers enqueued but not yet applied; producers block
  /// (backpressure) once the queue is full. Must be >= 1.
  size_t queue_capacity = 1024;
  /// Answers applied per state-lock acquisition: the service drains up to
  /// this many per cycle before publishing, so a burst amortizes both the
  /// exclusive lock and the snapshot copy.
  size_t max_batch = 256;
};

/// Staleness observability (ConcurrentDocsSystem::async_stats() and
/// perfbench surface these). Each field is an independent sample, not a
/// consistent snapshot.
struct InferenceServiceStats {
  uint64_t snapshot_epoch = 0;
  uint64_t publishes = 0;
  uint64_t answers_enqueued = 0;
  uint64_t answers_applied = 0;
  uint64_t answers_pending = 0;
  /// Times a producer blocked on a full queue (backpressure events).
  uint64_t enqueue_waits = 0;
  /// Wall time between the two most recent publishes, microseconds.
  double last_publish_gap_us = 0.0;
};

/// The background inference thread (DESIGN.md §15): consumes submitted
/// answers from a bounded MPSC queue, applies them to the owner's engine via
/// the `apply` callback (which runs retro-updates and the periodic full EM
/// under the owner's exclusive state lock), and publishes the resulting
/// InferenceSnapshot. The serving path never waits on the apply: it reads
/// snapshot() — a leaf-mutex pointer copy — and scores against that.
///
/// Lock discipline (DESIGN.md §14/§15): queue_mutex_ and snapshot_mutex_ are
/// leaves of the serving hierarchy. The service thread holds NEITHER while
/// inside `apply` (which takes the state lock), and producers hold no state
/// lock while enqueueing — so the queue mutex EXCLUDES the state lock by
/// construction and a full queue can never deadlock against a running EM.
class InferenceService {
 public:
  /// Applies one FIFO batch to the owner's engine and returns the fresh
  /// snapshot to publish. Runs exclusively on the service thread; the owner
  /// acquires its own locks inside. An empty batch must still return a
  /// snapshot (forced republish after an out-of-band mutation).
  using ApplyFn = std::function<std::shared_ptr<const InferenceSnapshot>(
      const std::vector<PendingAnswer>&)>;

  explicit InferenceService(ApplyFn apply, InferenceServiceOptions options = {});
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Spawns the service thread. Call after the owner published the initial
  /// snapshot with Publish(); idempotent is NOT required — call once.
  void Start();

  /// Drains the queue (every enqueued answer is applied and published), then
  /// joins the thread. Producers must have quiesced first: an Enqueue racing
  /// Stop() may be dropped. Idempotent.
  void Stop();

  /// Installs `snapshot` as the current one (the owner's initial publish,
  /// made under its own locks before serving starts).
  void Publish(std::shared_ptr<const InferenceSnapshot> snapshot);

  /// The current snapshot; never nullptr after the initial Publish(). A leaf
  /// lock copy — callers keep the shared_ptr for the whole scoring pass.
  std::shared_ptr<const InferenceSnapshot> snapshot() const;

  /// Queues one validated answer, blocking while the queue is at capacity
  /// (backpressure). The caller must hold no lock the apply path takes.
  void Enqueue(const PendingAnswer& answer);

  /// Quiesce barrier: returns once every answer enqueued before the call is
  /// applied AND visible in a published snapshot.
  void Drain();

  /// Forces an apply/publish cycle (possibly with an empty batch) and waits
  /// for it — the owner calls this after mutating inference state outside
  /// the queue (worker reseed, forced full inference).
  void RequestRepublish();

  InferenceServiceStats stats() const;

 private:
  void ServiceLoop();

  const ApplyFn apply_;
  const InferenceServiceOptions options_;

  /// Guards the queue, sequence counters, and lifecycle flags. Leaf with
  /// respect to the owner's state lock: never held across apply_.
  mutable Mutex queue_mutex_;
  std::vector<PendingAnswer> queue_ DOCS_GUARDED_BY(queue_mutex_);
  /// FIFO cursor into queue_ (drained in batches; compacted when empty).
  size_t queue_head_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t enqueued_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t applied_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  /// applied_seq_ as of the latest publish: Drain() waits on this, so a
  /// drained caller is guaranteed a snapshot that includes its answers.
  uint64_t published_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t publishes_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t enqueue_waits_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  double last_publish_gap_us_ DOCS_GUARDED_BY(queue_mutex_) = 0.0;
  bool republish_pending_ DOCS_GUARDED_BY(queue_mutex_) = false;
  bool stop_ DOCS_GUARDED_BY(queue_mutex_) = false;
  bool started_ DOCS_GUARDED_BY(queue_mutex_) = false;
  std::chrono::steady_clock::time_point last_publish_time_
      DOCS_GUARDED_BY(queue_mutex_);
  CondVar not_empty_;
  CondVar not_full_;
  CondVar progress_;

  /// Leaf of the whole serving hierarchy: guards only the snapshot pointer.
  /// Readers copy the shared_ptr and release immediately.
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const InferenceSnapshot> snapshot_
      DOCS_GUARDED_BY(snapshot_mutex_);

  std::thread thread_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_INFERENCE_SERVICE_H_

#ifndef DOCS_CORE_DURABLE_DOCS_SYSTEM_H_
#define DOCS_CORE_DURABLE_DOCS_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/concurrent_docs_system.h"
#include "storage/answer_wal.h"

namespace docs::core {

struct DurableOptions {
  /// Recovery directory; holds `state.ckpt` (checkpoint) and `answers.wal`.
  std::string dir;
  /// Checkpoint + WAL-truncate automatically after this many applied
  /// answers; 0 = only on explicit Checkpoint() calls.
  size_t checkpoint_every = 0;
  /// Bound on the (worker, request_id) dedup window. Retries older than
  /// this many accepted submissions are no longer recognized as duplicates
  /// — the bound is the exactly-once horizon, sized far beyond any client's
  /// in-flight window.
  size_t dedup_window = 1 << 16;
};

/// Durability counters (monotonic since Recover()).
struct DurableStats {
  uint64_t wal_appends = 0;          ///< records durably appended
  uint64_t wal_append_failures = 0;  ///< submits rejected: WAL unavailable
  uint64_t answers_applied = 0;      ///< submits applied to the facade
  uint64_t answers_deduped = 0;      ///< retries answered from the window
  uint64_t answers_recovered = 0;    ///< answers replayed from the WAL tail
  uint64_t checkpoints = 0;          ///< checkpoint + truncation cycles
  uint64_t wal_records = 0;          ///< records physically in the WAL now
};

/// Durable, exactly-once layer over ConcurrentDocsSystem (DESIGN.md §12).
///
/// Every SubmitAnswer is appended to a write-ahead log and flushed *before*
/// it is applied; only then is it acknowledged. A client that never saw the
/// ack retries with the same request_id and is answered from a bounded
/// (worker, request_id) → status window without double-applying. Recover()
/// reconstructs the exact pre-crash state: latest checkpoint, then the WAL
/// tail (worker registrations in original order, then answers), then the
/// carried dedup window — bit-identical posteriors, verified by the chaos
/// suite.
///
/// Lock order: the durable mutex is taken strictly outside the facade's
/// lock. RequestTasks for an already-registered worker goes through the
/// facade alone — the WAL stays entirely off the warm serving path. With
/// the facade in async-inference mode (DESIGN.md §15) the ordering
/// append+flush → enqueue → ack holds because the durable mutex is held
/// across the WAL append and the facade submit: the answer is durable
/// before the inference service ever sees it, and the ack only goes out
/// after the books recorded it. Checkpoints quiesce the service (the
/// facade drains before saving), so WAL truncation never strands an acked,
/// queued answer.
class DurableDocsSystem {
 public:
  /// `system` must outlive this object. The facade must not be mutated
  /// behind the durable layer's back once serving starts: registrations and
  /// submissions must flow through RequestTasks/SubmitAnswer here or they
  /// will not survive a crash.
  DurableDocsSystem(ConcurrentDocsSystem* system, DurableOptions options);

  /// One-shot startup recovery; must succeed before the first serve. On an
  /// empty directory this is a no-op bootstrap (fresh WAL). With state on
  /// disk it requires a facade that has not had AddTasks called, loads the
  /// checkpoint, replays the WAL tail, and rebuilds the dedup window.
  /// Idempotent failure: a failed Recover leaves no WAL handle, so it can
  /// be retried after the cause clears.
  [[nodiscard]] Status Recover() DOCS_EXCLUDES(mutex_);
  bool recovered() const { return recovered_.load(std::memory_order_acquire); }

  /// Exactly-once submit. A (worker_id, request_id) pair already in the
  /// dedup window is acknowledged with its originally recorded status code
  /// without touching state; a fresh pair is WAL-appended + flushed first
  /// and rejected as kUnavailable (retryable, state untouched) if the log
  /// cannot take it. request_id 0 opts out of dedup (v1 peers).
  [[nodiscard]] Status SubmitAnswer(const std::string& worker_id, size_t task,
                                    size_t choice, uint64_t request_id)
      DOCS_EXCLUDES(mutex_);

  /// Serve a task request. Known workers are served lock-free with respect
  /// to the durable layer (facade lock only). A first-contact worker is
  /// durably registered — `reg` record appended + flushed before the index
  /// is assigned — so recovery reproduces registration order. With no tasks
  /// ingested the request fails with FailedPrecondition and logs nothing.
  [[nodiscard]] Status RequestTasks(const std::string& worker_id, size_t k,
                                    std::vector<size_t>* tasks)
      DOCS_EXCLUDES(mutex_);

  /// Checkpoint + WAL truncation: saves the full facade state, then
  /// atomically replaces the WAL with just the live dedup window. A crash
  /// between the two steps is safe — replaying the stale WAL on top of the
  /// new checkpoint rejects each answer as a duplicate, which recovery
  /// records in the window instead of double-applying.
  [[nodiscard]] Status Checkpoint() DOCS_EXCLUDES(mutex_);

  DurableStats stats() const;

  /// The wrapped facade, for reads and non-durable calls (ExpireLeases,
  /// stats). Mutating registrations/answers through it bypasses the WAL.
  ConcurrentDocsSystem* facade() { return system_; }

  const std::string& checkpoint_path() const { return checkpoint_path_; }
  const std::string& wal_path() const { return wal_path_; }

 private:
  struct DedupEntry {
    std::string worker_id;
    uint64_t request_id = 0;
    StatusCode code = StatusCode::kOk;
  };

  static std::string DedupKey(const std::string& worker_id,
                              uint64_t request_id) {
    // request_id digits + '#' + raw id: unambiguous because the digit run
    // contains no '#'.
    return std::to_string(request_id) + '#' + worker_id;
  }

  /// Inserts into the window, evicting FIFO past options_.dedup_window.
  void RecordDedupLocked(const std::string& worker_id, uint64_t request_id,
                         StatusCode code) DOCS_REQUIRES(mutex_);
  [[nodiscard]] Status CheckpointLocked() DOCS_REQUIRES(mutex_);

  ConcurrentDocsSystem* system_;
  DurableOptions options_;
  std::string checkpoint_path_;
  std::string wal_path_;

  /// Durable-layer lock; taken strictly OUTSIDE (before) every facade lock
  /// — CheckpointLocked and the replay path call into the facade while
  /// holding it, and the facade never calls back up into this layer.
  mutable Mutex mutex_;
  /// null until Recover() succeeds; the WAL itself is thread-compatible and
  /// relies entirely on this pointer's guard for cross-thread use.
  std::unique_ptr<storage::AnswerWal> wal_ DOCS_GUARDED_BY(mutex_)
      DOCS_PT_GUARDED_BY(mutex_);
  std::deque<DedupEntry> window_ DOCS_GUARDED_BY(mutex_);  ///< FIFO, oldest 1st
  std::unordered_map<std::string, StatusCode> window_index_
      DOCS_GUARDED_BY(mutex_);
  size_t answers_since_checkpoint_ DOCS_GUARDED_BY(mutex_) = 0;

  std::atomic<bool> recovered_{false};
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_append_failures_{0};
  std::atomic<uint64_t> answers_applied_{0};
  std::atomic<uint64_t> answers_deduped_{0};
  std::atomic<uint64_t> answers_recovered_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> wal_records_{0};
};

}  // namespace docs::core

#endif  // DOCS_CORE_DURABLE_DOCS_SYSTEM_H_

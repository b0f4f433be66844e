#include "core/durable_docs_system.h"

#include <fstream>
#include <utility>

#include "common/logging.h"

namespace docs::core {
namespace {

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.is_open();
}

}  // namespace

DurableDocsSystem::DurableDocsSystem(ConcurrentDocsSystem* system,
                                     DurableOptions options)
    : system_(system),
      options_(std::move(options)),
      checkpoint_path_(options_.dir + "/state.ckpt"),
      wal_path_(options_.dir + "/answers.wal") {}

Status DurableDocsSystem::Recover() {
  MutexLock lock(&mutex_);
  if (recovered_.load(std::memory_order_relaxed)) {
    return FailedPreconditionError("Recover() already ran");
  }

  storage::AnswerWal::Contents contents;
  StatusOr<storage::AnswerWal> wal =
      storage::AnswerWal::Open(wal_path_, &contents);
  if (!wal.ok()) return wal.status();

  if (FileExists(checkpoint_path_)) {
    Status loaded = system_->LoadCheckpoint(checkpoint_path_);
    if (!loaded.ok()) return loaded;
  } else if (!contents.records.empty() && system_->num_tasks() == 0) {
    // Answers exist but the campaign they belong to is gone: replaying them
    // into an empty system would silently discard every one.
    return DataLossError("WAL " + wal_path_ +
                         " has records but no checkpoint/tasks to replay into");
  }

  // Replay the tail in append order. Registrations re-mint worker indices
  // in their original order (float summation order depends on it); answers
  // go through the validated submit path; dedup records re-arm the window
  // for retries of already-checkpointed submissions.
  using Record = storage::AnswerWal::Record;
  for (const Record& record : contents.records) {
    switch (record.kind) {
      case Record::Kind::kRegister:
        system_->WithLocked([&](DocsSystem& system) {
          (void)system.WorkerIndex(record.worker_id);
          return 0;
        });
        break;
      case Record::Kind::kDedup:
        RecordDedupLocked(record.worker_id, record.request_id, record.code);
        break;
      case Record::Kind::kAnswer: {
        Status applied =
            system_->SubmitAnswer(record.worker_id, record.task,
                                  static_cast<size_t>(record.choice));
        RecordDedupLocked(record.worker_id, record.request_id, applied.code());
        if (applied.ok()) {
          answers_recovered_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Deterministic re-rejection (the record was logged before its
          // validation outcome was known) or a checkpoint/truncate crash
          // window duplicate. Either way the window carries the code so a
          // client retry is still answered consistently.
          DOCS_LOG(Warning) << "WAL replay: answer dropped: "
                            << applied.ToString();
        }
        break;
      }
    }
  }
  if (contents.tail_truncated) {
    DOCS_LOG(Warning) << "WAL " << wal_path_
                      << ": torn tail truncated at last valid record";
  }

  wal_ = std::make_unique<storage::AnswerWal>(std::move(wal).value());
  wal_records_.store(wal_->record_count(), std::memory_order_relaxed);
  answers_since_checkpoint_ = 0;
  recovered_.store(true, std::memory_order_release);
  return OkStatus();
}

Status DurableDocsSystem::SubmitAnswer(const std::string& worker_id,
                                       size_t task, size_t choice,
                                       uint64_t request_id) {
  MutexLock lock(&mutex_);
  if (wal_ == nullptr) {
    return FailedPreconditionError("DurableDocsSystem not recovered");
  }
  if (request_id != 0) {
    auto hit = window_index_.find(DedupKey(worker_id, request_id));
    if (hit != window_index_.end()) {
      answers_deduped_.fetch_add(1, std::memory_order_relaxed);
      if (hit->second == StatusCode::kOk) return OkStatus();
      return Status(hit->second, "duplicate submit (answered from dedup "
                                 "window with original status)");
    }
  }

  // WAL first: once the flush returns the answer survives a crash, so the
  // ack we send after applying can never be a lie.
  Status logged = wal_->AppendAnswer(worker_id, request_id, task,
                                     static_cast<uint32_t>(choice));
  if (!logged.ok()) {
    wal_append_failures_.fetch_add(1, std::memory_order_relaxed);
    // State untouched; the client should retry (same request_id) once the
    // log is writable again.
    return UnavailableError("answer log unavailable: " + logged.ToString());
  }
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  wal_records_.store(wal_->record_count(), std::memory_order_relaxed);

  Status applied = system_->SubmitAnswer(worker_id, task, choice);
  if (request_id != 0) {
    RecordDedupLocked(worker_id, request_id, applied.code());
  }
  if (!applied.ok()) return applied;

  answers_applied_.fetch_add(1, std::memory_order_relaxed);
  if (options_.checkpoint_every > 0 &&
      ++answers_since_checkpoint_ >= options_.checkpoint_every) {
    Status saved = CheckpointLocked();
    if (!saved.ok()) {
      // The answer itself is durable (WAL'd); a failed periodic checkpoint
      // only delays truncation. Log and keep serving.
      DOCS_LOG(Warning) << "periodic checkpoint failed: " << saved.ToString();
      answers_since_checkpoint_ = 0;  // back off until the next full period
    }
  }
  return OkStatus();
}

Status DurableDocsSystem::RequestTasks(const std::string& worker_id, size_t k,
                                       std::vector<size_t>* tasks) {
  if (!recovered_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("DurableDocsSystem not recovered");
  }
  // Warm path: a known worker is served through the facade alone — no
  // durable mutex, no WAL I/O. Routing through the facade's own RequestTasks
  // (not WithLocked + SelectTasks) matters in async mode: the facade serves
  // a snapshot-servable worker without the state lock, so a running EM pass
  // never blocks this request (DESIGN.md §15).
  if (system_->KnowsWorker(worker_id)) {
    *tasks = system_->RequestTasks(worker_id, k);
    return OkStatus();
  }

  // Before ingest there is nothing to grant, and a logged registration
  // would leave a WAL that the next Recover() rejects as data loss.
  if (system_->num_tasks() == 0) {
    return FailedPreconditionError("no tasks ingested");
  }

  // First contact: the registration must be durable before the index is
  // assigned, or recovery would renumber workers and change inference's
  // summation order.
  MutexLock lock(&mutex_);
  if (system_->KnowsWorker(worker_id)) {
    // Another thread registered meanwhile.
    *tasks = system_->RequestTasks(worker_id, k);
    return OkStatus();
  }
  Status logged = wal_->AppendRegistration(worker_id);
  if (!logged.ok()) {
    return UnavailableError("answer log unavailable: " + logged.ToString());
  }
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  wal_records_.store(wal_->record_count(), std::memory_order_relaxed);
  *tasks = system_->RequestTasks(worker_id, k);
  return OkStatus();
}

Status DurableDocsSystem::Checkpoint() {
  MutexLock lock(&mutex_);
  if (wal_ == nullptr) {
    return FailedPreconditionError("DurableDocsSystem not recovered");
  }
  return CheckpointLocked();
}

Status DurableDocsSystem::CheckpointLocked() {
  Status saved = system_->SaveCheckpoint(checkpoint_path_);
  if (!saved.ok()) return saved;
  // Carry the dedup window across the truncation: answers before the
  // checkpoint are now owned by the checkpoint file, but their request_ids
  // must keep deduping in-flight retries.
  std::vector<storage::AnswerWal::Record> carry;
  carry.reserve(window_.size());
  for (const DedupEntry& entry : window_) {
    storage::AnswerWal::Record record;
    record.kind = storage::AnswerWal::Record::Kind::kDedup;
    record.worker_id = entry.worker_id;
    record.request_id = entry.request_id;
    record.code = entry.code;
    carry.push_back(std::move(record));
  }
  Status reset = wal_->ResetTo(carry);
  if (!reset.ok()) return reset;
  wal_records_.store(wal_->record_count(), std::memory_order_relaxed);
  answers_since_checkpoint_ = 0;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

void DurableDocsSystem::RecordDedupLocked(const std::string& worker_id,
                                          uint64_t request_id,
                                          StatusCode code) {
  if (request_id == 0) return;
  if (!window_index_.emplace(DedupKey(worker_id, request_id), code).second) {
    return;  // already present (replay after a checkpoint/truncate crash)
  }
  window_.push_back({worker_id, request_id, code});
  while (window_.size() > options_.dedup_window) {
    const DedupEntry& oldest = window_.front();
    window_index_.erase(DedupKey(oldest.worker_id, oldest.request_id));
    window_.pop_front();
  }
}

DurableStats DurableDocsSystem::stats() const {
  DurableStats out;
  out.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  out.wal_append_failures =
      wal_append_failures_.load(std::memory_order_relaxed);
  out.answers_applied = answers_applied_.load(std::memory_order_relaxed);
  out.answers_deduped = answers_deduped_.load(std::memory_order_relaxed);
  out.answers_recovered = answers_recovered_.load(std::memory_order_relaxed);
  out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  out.wal_records = wal_records_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace docs::core

#include "core/docs_system.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "common/check.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace docs::core {

DocsSystem::DocsSystem(const kb::KnowledgeBase* knowledge_base,
                       DocsSystemOptions options)
    : kb_(knowledge_base),
      options_(std::move(options)),
      dve_(knowledge_base, options_.linker) {
  // One knob steers every hot loop: a nonzero system-level thread count
  // overrides the embedded engines' settings. The pool is shared too — the
  // periodic re-inference runs on ScoringPool() rather than letting the
  // embedded engine build a second hardware-sized pool of its own.
  if (options_.num_threads != 0) {
    options_.truth_inference.num_threads = options_.num_threads;
  }
}

ThreadPool* DocsSystem::ScoringPool() {
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->num_threads() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

BenefitIndex* DocsSystem::IndexRow(size_t worker) {
  if (benefit_index_.size() <= worker) benefit_index_.resize(worker + 1);
  return &benefit_index_[worker];
}

DocsSystem::ScoringPass DocsSystem::LivePass(size_t worker,
                                             ShardScratch* scratch) const {
  ScoringPass pass;
  pass.scratch = scratch;
  pass.worker_epoch = inference_->worker_epoch(worker);
  pass.generation = inference_->generation();
  pass.answers = inference_->num_answers();
  pass.answered = &inference_->answered_tasks(worker);
  StageWorker(inference_->worker_quality(worker).quality, &pass, scratch);
  return pass;
}

DocsSystem::ScoringPass DocsSystem::SnapshotPass(
    const InferenceSnapshot& snap, const WorkerSnapshot& view,
    ShardScratch* scratch) const {
  // The index key of a snapshot pass is the one its publish copied: a live
  // engine and a snapshot under the same key describe one state, so an
  // index built from either serves both (DESIGN.md §16).
  ScoringPass pass;
  pass.snap = &snap;
  pass.scratch = scratch;
  pass.worker_epoch = view.epoch;
  pass.generation = snap.generation;
  pass.answers = snap.answers_applied;
  pass.answered = &view.answered;
  StageWorker(view.quality, &pass, scratch);
  return pass;
}

void DocsSystem::StageWorker(const std::vector<double>& worker_quality,
                             ScoringPass* pass, ShardScratch* scratch) const {
  // kUncertainty ignores the worker; the others read her quality vector.
  if (options_.selection_rule == SelectionRule::kUncertainty) return;
  pass->quality = &worker_quality;
  if (options_.selection_rule == SelectionRule::kDomainMax) return;
  if (options_.selection_rule == SelectionRule::kQualityBlind) {
    // Ablation: flatten the worker's profile to its mean — the benefit
    // still reacts to confidence but no longer to domain match.
    double mean = 0.0;
    for (double q : worker_quality) mean += q;
    mean /= std::max<size_t>(1, worker_quality.size());
    scratch->quality.assign(worker_quality.size(), mean);
    pass->quality = &scratch->quality;
  }
  // Per request: clamp and wrong-answer factors once per (choice count,
  // domain) instead of once per task.
  pass->factors = &scratch->factors;
  pass->factors->Hoist(*pass->quality, options_.truth_inference.quality_clamp,
                       support_.num_domains(), support_.choice_counts());
}

double DocsSystem::Score(const ScoringPass& pass, size_t task) const {
  if (options_.selection_rule == SelectionRule::kDomainMax) {
    // D-Max: rank by domain match sum_k r_k q^w_k only.
    const std::vector<double>& quality = *pass.quality;
    double match = 0.0;
    for (size_t d = 0; d < quality.size(); ++d) {
      match += tasks_[task].domain_vector[d] * quality[d];
    }
    return match;
  }
  // The one difference between the serving paths: where M^(i) and H(s_i)
  // live.
  const double truth_entropy = pass.snap != nullptr
                                   ? pass.snap->truth_entropy[task]
                                   : inference_->truth_entropy(task);
  if (options_.selection_rule == SelectionRule::kUncertainty) {
    // Ablation: most ambiguous tasks first, worker ignored.
    return truth_entropy;
  }
  const MatrixView truth_matrix = pass.snap != nullptr
                                      ? pass.snap->tasks[task]->truth_matrix
                                      : inference_->truth_matrix(task);
  return TaskBenefit(support_, task, *pass.factors, truth_matrix,
                     truth_entropy);
}

namespace {

// Requests every cache line of [data, data + bytes) for reading.
void PrefetchBytes(const void* data, size_t bytes) {
#if defined(__GNUC__)
  constexpr uintptr_t kLine = 64;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data) & ~(kLine - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(data) + bytes;
  for (uintptr_t line = begin; line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace

void DocsSystem::Prefetch(const ScoringPass& pass, size_t task) const {
  const size_t nnz = support_.support_size(task);
  PrefetchBytes(support_.domains(task), nnz * sizeof(uint32_t));
  PrefetchBytes(support_.weights(task), nnz * sizeof(double));
  // A snapshot's M^(i) sits behind a per-task pointer; the arena's address
  // is plain arithmetic.
  if (pass.snap == nullptr) {
    const std::span<const double> matrix = inference_->truth_matrix(task).data();
    PrefetchBytes(matrix.data(), matrix.size_bytes());
  }
}

BenefitBounds DocsSystem::Bounds(const ScoringPass& pass, size_t task) const {
  // Same source split as Score: the snapshot carries copies of the engine's
  // bound inputs, so a snapshot pass never reads live state.
  const InferenceSnapshot* snap = pass.snap;
  const double truth_entropy = snap != nullptr
                                   ? snap->truth_entropy[task]
                                   : inference_->truth_entropy(task);
  const bool answered = snap != nullptr ? snap->answered[task] != 0
                                        : inference_->task_answered(task);
  return BenefitBoundsOf(support_, task, *pass.factors, truth_entropy,
                         answered);
}

void DocsSystem::ScoreEntries(const ScoringPass& pass,
                              std::vector<BenefitIndex::Entry>* entries,
                              ThreadPool* pool) const {
  std::vector<BenefitIndex::Entry>& scored = *entries;
  ParallelFor(pool, scored.size(), [&](size_t s) {
    scored[s].value = Score(pass, scored[s].task);
  });
}

size_t DocsSystem::SeedEntries(const ScoringPass& pass, size_t k,
                               const std::vector<uint8_t>& eligible,
                               std::vector<BenefitIndex::Entry>* entries,
                               ThreadPool* pool) const {
  if (pass.factors == nullptr) {
    // No bounds for this rule: exact entries.
    ScoreEntries(pass, entries, pool);
    return entries->size();
  }
  std::vector<BenefitIndex::Entry>& seeded = *entries;
  // One sweep: the bound of each row and the floor. The floor is the k-th
  // largest lower bound (the closed forms of unanswered tasks): at most the
  // k-th selected score whenever those k tasks are eligible (the common
  // case: only leases and caps make an unanswered task ineligible). A row
  // whose upper bound reaches it is one the walk would resolve, bar the few
  // between the floor and the k-th score, so it is scored below, in task
  // order, rather than one CPU-cache-cold row at a time in the walk. It
  // exists for the weak-bound regime: many answered tasks whose s_i stays
  // near uniform (answers from near-random workers), whose H(s_i) bounds all
  // reach the top k and would otherwise each be resolved by the walk at 2-3x
  // a batch score. A floor that overshoots costs speed only: the walk
  // resolves what it still needs.
  //
  // The scratch is sized once, for the largest batch a rebuild can hold, so
  // a cold request grows nothing after the worker's first one.
  std::vector<double>& top = pass.scratch->seed_floor;
  std::vector<uint32_t>& resolve = pass.scratch->resolve;
  top.reserve(std::min(k, seeded.size()));
  resolve.reserve(seeded.size());
  KthLargest floor(k, &top);
  for (BenefitIndex::Entry& slot : seeded) {
    const BenefitBounds bounds = Bounds(pass, slot.task);
    slot.value = bounds.upper;
    slot.bound = true;
    floor.Offer(bounds.lower);
  }
  const double threshold = floor.value();
  resolve.clear();
  for (size_t s = 0; s < seeded.size(); ++s) {
    if (seeded[s].value >= threshold && eligible[seeded[s].task] != 0) {
      resolve.push_back(static_cast<uint32_t>(s));
    }
  }
  // Scoring a row mostly waits on memory: its M^(i) block and CSR row.
  // Their addresses are plain arithmetic, so the rows a few places ahead
  // are requested while this one is scored.
  constexpr size_t kPrefetchAhead = 4;
  ParallelFor(pool, resolve.size(), [&](size_t x) {
    if (x + kPrefetchAhead < resolve.size()) {
      Prefetch(pass, seeded[resolve[x + kPrefetchAhead]].task);
    }
    BenefitIndex::Entry& slot = seeded[resolve[x]];
    const double exact = Score(pass, slot.task);
    DOCS_DCHECK(exact <= slot.value)
        << "benefit bound " << slot.value << " below the exact score "
        << exact << " of task " << slot.task;
    slot.value = exact;
    slot.bound = false;
  });
  return resolve.size();
}

std::vector<size_t> DocsSystem::Rank(BenefitIndex* index, size_t k,
                                     const ScoringPass& pass,
                                     const std::vector<uint8_t>& eligible,
                                     ThreadPool* pool) {
  const size_t n = tasks_.size();
  DOCS_CHECK_EQ(eligible.size(), n);
  uint64_t rows_scored = 0;
  if (!index->Fresh(pass.worker_epoch, pass.generation, pass.answers, n)) {
    // Rebuilds exclude the worker's answered tasks — they can never become
    // eligible again, so indexing them would be pure waste, and as bound
    // entries (an answered task's bound is H(s_i)) they would sit near the
    // top and be skipped by every walk. The list only grows via her own
    // submissions, each of which moves the key. A snapshot pass reads the
    // list as of its publish (the books run ahead of it by the queue depth;
    // the eligibility bitmap masks the difference).
    index->Rebuild(n, pass.worker_epoch, pass.generation, pass.answers,
                   *pass.answered,
                   [&](std::vector<BenefitIndex::Entry>* entries) {
                     rows_scored =
                         SeedEntries(pass, k, eligible, entries, pool);
                   });
    benefit_index_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
#if DOCS_DEBUG_CHECKS
  index->CheckInvariant();
#endif
  // One allocation for the result. Capped at the index size, not k: a
  // caller may ask for more tasks than exist.
  std::vector<size_t> selected;
  selected.reserve(std::min(k, index->size()));
  // The walk skips ineligible entries (leased-out or capped tasks, the
  // difference between the books and a snapshot's answered set) unscored.
  const uint64_t pops = index->Select(
      eligible,
      [&](size_t task) {
        ++rows_scored;
        return Score(pass, task);
      },
      k, &selected);
  benefit_index_pops_.fetch_add(pops, std::memory_order_relaxed);
  if (rows_scored > 0) {
    benefit_cache_misses_.fetch_add(rows_scored, std::memory_order_relaxed);
  }
  // Request-level accounting: the whole pass — rebuild and walk alike — is
  // one lookup from the serving path's point of view: served entirely from
  // the index or not.
  if (index->size() > 0) {
    if (rows_scored > 0) {
      benefit_cache_request_misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      benefit_cache_request_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return selected;
}

Status DocsSystem::AddTasks(const std::vector<TaskInput>& inputs,
                            const std::vector<size_t>* known_truths) {
  if (inference_ != nullptr) {
    return FailedPreconditionError("AddTasks may be called once");
  }
  if (known_truths != nullptr && known_truths->size() != inputs.size()) {
    return InvalidArgumentError("known_truths size mismatch");
  }
  // All-or-nothing: validate every input before any DVE runs or any state
  // changes, so a rejected call leaves the system as it found it.
  for (const TaskInput& input : inputs) {
    if (input.num_choices < 2) {
      return InvalidArgumentError("tasks need at least 2 choices");
    }
  }
  // DVE (Section 3). The estimator reads only the immutable KB, and each
  // task writes only its own slot, so the vectors are bit-identical for any
  // thread count.
  std::vector<std::vector<double>> domain_vectors(inputs.size());
  ParallelFor(ScoringPool(), inputs.size(), [&](size_t i) {
    domain_vectors[i] = dve_.Estimate(inputs[i].text);
  });
  tasks_.reserve(inputs.size());
  known_truth_.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    Task task;
    task.domain_vector = std::move(domain_vectors[i]);
    // DVE postcondition (Eq. 1): everything downstream — golden selection,
    // TI, OTA — assumes the domain vector is a probability simplex.
    CheckSimplex(task.domain_vector, 1e-6, "DVE domain vector");
    task.num_choices = inputs[i].num_choices;
    tasks_.push_back(std::move(task));
    known_truth_.push_back(
        known_truths != nullptr ? static_cast<int>((*known_truths)[i]) : -1);
  }
  support_ = BenefitSupport(tasks_);

  // Golden tasks are chosen after DVE (Section 5.2). Only tasks whose truth
  // the requester knows are eligible; when no truths were given the golden
  // phase is disabled.
  is_golden_.assign(tasks_.size(), 0);
  if (known_truths != nullptr && options_.golden_count > 0) {
    golden_ = SelectGoldenTasks(tasks_, options_.golden_count);
    for (size_t idx : golden_.tasks) is_golden_[idx] = 1;
  }

  inference_ = std::make_unique<IncrementalTruthInference>(
      tasks_, options_.truth_inference);
  answers_per_task_.assign(tasks_.size(), 0);
  lease_count_.assign(tasks_.size(), 0);
  return OkStatus();
}

size_t DocsSystem::WorkerIndex(const std::string& external_id) {
  auto it = worker_index_.find(external_id);
  if (it != worker_index_.end()) return it->second;
  const size_t index = workers_.size();
  worker_index_.emplace(external_id, index);
  WorkerProfile profile;
  profile.external_id = external_id;
  profile.golden_done = golden_.tasks.empty();
  profile.golden_correct.assign(kb_->num_domains(), 0.0);
  profile.golden_total.assign(kb_->num_domains(), 0.0);
  workers_.push_back(std::move(profile));
  answered_.emplace_back();
  inference_->EnsureWorker(index);
  return index;
}

std::optional<size_t> DocsSystem::FindWorker(
    const std::string& external_id) const {
  auto it = worker_index_.find(external_id);
  if (it == worker_index_.end()) return std::nullopt;
  return it->second;
}

Status DocsSystem::LoadWorker(const std::string& external_id,
                              const storage::WorkerStore& store) {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  auto record = store.Get(external_id);
  if (!record.ok()) return record.status();
  // Validate before registering the worker: a record written against a
  // different domain count (an old KB revision, a foreign store) would later
  // index out of bounds inside the incremental quality updates.
  const size_t m = kb_->num_domains();
  if (record->quality.size() != m || record->weight.size() != m) {
    return InvalidArgumentError(
        "worker record for " + external_id + " spans " +
        std::to_string(record->quality.size()) + " quality / " +
        std::to_string(record->weight.size()) + " weight domains, KB has " +
        std::to_string(m));
  }
  const size_t worker = WorkerIndex(external_id);
  WorkerQuality quality;
  quality.quality = record->quality;
  quality.weight = record->weight;
  Status status = inference_->SetWorkerQuality(worker, quality);
  if (!status.ok()) return status;
  // A returning worker's quality profile is already known; skip the golden
  // probe.
  workers_[worker].golden_done = true;
  return OkStatus();
}

Status DocsSystem::SaveWorker(const std::string& external_id,
                              storage::WorkerStore* store) const {
  auto it = worker_index_.find(external_id);
  if (it == worker_index_.end()) {
    return NotFoundError("unknown worker: " + external_id);
  }
  const WorkerQuality& stats = inference_->worker_quality(it->second);
  storage::WorkerQualityRecord record;
  record.quality = stats.quality;
  record.weight = stats.weight;
  return store->Put(external_id, record);
}

std::vector<size_t> DocsSystem::SelectTasks(size_t worker, size_t k) {
  if (worker >= workers_.size() || inference_ == nullptr) return {};
  ++lease_clock_;
  WorkerProfile& profile = workers_[worker];

  // Golden phase first: probe the new worker's per-domain quality. The
  // books run ahead of the engine in async mode, so an acked-but-unapplied
  // golden answer is not re-granted. At most k are granted, k = 0 included.
  if (!profile.golden_done) {
    std::vector<size_t> pending;
    bool unanswered = false;
    for (size_t idx : golden_.tasks) {
      if (HasAnswered(worker, idx)) continue;
      unanswered = true;
      if (pending.size() == k) break;
      pending.push_back(idx);
    }
    if (unanswered) {
      GrantLeases(worker, pending);
      return pending;
    }
    // Every golden task is answered and the engine has absorbed each answer
    // (the async facade drains first while GoldenAwaitsApply holds), yet no
    // seed closed the phase: some golden task has no known truth, which only
    // a checkpoint can carry (known_truth < 0), so no seed can ever arrive.
    profile.golden_done = true;
  }

  // OTA over T - T(w), honoring the per-task redundancy cap if one is set.
  // Outstanding leases count as in-flight answers against the cap, so a task
  // already granted to enough workers is not over-assigned; abandoned grants
  // come back via ExpireLeases. All four rules share the same shape — rank
  // eligible tasks by score, take the top k — so they all route through the
  // per-worker benefit index (DESIGN.md §16).
  BuildEligibilityBitmap(worker, &serve_scratch_.eligible);
  const ScoringPass pass = LivePass(worker, &serve_scratch_);
  auto selected = Rank(IndexRow(worker), k, pass, serve_scratch_.eligible,
                       ScoringPool());
  GrantLeases(worker, selected);
  return selected;
}

void DocsSystem::BuildEligibilityBitmap(size_t worker,
                                        std::vector<uint8_t>* eligible) {
  // Starts all-eligible and masks the worker's booked tasks in O(|T(w)|) —
  // no per-task membership probes — in reusable storage so a warm request
  // allocates nothing. The books run ahead of the engine in async mode, so
  // an acked-but-unapplied answer is not re-granted.
  eligible->assign(tasks_.size(), 1);
  for (size_t answered : answered_[worker]) {
    (*eligible)[answered] = 0;
  }
  if (options_.max_answers_per_task > 0) {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (AtAnswerCap(i)) (*eligible)[i] = 0;
    }
  }
}

bool DocsSystem::GoldenAwaitsApply(size_t worker) const {
  if (worker >= workers_.size() || workers_[worker].golden_done) return false;
  bool unapplied = false;
  for (size_t idx : golden_.tasks) {
    if (!HasAnswered(worker, idx)) return false;
    unapplied = unapplied || !inference_->HasAnswered(worker, idx);
  }
  return unapplied;
}

bool DocsSystem::CanServeSharded(size_t worker) const {
  if (inference_ == nullptr || worker >= workers_.size()) return false;
  // The golden probe mutates worker profiles and (on completion) seeds the
  // quality vector — exclusive-path work.
  if (!workers_[worker].golden_done) return false;
  // The index row is allocated (deque growth) only on the exclusive path;
  // the sharded path may mutate its contents under the worker's stripe but
  // never the container.
  return benefit_index_.size() > worker;
}

void DocsSystem::BeginShardedSelect(size_t worker,
                                    std::vector<uint8_t>* eligible) {
  // Caller holds the assign lock: the clock tick and the lease-count reads
  // are serialized against every other grant and expiry.
  ++lease_clock_;
  BuildEligibilityBitmap(worker, eligible);
}

std::vector<size_t> DocsSystem::ScoreAndRank(size_t worker,
                                             ShardScratch& scratch, size_t k,
                                             ThreadPool* pool,
                                             const InferenceSnapshot* snap) {
  // The index row already exists (CanServeSharded, or BuildSnapshot for a
  // published worker); no IndexRow here — it may grow the container, which
  // only the exclusive lock permits. A snapshot pass reaches the index
  // through the pointer its publish carries.
  ScoringPass pass;
  BenefitIndex* index = nullptr;
  if (snap == nullptr) {
    pass = LivePass(worker, &scratch);
    index = &benefit_index_[worker];
  } else {
    const WorkerSnapshot& view = *snap->workers[worker];
    pass = SnapshotPass(*snap, view, &scratch);
    index = view.index;
  }
  // Eligibility was frozen into the scratch bitmap under the assign lock
  // (BeginShardedSelect).
  return Rank(index, k, pass, scratch.eligible, pool);
}

bool DocsSystem::CommitShardedSelect(size_t worker,
                                     std::vector<size_t>* selected,
                                     bool force) {
  // Between snapshot and commit other shards may have granted leases; a
  // selected task pushed to the redundancy cap in that window must not be
  // over-assigned. Under sequential driving this never fires, which keeps
  // the sharded path bit-identical to the monolithic SelectTasks.
  if (options_.max_answers_per_task > 0) {
    bool conflict = false;
    for (size_t task : *selected) {
      if (AtAnswerCap(task)) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      if (!force) return false;
      std::vector<size_t> kept;
      kept.reserve(selected->size());
      for (size_t task : *selected) {
        if (!AtAnswerCap(task)) kept.push_back(task);
      }
      *selected = std::move(kept);
    }
  }
  GrantLeases(worker, *selected);
  return true;
}

std::vector<double> DocsSystem::ScoreAllTasks(size_t worker) {
  std::vector<double> scores(tasks_.size(), 0.0);
  if (worker >= workers_.size() || inference_ == nullptr) return scores;
  ShardScratch scratch;
  const ScoringPass pass = LivePass(worker, &scratch);
  std::vector<BenefitIndex::Entry> entries(tasks_.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].task = static_cast<uint32_t>(i);
  }
  ScoreEntries(pass, &entries, ScoringPool());
  for (size_t i = 0; i < entries.size(); ++i) scores[i] = entries[i].value;
  return scores;
}

void DocsSystem::GrantLeases(size_t worker,
                             const std::vector<size_t>& granted) {
  if (options_.lease_duration == 0) return;
  const uint64_t deadline = lease_clock_ + options_.lease_duration;
  for (size_t task : granted) {
    auto [it, inserted] = leases_.try_emplace(LeaseKey(worker, task), deadline);
    if (inserted) {
      ++lease_count_[task];
    } else {
      it->second = deadline;  // Re-granted to the same worker: refresh.
    }
  }
}

void DocsSystem::ReleaseLease(size_t worker, size_t task) {
  if (leases_.empty()) return;
  auto it = leases_.find(LeaseKey(worker, task));
  if (it == leases_.end()) return;
  leases_.erase(it);
  --lease_count_[task];
}

std::vector<ExpiredLease> DocsSystem::ExpireLeases(uint64_t now) {
  std::vector<ExpiredLease> expired;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second <= now) {
      ExpiredLease lease;
      lease.worker = static_cast<size_t>(it->first >> 32);
      lease.task = static_cast<size_t>(it->first & 0xffffffffULL);
      lease.deadline = it->second;
      expired.push_back(lease);
      --lease_count_[lease.task];
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  // Hash-map iteration order is not part of the contract; sort so chaos
  // campaigns replay identically across runs and standard libraries.
  std::sort(expired.begin(), expired.end(),
            [](const ExpiredLease& a, const ExpiredLease& b) {
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.task < b.task;
            });
  return expired;
}

void DocsSystem::FinishGoldenPhase(size_t worker) {
  WorkerProfile& profile = workers_[worker];
  const size_t m = kb_->num_domains();
  WorkerQuality quality;
  quality.quality.resize(m);
  quality.weight.resize(m);
  const double smoothing = options_.golden_smoothing;
  const double default_quality = options_.truth_inference.default_quality;
  for (size_t k = 0; k < m; ++k) {
    // With golden_smoothing == 0 and no probe mass in domain k the ratio
    // would be 0/0; fall back to the default rather than minting a NaN seed.
    const double mass = profile.golden_total[k] + smoothing;
    quality.quality[k] =
        mass > 0.0
            ? (profile.golden_correct[k] + smoothing * default_quality) / mass
            : default_quality;
    quality.weight[k] = profile.golden_total[k];
  }
  DOCS_DCHECK_UNIT_INTERVAL(quality.quality, 1e-9,
                            "golden-phase quality seed");
  Status status = inference_->SetWorkerQuality(worker, quality);
  if (!status.ok()) {
    // Unreachable: the profile tallies are sized from the same KB the tasks
    // were vectorized against. Kept as a hard guard.
    DOCS_LOG(Warning) << "golden-phase seed rejected: " << status.ToString();
  }
  profile.golden_done = true;
}

Status DocsSystem::ValidateAnswer(size_t worker, size_t task,
                                  size_t choice) const {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  // The books' worker count, not workers_: the facade runs this under the
  // assign lock alone, which registration holds while it appends a book.
  if (worker >= answered_.size()) {
    return InvalidArgumentError("unknown worker " + std::to_string(worker));
  }
  // Bounds come first: a malformed task index must never reach
  // answers_per_task_[task] / tasks_[task] / is_golden_[task].
  if (task >= tasks_.size()) {
    return InvalidArgumentError("unknown task " + std::to_string(task));
  }
  if (choice >= tasks_[task].num_choices) {
    return OutOfRangeError("choice " + std::to_string(choice) +
                           " out of range for task " + std::to_string(task) +
                           " with " + std::to_string(tasks_[task].num_choices) +
                           " choices");
  }
  if (HasAnswered(worker, task)) {
    return AlreadyExistsError("duplicate answer from worker " +
                              std::to_string(worker) + " for task " +
                              std::to_string(task));
  }
  return OkStatus();
}

bool DocsSystem::HasAnswered(size_t worker, size_t task) const {
  const std::vector<size_t>& answered = answered_[worker];
  return std::binary_search(answered.begin(), answered.end(), task);
}

bool DocsSystem::AtAnswerCap(size_t task) const {
  return options_.max_answers_per_task > 0 &&
         answers_per_task_[task] + lease_count_[task] >=
             options_.max_answers_per_task;
}

void DocsSystem::RecordAnswer(size_t worker, size_t task) {
  std::vector<size_t>& answered = answered_[worker];
  answered.insert(std::upper_bound(answered.begin(), answered.end(), task),
                  task);
  ++answers_per_task_[task];
  ReleaseLease(worker, task);
}

Status DocsSystem::AbsorbAnswer(size_t worker, size_t task, size_t choice) {
  // Hard guard before anything is indexed: the engine range-checks the task
  // and the choice and refuses a duplicate. (No worker registers before
  // ingest, so this also covers a system without an engine.)
  if (worker >= workers_.size()) {
    return InternalError("answer from unregistered worker " +
                         std::to_string(worker));
  }
  WorkerProfile& profile = workers_[worker];
  const bool probing = !profile.golden_done;
  Status status = inference_->OnAnswer(worker, task, choice);
  if (!status.ok()) {
    return InternalError("inference rejected an accepted answer: " +
                         status.ToString());
  }

  if (probing && is_golden_[task] && known_truth_[task] >= 0) {
    const auto& r = tasks_[task].domain_vector;
    const bool correct = static_cast<int>(choice) == known_truth_[task];
    for (size_t k = 0; k < r.size(); ++k) {
      profile.golden_total[k] += r[k];
      if (correct) profile.golden_correct[k] += r[k];
    }
    ++profile.golden_answered;
    if (profile.golden_answered >= golden_.tasks.size()) {
      FinishGoldenPhase(worker);
    }
  }
  return OkStatus();
}

Status DocsSystem::ApplyAnswer(size_t worker, size_t task, size_t choice) {
  Status status = AbsorbAnswer(worker, task, choice);
  if (!status.ok()) return status;
  // Delayed full inference every z answers (Section 4.2), on the shared
  // scoring pool — the embedded engine must not stack a second hardware-sized
  // pool on top of ours. Both modes apply answers in ack order through here,
  // so the engine sees one operation sequence (DESIGN.md §15).
  if (options_.reinfer_every > 0 &&
      ++answers_since_reinfer_ >= options_.reinfer_every) {
    inference_->RunFullInference(ScoringPool());
    answers_since_reinfer_ = 0;
  }
  return OkStatus();
}

Status DocsSystem::SubmitAnswer(size_t worker, size_t task, size_t choice) {
  Status status = ValidateAnswer(worker, task, choice);
  if (!status.ok()) return status;
  status = ApplyAnswer(worker, task, choice);
  if (!status.ok()) return status;
  RecordAnswer(worker, task);
  return OkStatus();
}

std::shared_ptr<const InferenceSnapshot> DocsSystem::BuildSnapshot(
    const InferenceSnapshot* prev) {
  auto snap = std::make_shared<InferenceSnapshot>();
  snap->epoch = prev != nullptr ? prev->epoch + 1 : 1;
  if (inference_ == nullptr) return snap;
  snap->answers_applied = inference_->num_answers();
  const uint64_t generation = inference_->generation();
  snap->generation = generation;
  // A full re-inference moves every posterior and quality vector behind a
  // single generation bump, leaving the per-task epochs untouched — so every
  // copy-on-write share below must also require the generation unchanged, or
  // the new snapshot would alias stale state.
  const bool same_generation = prev != nullptr && prev->generation == generation;

  // Tasks copy-on-write: a task whose inference epoch is unchanged shares
  // the previous snapshot's immutable posterior; only the tasks the applied
  // batch (or EM pass) actually moved are copied.
  const size_t n = tasks_.size();
  snap->task_epochs.resize(n);
  snap->truth_entropy.resize(n);
  snap->answered.resize(n);
  snap->tasks.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t epoch = inference_->task_epoch(i);
    snap->task_epochs[i] = epoch;
    snap->truth_entropy[i] = inference_->truth_entropy(i);
    snap->answered[i] = inference_->task_answered(i);
    if (same_generation && i < prev->task_epochs.size() &&
        prev->task_epochs[i] == epoch) {
      snap->tasks[i] = prev->tasks[i];
      continue;
    }
    auto task_snap = std::make_shared<TaskPosteriorSnapshot>();
    task_snap->truth_matrix = Matrix(inference_->truth_matrix(i));
    snap->tasks[i] = std::move(task_snap);
  }

  snap->workers.resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    // IndexRow creates the row under the exclusive lock held here, so the
    // snapshot path never has to (row growth is exclusive-path work, exactly
    // as on the sharded sync path). The index's address is stable for the
    // system's lifetime (deque) — safe to publish, and the same in every
    // view of this worker.
    BenefitIndex* index = IndexRow(w);
    const uint64_t epoch = inference_->worker_epoch(w);
    const bool servable = workers_[w].golden_done;
    if (same_generation && w < prev->workers.size() &&
        prev->workers[w] != nullptr && prev->workers[w]->epoch == epoch &&
        prev->workers[w]->servable == servable) {
      snap->workers[w] = prev->workers[w];
      continue;
    }
    auto view = std::make_shared<WorkerSnapshot>();
    view->quality = inference_->worker_quality(w).quality;
    view->answered = inference_->answered_tasks(w);
    view->epoch = epoch;
    view->servable = servable;
    view->index = index;
    snap->workers[w] = std::move(view);
  }
  return snap;
}

void DocsSystem::OnAnswer(size_t worker, size_t task, size_t choice) {
  Status status = SubmitAnswer(worker, task, choice);
  if (!status.ok()) {
    DOCS_LOG(Warning) << "OnAnswer: " << status.ToString();
  }
}

std::vector<size_t> DocsSystem::InferredChoices() {
  if (inference_ == nullptr) return {};
  return inference_->InferredChoices();
}

void DocsSystem::RunFullInference() {
  if (inference_ == nullptr) return;
  inference_->RunFullInference(ScoringPool());
  answers_since_reinfer_ = 0;
}

std::vector<std::string> DocsSystem::WorkerIds() const {
  std::vector<std::string> ids;
  ids.reserve(workers_.size());
  for (const WorkerProfile& worker : workers_) {
    ids.push_back(worker.external_id);
  }
  return ids;
}

Status DocsSystem::SaveCheckpoint(const std::string& path) const {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  storage::StateCheckpoint checkpoint;
  checkpoint.tasks.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    storage::StateCheckpoint::TaskState task;
    task.domain_vector = tasks_[i].domain_vector;
    task.num_choices = tasks_[i].num_choices;
    task.known_truth = known_truth_[i];
    checkpoint.tasks.push_back(std::move(task));
  }
  checkpoint.golden_tasks = golden_.tasks;
  checkpoint.workers.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    storage::StateCheckpoint::WorkerState worker;
    worker.external_id = workers_[w].external_id;
    worker.golden_done = workers_[w].golden_done;
    const WorkerQuality& seed = inference_->worker_seed(w);
    worker.seed_quality = seed.quality;
    worker.seed_weight = seed.weight;
    checkpoint.workers.push_back(std::move(worker));
  }
  checkpoint.answers.reserve(inference_->answers().size());
  for (const Answer& answer : inference_->answers()) {
    checkpoint.answers.push_back({answer.task, answer.worker, answer.choice});
  }
  return storage::SaveStateCheckpoint(checkpoint, path);
}

Status DocsSystem::LoadCheckpoint(const std::string& path) {
  if (inference_ != nullptr) {
    return FailedPreconditionError("system already holds tasks");
  }
  auto checkpoint = storage::LoadStateCheckpoint(path);
  if (!checkpoint.ok()) return checkpoint.status();

  // Checkpoint contents are file data: validate them Status-grade here, up
  // front, because past this point they flow into CHECK-guarded code (the
  // incremental-TI constructor asserts on the domain vectors) and into
  // is_golden_ indexing. A corrupt file must surface as DataLossError, not
  // as an abort or an out-of-bounds write.
  for (size_t i = 0; i < checkpoint->tasks.size(); ++i) {
    const auto& task = checkpoint->tasks[i];
    // Every per-domain structure (worker quality, golden tallies, the
    // scoring support) is sized to the KB's domain count.
    if (task.domain_vector.size() != kb_->num_domains()) {
      return DataLossError("checkpoint task " + std::to_string(i) + " spans " +
                           std::to_string(task.domain_vector.size()) +
                           " domains, KB has " +
                           std::to_string(kb_->num_domains()));
    }
    if (task.num_choices < 2) {
      return DataLossError("checkpoint task " + std::to_string(i) + " has " +
                           std::to_string(task.num_choices) + " choices");
    }
    for (double r : task.domain_vector) {
      if (!std::isfinite(r) || r < -1e-9 || r > 1.0 + 1e-9) {
        return DataLossError("checkpoint task " + std::to_string(i) +
                             " has a corrupt domain vector entry " +
                             std::to_string(r));
      }
    }
  }
  for (size_t idx : checkpoint->golden_tasks) {
    if (idx >= checkpoint->tasks.size()) {
      return DataLossError("checkpoint golden task index " +
                           std::to_string(idx) + " out of range");
    }
  }

  tasks_.clear();
  known_truth_.clear();
  for (const auto& task : checkpoint->tasks) {
    Task restored;
    restored.domain_vector = task.domain_vector;
    restored.num_choices = task.num_choices;
    tasks_.push_back(std::move(restored));
    known_truth_.push_back(task.known_truth);
  }
  support_ = BenefitSupport(tasks_);
  golden_ = GoldenSelectionResult{};
  golden_.tasks = checkpoint->golden_tasks;
  is_golden_.assign(tasks_.size(), 0);
  for (size_t idx : golden_.tasks) is_golden_[idx] = 1;

  inference_ = std::make_unique<IncrementalTruthInference>(
      tasks_, options_.truth_inference);
  answers_per_task_.assign(tasks_.size(), 0);
  lease_count_.assign(tasks_.size(), 0);
  leases_.clear();  // Leases are volatile: a restore reclaims all grants.

  // Re-register workers in index order, restore their seed profiles and
  // golden progress flags.
  for (size_t w = 0; w < checkpoint->workers.size(); ++w) {
    const auto& stored = checkpoint->workers[w];
    const size_t index = WorkerIndex(stored.external_id);
    if (index != w) return DataLossError("worker index mismatch on restore");
    if (!stored.seed_quality.empty()) {
      WorkerQuality seed;
      seed.quality = stored.seed_quality;
      seed.weight = stored.seed_weight;
      Status seed_status = inference_->SetWorkerQuality(index, seed);
      if (!seed_status.ok()) {
        // Same policy as corrupt answer records: drop the bad seed (the
        // worker restarts from the default profile) instead of failing the
        // whole restore.
        DOCS_LOG(Warning) << "checkpoint seed for worker '"
                          << stored.external_id
                          << "' dropped: " << seed_status.ToString();
      }
    }
    workers_[index].golden_done =
        stored.golden_done || golden_.tasks.empty();
  }

  // Replay answers: inference state rebuilds exactly; golden tallies for
  // workers still mid-probe are recomputed from the golden answers. Records
  // that fail the same validation live submissions go through (out-of-range
  // task/choice, duplicate (worker, task)) are dropped individually — a
  // corrupted record must neither index out of range nor lose the session.
  size_t replayed = 0;
  size_t dropped = 0;
  for (const auto& answer : checkpoint->answers) {
    if (!ValidateAnswer(answer.worker, answer.task, answer.choice).ok() ||
        !AbsorbAnswer(answer.worker, answer.task, answer.choice).ok()) {
      ++dropped;
      continue;
    }
    RecordAnswer(answer.worker, answer.task);
    ++replayed;
  }
  if (dropped > 0) {
    DOCS_LOG(Warning) << "checkpoint replay dropped " << dropped
                      << " invalid answer record(s), kept " << replayed;
  }
  if (replayed > 0) inference_->RunFullInference(ScoringPool());
  answers_since_reinfer_ = 0;
  return OkStatus();
}

}  // namespace docs::core

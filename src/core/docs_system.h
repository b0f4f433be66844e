#ifndef DOCS_CORE_DOCS_SYSTEM_H_
#define DOCS_CORE_DOCS_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/assignment_policy.h"
#include "core/domain_vector.h"
#include "core/golden_selection.h"
#include "core/incremental_ti.h"
#include "core/inference_service.h"
#include "core/task_assignment.h"
#include "core/types.h"
#include "kb/knowledge_base.h"
#include "storage/state_checkpoint.h"
#include "storage/worker_store.h"

namespace docs::core {

/// A task as a requester submits it: text plus the choice count. The
/// requester optionally knows the ground truth (needed only for the tasks
/// chosen as golden).
struct TaskInput {
  std::string text;
  size_t num_choices = 2;
};

/// How SelectTasks ranks eligible tasks.
///  * kBenefit       — DOCS's OTA (Def. 5): domains + worker quality +
///                     truth confidence.
///  * kDomainMax     — the D-Max baseline of Section 6.4: picks the tasks
///                     whose domains best match the worker (sum_k r_k q^w_k)
///                     and ignores how confident the truth already is.
///  * kUncertainty   — ablation: rank by current truth entropy H(s_i) only
///                     (ignores who the worker is).
///  * kQualityBlind  — ablation: Def. 5's benefit but with the worker's
///                     quality vector replaced by its mean (no domain
///                     awareness in the assignment step).
enum class SelectionRule {
  kBenefit,
  kDomainMax,
  kUncertainty,
  kQualityBlind,
};

/// A task grant that was never answered: ExpireLeases returns these so the
/// assignment pool can re-serve work abandoned by no-show workers.
struct ExpiredLease {
  size_t worker = 0;
  size_t task = 0;
  /// The logical deadline the lease missed (grant clock + lease_duration).
  uint64_t deadline = 0;
};

struct DocsSystemOptions {
  nlp::EntityLinkerOptions linker;
  /// Its quality_clamp also clamps the worker qualities OTA scores with.
  TruthInferenceOptions truth_inference;
  /// Number of golden tasks selected after DVE (20 in the paper).
  size_t golden_count = 20;
  /// Lease duration for granted tasks, in logical ticks (each SelectTasks
  /// call advances the clock by one). While a lease is outstanding the task
  /// counts against `max_answers_per_task`, so OTA does not over-assign
  /// in-flight work; a grant not answered within the duration is considered
  /// abandoned and is reclaimed by ExpireLeases(). 0 disables leasing.
  /// Leases are intentionally volatile: a crash (checkpoint restore) drops
  /// them all, which simply returns the in-flight tasks to the pool.
  size_t lease_duration = 0;
  /// Re-run the full iterative inference every z answer submissions
  /// (z = 100 in DOCS); 0 disables the periodic re-run.
  size_t reinfer_every = 100;
  /// Laplace smoothing mass when initializing quality from golden answers.
  double golden_smoothing = 1.0;
  /// Upper bound on answers collected per task (0 = unlimited). DOCS itself
  /// lets the benefit function starve confident tasks, but requesters often
  /// want a hard redundancy cap as a budget guarantee.
  size_t max_answers_per_task = 0;
  SelectionRule selection_rule = SelectionRule::kBenefit;
  /// Display name override (the D-Max configuration reports "D-Max").
  std::string display_name = "DOCS";
  /// Threads applied to the serving hot loops: benefit/match/entropy scoring
  /// in SelectTasks, and the EM sweep / recompute fan-out of the embedded
  /// inference engine — all served by ONE pool of this size (the periodic
  /// re-inference runs on the scoring pool instead of building its own, so a
  /// DocsSystem never stacks multiple hardware-sized pools). When nonzero it
  /// also overrides truth_inference.num_threads for standalone engine use.
  /// 0 = hardware concurrency, 1 = the historical sequential behavior.
  /// Results are bit-identical for every value; see DESIGN.md §8.
  size_t num_threads = 0;
  /// Decouple inference from serving (DESIGN.md §15): SubmitAnswer validates
  /// and books the answer at ack time, then enqueues it onto a background
  /// inference service, and RequestTasks scores against the last published
  /// immutable snapshot — so an answer burst (retro-update fan-out, the
  /// periodic full EM) never blocks a concurrent RequestTasks. Consumed by
  /// ConcurrentDocsSystem only; a bare DocsSystem ignores it (it always
  /// applies inline). Post-Drain() state is bitwise-identical to sync mode
  /// (tests/inference_service_test.cc).
  bool async_inference = false;
  /// Bound on answers acknowledged but not yet applied by the background
  /// service; submitters block (backpressure) once it is reached.
  size_t async_queue_capacity = 1024;
};

/// The complete DOCS pipeline of Figure 1:
///  - AddTasks() runs DVE over the submitted task text against the KB and
///    selects golden tasks;
///  - SelectTasks() serves worker requests: new workers receive the golden
///    tasks first (to probe their per-domain quality), then OTA picks the
///    k highest-benefit tasks;
///  - OnAnswer() feeds the incremental truth inference, initializes worker
///    quality once the golden phase completes, and re-runs the full
///    iterative inference every z submissions.
class DocsSystem : public AssignmentPolicy {
 public:
  /// `knowledge_base` must outlive the system.
  DocsSystem(const kb::KnowledgeBase* knowledge_base,
             DocsSystemOptions options = {});

  /// Ingests tasks: computes each task's domain vector via DVE and selects
  /// golden tasks. `known_truths`, when provided (parallel to `inputs`),
  /// supplies the requester-labeled ground truth used for golden grading.
  /// May be called once per system instance.
  [[nodiscard]] Status AddTasks(const std::vector<TaskInput>& inputs,
                  const std::vector<size_t>* known_truths = nullptr);

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<size_t>& golden_tasks() const { return golden_.tasks; }
  const IncrementalTruthInference& inference() const { return *inference_; }

  /// Maps an external (platform) worker id to a dense index, registering it
  /// on first use.
  size_t WorkerIndex(const std::string& external_id);

  /// Looks up an external worker id WITHOUT registering it; nullopt when the
  /// id has never been seen. The serving path uses this to reject
  /// submissions from workers that never requested tasks — a malformed id
  /// arriving over the network must not mint a fresh worker.
  std::optional<size_t> FindWorker(const std::string& external_id) const;

  /// Seeds a worker's quality from the persistent store (Theorem 1 state);
  /// NotFound if the store has no record. Returning workers skip the golden
  /// phase.
  [[nodiscard]] Status LoadWorker(const std::string& external_id,
                    const storage::WorkerStore& store);

  /// Persists a worker's accumulated (q, u) statistics.
  [[nodiscard]] Status SaveWorker(const std::string& external_id,
                    storage::WorkerStore* store) const;

  /// Writes a crash-consistent snapshot of the whole session (tasks with
  /// their DVE vectors, golden set, workers with seed profiles, all answers)
  /// to `path`. Derived inference state is rebuilt on load by replay.
  [[nodiscard]] Status SaveCheckpoint(const std::string& path) const;

  /// Restores a session saved with SaveCheckpoint. Must be called instead
  /// of AddTasks on a fresh system (same KB and options as the original).
  /// Answer records that fail validation (out-of-range task/choice,
  /// duplicate (worker, task) pair) are skipped with a warning rather than
  /// poisoning the whole restore — a corrupted record costs one answer, not
  /// the session.
  [[nodiscard]] Status LoadCheckpoint(const std::string& path);

  /// Validated answer submission, applied inline: ValidateAnswer, then
  /// ApplyAnswer, then RecordAnswer. AMT retries and malformed callbacks are
  /// rejected with ValidateAnswer's status and change nothing.
  [[nodiscard]] Status SubmitAnswer(size_t worker, size_t task, size_t choice);

  // --- Answer acceptance (DESIGN.md §15) -----------------------------------
  // One path admits every answer, in both serving modes: ValidateAnswer and
  // RecordAnswer read and write the submission books (who answered what, how
  // many answers each task has), and ApplyAnswer feeds the engine, reading
  // no book. The facade validates and books under its assign lock in both
  // modes, then applies inline (sync) or on the service thread (async), so
  // in async mode the books run ahead of the engine by the queue depth.
  // Eligibility, golden pacing and the redundancy cap read the books, so
  // they behave the same either way. Locking (enforced by the facade, one
  // rule in both modes): the facade's assign lock guards the books, the
  // worker table, the lease books and the lease clock; registration, which
  // appends a worker's book, also holds the exclusive state lock.

  /// Rejects, in this order: a system with no tasks (FailedPrecondition),
  /// an unknown worker or task (InvalidArgument), an out-of-range choice
  /// (OutOfRange) and a (worker, task) pair already booked (AlreadyExists).
  /// Reads only the books and the immutable task metadata, so the facade
  /// runs it under the assign lock alone.
  [[nodiscard]] Status ValidateAnswer(size_t worker, size_t task,
                                      size_t choice) const;

  /// Books one validated answer: marks (worker, task) answered, counts it
  /// against the redundancy cap and releases the worker's lease on the task.
  void RecordAnswer(size_t worker, size_t task);

  /// Feeds one validated answer to the engine: incremental TI, golden
  /// accounting and the periodic full inference every z answers. A hard
  /// guard rejects an unregistered worker or an answer the engine refuses
  /// with InternalError before anything is indexed (unreachable after
  /// ValidateAnswer). Touches no book.
  [[nodiscard]] Status ApplyAnswer(size_t worker, size_t task, size_t choice);

  /// Whether `task`'s booked answers plus outstanding leases reach the
  /// redundancy cap (never with max_answers_per_task == 0). Reads the books:
  /// assign lock.
  bool AtAnswerCap(size_t task) const;

  /// True while `worker` is in the golden probe: SelectTasks grants her
  /// golden tasks before any OTA ranking. Reads her profile: state lock.
  bool InGoldenPhase(size_t worker) const {
    return !workers_[worker].golden_done;
  }

  /// True while `worker`'s golden phase is open, the books hold an answer
  /// for every golden task, and the engine has not absorbed them all: async
  /// mode between ack and apply. The seed that closes the phase is pending,
  /// so the facade drains before serving her. Reads the books and the
  /// engine: exclusive state lock and assign lock.
  bool GoldenAwaitsApply(size_t worker) const;

  /// Releases every lease whose deadline is at or before `now` and returns
  /// the reclaimed grants; the freed tasks are immediately assignable again.
  std::vector<ExpiredLease> ExpireLeases(uint64_t now);

  /// Logical clock: the number of SelectTasks calls served so far.
  uint64_t lease_clock() const { return lease_clock_; }
  size_t outstanding_leases() const { return leases_.size(); }

  /// Rows scored: (worker, task) scores computed by serving passes, by an
  /// index rebuild's seed or by the walk resolving a bound entry. The
  /// historical name is kept: each is a score the worker's index did not
  /// hold. Monotonic over the system's lifetime.
  uint64_t benefit_cache_misses() const {
    return benefit_cache_misses_.load(std::memory_order_relaxed);
  }

  /// Request-level counters: one count per serving ranking pass (a
  /// SelectTasks call that reached OTA ranking over a non-empty index). A
  /// pass that scored no row — served entirely from the worker's index — is
  /// a request hit; a pass that scored at least one row is a request miss.
  /// hit / (hit + miss) is the hit-rate a dashboard should display.
  /// Golden-phase grants and the ScoreAllTasks test hook do not count.
  /// Monotonic.
  uint64_t benefit_cache_request_hits() const {
    return benefit_cache_request_hits_.load(std::memory_order_relaxed);
  }
  uint64_t benefit_cache_request_misses() const {
    return benefit_cache_request_misses_.load(std::memory_order_relaxed);
  }

  /// Benefit-index effectiveness counters (DESIGN.md §16). Pops counts heap
  /// nodes visited by index-served selections (the k-log-n work unit);
  /// rebuilds counts full O(n) reconstructions (first contact, or a moved
  /// worker epoch, generation or answer count). Monotonic.
  uint64_t benefit_index_pops() const {
    return benefit_index_pops_.load(std::memory_order_relaxed);
  }
  uint64_t benefit_index_rebuilds() const {
    return benefit_index_rebuilds_.load(std::memory_order_relaxed);
  }
  /// O(1) invalidation events: full re-inference runs that staled every
  /// worker's index with one generation bump (the engine's generation
  /// starts at 1, so this is generation - 1). 0 before ingest.
  uint64_t benefit_index_generation_invalidations() const {
    return inference_ != nullptr ? inference_->generation() - 1 : 0;
  }

  /// Scores every task for `worker` under the configured selection rule
  /// from the live engine and returns the raw scores (ignoring
  /// eligibility). Writes no index and counts nothing. Test hook: the
  /// lockstep suites compare it with the reference scores of
  /// tests/reference_selector.h.
  std::vector<double> ScoreAllTasks(size_t worker);

  /// Re-runs the full iterative inference over all stored answers, restarting
  /// from the workers' seed profiles. The result depends only on (tasks,
  /// seeds, answer order), which makes it the bit-equality oracle for crash
  /// recovery: a recovered system and an uninterrupted reference converge to
  /// identical posteriors iff they hold identical answer sequences.
  void RunFullInference();

  /// External ids of every registered worker in registration (dense-index)
  /// order. Recovery replays registrations in this order so worker indices —
  /// and therefore inference's float summation order — are reproduced.
  std::vector<std::string> WorkerIds() const;

  // --- Striped serving plumbing (DESIGN.md §13, §15) ----------------------
  // These split the steady-state SelectTasks into snapshot → score → commit
  // phases so ConcurrentDocsSystem can run the scoring phase of several
  // workers genuinely in parallel, in both modes: the pass reads the live
  // engine under a shared (reader) state lock in sync mode, or a published
  // snapshot with no state lock in async mode.
  // Locking contract (enforced by the facade, not checked here):
  //  - CanServeSharded: shared state lock held.
  //  - ScoreAndRank: the worker's shard lock (the pass reads and rebuilds
  //    her index), plus the shared state lock on a live pass.
  //  - BeginShardedSelect / CommitShardedSelect: the facade's assign lock
  //    (they touch the books, the lease books and the clock), on top of the
  //    shared state lock in sync mode.
  //  - FindWorker, ExpireLeases, lease_clock, outstanding_leases, WorkerIds:
  //    the assign lock alone suffices (every write to what they read holds
  //    it).

  /// Reusable per-shard scoring buffers; guarded by the owning shard lock.
  struct ShardScratch {
    /// The pass's eligibility bitmap (BuildEligibilityBitmap).
    std::vector<uint8_t> eligible;
    /// The flattened quality vector of the kQualityBlind rule.
    std::vector<double> quality;
    /// The pass's hoisted benefit factors (DESIGN.md §11).
    WorkerBenefitFactors factors;
    /// A cold rebuild's seed (DESIGN.md §16): the running top k of the known
    /// lower bounds, and the positions of the entries it scores up front.
    std::vector<double> seed_floor;
    std::vector<uint32_t> resolve;
  };

  /// True when `worker` can be served without the exclusive lock: she is
  /// registered, past the golden phase, and her index row already exists —
  /// first contact, golden probes, and row growth all mutate shared
  /// structure and take the exclusive path.
  bool CanServeSharded(size_t worker) const;

  /// Phase 1: advances the lease clock and snapshots the worker's
  /// eligibility bitmap into `eligible` (answered mask + redundancy cap).
  void BeginShardedSelect(size_t worker, std::vector<uint8_t>* eligible);

  /// Phase 2: scores `scratch.eligible` and returns the provisional top-k.
  /// `snap` is the published snapshot to read the posteriors from (async
  /// mode), or nullptr for the live engine (CanServeSharded must hold).
  /// `pool` is the shared scoring pool when the caller won it, nullptr to
  /// score serially — results are bit-identical either way (DESIGN.md §8).
  std::vector<size_t> ScoreAndRank(size_t worker, ShardScratch& scratch,
                                   size_t k, ThreadPool* pool,
                                   const InferenceSnapshot* snap);

  /// Phase 3: re-validates the selection against leases granted since the
  /// snapshot and commits the grants. False (nothing committed) when a
  /// selected task lost redundancy-cap eligibility in between — the caller
  /// retries from phase 1 with a fresh snapshot. With `force` the conflicted
  /// tasks are dropped and the remainder committed instead.
  bool CommitShardedSelect(size_t worker, std::vector<size_t>* selected,
                           bool force);

  /// Lazily built pool shared by every hot loop the system drives —
  /// SelectTasks scoring and the embedded engine's periodic full inference;
  /// nullptr when configured sequential. Sharded callers must hold the
  /// facade's pool lock; exclusive callers need no extra lock.
  ThreadPool* ScoringPool();

  // --- Snapshot publishing (DESIGN.md §15) --------------------------------

  /// Builds the next snapshot copy-on-write against `prev`: tasks and
  /// workers whose inference epochs are unchanged share the previous
  /// snapshot's immutable pieces. Also creates every registered worker's
  /// index row so the snapshot path can serve her. Exclusive state lock
  /// held.
  std::shared_ptr<const InferenceSnapshot> BuildSnapshot(
      const InferenceSnapshot* prev);

  // --- AssignmentPolicy -----------------------------------------------------
  std::string name() const override { return options_.display_name; }
  std::vector<size_t> SelectTasks(size_t worker, size_t k) override;
  /// Platform-interface shim over SubmitAnswer: logs and drops rejected
  /// answers (the campaign protocols of Section 6.1 have no error channel).
  void OnAnswer(size_t worker, size_t task, size_t choice) override;
  std::vector<size_t> InferredChoices() override;

 private:
  struct WorkerProfile {
    std::string external_id;
    bool golden_done = false;
    size_t golden_answered = 0;
    /// Correct/total r-mass per domain accumulated on golden tasks.
    std::vector<double> golden_correct;
    std::vector<double> golden_total;
  };

  void FinishGoldenPhase(size_t worker);

  /// Builds the eligibility bitmap for `worker` into `*eligible` (all-open
  /// minus her booked tasks minus redundancy-capped tasks): the one
  /// eligibility form every ranking pass reads, built by SelectTasks and by
  /// the sharded phase-1 snapshot.
  void BuildEligibilityBitmap(size_t worker, std::vector<uint8_t>* eligible);

  /// One scoring pass (DESIGN.md §11): where the selection rule reads
  /// M^(i) and H(s_i) (live engine or a published snapshot), the worker's
  /// staged quality and hoisted benefit factors, and the index key.
  struct ScoringPass {
    /// nullptr: score against the live engine.
    const InferenceSnapshot* snap = nullptr;
    /// The rule's quality vector (kDomainMax, benefit rules); borrowed from
    /// the engine, the snapshot's worker view or the scratch, all of which
    /// outlive the pass.
    const std::vector<double>* quality = nullptr;
    /// The benefit rules' factors, hoisted from *quality when the pass
    /// opens; nullptr under kDomainMax and kUncertainty.
    WorkerBenefitFactors* factors = nullptr;
    /// The shard scratch the pass stages into; its seed buffers serve a
    /// cold index rebuild.
    ShardScratch* scratch = nullptr;
    /// The benefit index's key (DESIGN.md §16): the worker's epoch, the
    /// invalidation generation and the answers the source had absorbed.
    uint64_t worker_epoch = 0;
    uint64_t generation = 0;
    uint64_t answers = 0;
    /// The worker's answered tasks in the source, ascending: the tasks an
    /// index rebuild leaves out.
    const std::vector<size_t>* answered = nullptr;
  };

  /// Opens a pass over live inference state for `worker`, staging into
  /// `scratch` (which must outlive the pass).
  ScoringPass LivePass(size_t worker, ShardScratch* scratch) const;
  /// Opens a pass over the published snapshot `snap` for the worker `view`.
  ScoringPass SnapshotPass(const InferenceSnapshot& snap,
                           const WorkerSnapshot& view,
                           ShardScratch* scratch) const;
  /// Stages the selection rule's per-worker state of `*pass`: the quality
  /// vector and, for the benefit rules, the hoisted factors.
  void StageWorker(const std::vector<double>& worker_quality,
                   ScoringPass* pass, ShardScratch* scratch) const;

  /// The selection rule's score of `task`.
  double Score(const ScoringPass& pass, size_t task) const;
  /// Hints the cache lines a benefit Score of `task` reads — its CSR
  /// domains and weights and, on a live pass, its M^(i) block — so a batch
  /// can request them a few rows ahead.
  void Prefetch(const ScoringPass& pass, size_t task) const;
  /// BenefitBoundsOf `task` for a benefit-rule pass (pass.factors set),
  /// from the bound inputs of the pass's source (engine or snapshot).
  BenefitBounds Bounds(const ScoringPass& pass, size_t task) const;
  /// Scores every entry (distinct tasks) exactly, as one batch over `pool`.
  /// Each entry owns its slot, so the result is thread-count invariant.
  void ScoreEntries(const ScoringPass& pass,
                    std::vector<BenefitIndex::Entry>* entries,
                    ThreadPool* pool) const;
  /// The index's rebuild seed (DESIGN.md §16). Under kDomainMax and
  /// kUncertainty, which have no bounds, it scores every entry exactly
  /// (ScoreEntries). Under the benefit rules one sweep over the entries
  /// seeds each with its upper bound and keeps the k-th largest lower bound
  /// (closed forms) as a floor of the k-th selected score (KthLargest).
  /// Then it scores, in task order over `pool`, the entries marked in
  /// `eligible` whose upper bound reaches the floor — the rows a walk for
  /// `k` would resolve, bar a few; the rest stay bound entries. Returns
  /// the number of rows it scored.
  size_t SeedEntries(const ScoringPass& pass, size_t k,
                     const std::vector<uint8_t>& eligible,
                     std::vector<BenefitIndex::Entry>* entries,
                     ThreadPool* pool) const;

  /// The one ranking path every serving request takes (DESIGN.md §16):
  /// rebuilds `index` (SeedEntries) unless it is fresh under the pass's
  /// (worker_epoch, generation, answers), reads the top-k tasks marked in
  /// `eligible` off the heap, scoring bound entries as the walk reaches
  /// them, then publishes the rows scored (one atomic add) and the pass's
  /// request-level tally.
  std::vector<size_t> Rank(BenefitIndex* index, size_t k,
                           const ScoringPass& pass,
                           const std::vector<uint8_t>& eligible,
                           ThreadPool* pool);

  /// The worker's benefit index, growing the container as needed (exclusive
  /// path only — sharded and snapshot paths reach the index through
  /// pre-sized references/pointers).
  BenefitIndex* IndexRow(size_t worker);

  /// ApplyAnswer without the periodic full inference (checkpoint replay
  /// defers to one final run): the hard guard, the engine's OnAnswer and the
  /// golden accounting.
  [[nodiscard]] Status AbsorbAnswer(size_t worker, size_t task, size_t choice);

  /// Book read: whether `worker` has a booked answer for `task`.
  bool HasAnswered(size_t worker, size_t task) const;

  /// Lease bookkeeping (no-ops while options_.lease_duration == 0).
  void GrantLeases(size_t worker, const std::vector<size_t>& granted);
  void ReleaseLease(size_t worker, size_t task);
  static uint64_t LeaseKey(size_t worker, size_t task) {
    return (static_cast<uint64_t>(worker) << 32) | static_cast<uint32_t>(task);
  }

  const kb::KnowledgeBase* kb_;
  DocsSystemOptions options_;
  DomainVectorEstimator dve_;
  std::vector<Task> tasks_;
  /// Sparse domain rows and choice-count slots of tasks_ (DESIGN.md §11);
  /// immutable after ingest like tasks_, so lock-free serving reads it.
  BenefitSupport support_;
  std::vector<int> known_truth_;  // -1 when unknown
  GoldenSelectionResult golden_;
  std::vector<uint8_t> is_golden_;
  std::unique_ptr<IncrementalTruthInference> inference_;
  std::unordered_map<std::string, size_t> worker_index_;
  std::vector<WorkerProfile> workers_;
  /// The submission books (see "Answer acceptance" above): per registered
  /// worker, her booked tasks in ascending order; per task, its booked
  /// answer count. Written by RecordAnswer, grown by WorkerIndex.
  std::vector<std::vector<size_t>> answered_;
  std::vector<size_t> answers_per_task_;
  size_t answers_since_reinfer_ = 0;
  uint64_t lease_clock_ = 0;
  /// (worker << 32 | task) -> logical deadline.
  std::unordered_map<uint64_t, uint64_t> leases_;
  /// Outstanding leases per task (kept in sync with leases_).
  std::vector<uint32_t> lease_count_;
  std::unique_ptr<ThreadPool> pool_;  // see ScoringPool()
  /// Per-worker benefit indexes (DESIGN.md §16), the only per-worker score
  /// store. A deque so an index keeps its address when later workers
  /// register — published snapshots carry raw index pointers and must never
  /// dangle. Grown on the exclusive path only (IndexRow); contents guarded
  /// by the worker's shard stripe.
  std::deque<BenefitIndex> benefit_index_;
  std::atomic<uint64_t> benefit_cache_misses_{0};
  std::atomic<uint64_t> benefit_cache_request_hits_{0};
  std::atomic<uint64_t> benefit_cache_request_misses_{0};
  std::atomic<uint64_t> benefit_index_pops_{0};
  std::atomic<uint64_t> benefit_index_rebuilds_{0};
  /// Exclusive-path serving scratch (SelectTasks, ScoreAllTasks), reused
  /// across calls so a warm request allocates nothing.
  ShardScratch serve_scratch_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_DOCS_SYSTEM_H_

// Durability and exactly-once tests (DESIGN.md §12): answer-WAL recovery
// (empty dir, torn tail at every byte, corruption, duplicate request ids),
// the dedup window (idempotent retries, FIFO bound, checkpoint carry),
// injected WAL faults, checkpoint/submit races, and in-process gateway
// crash/recover cycles with resilient clients riding through — asserting
// zero lost answers, zero duplicates, and bit-identical recovered
// posteriors.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client/resilient_client.h"
#include "common/fault_injection.h"
#include "common/sync.h"
#include "core/concurrent_docs_system.h"
#include "core/durable_docs_system.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "net/wire.h"
#include "server/crowd_gateway.h"
#include "storage/answer_wal.h"
#include "storage/log_store.h"

namespace docs::core {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// (worker, task, choice) triple for multiset equality between what clients
/// were acknowledged and what recovery reconstructed.
using Acked = std::tuple<std::string, size_t, size_t>;

class DurabilityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
    dataset_ = new datasets::Dataset(datasets::MakeItemDataset(*kb_));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete kb_;
    dataset_ = nullptr;
    kb_ = nullptr;
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  /// A fresh recovery directory under the test tempdir (old state removed).
  static std::string FreshDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    ::mkdir(dir.c_str(), 0755);
    std::remove((dir + "/state.ckpt").c_str());
    std::remove((dir + "/answers.wal").c_str());
    return dir;
  }

  static DocsSystemOptions CampaignOptions(bool async = false) {
    DocsSystemOptions options;
    options.golden_count = 4;
    options.lease_duration = 0;
    options.reinfer_every = 10;
    options.async_inference = async;
    return options;
  }

  /// A facade with the item campaign ingested (async inference on request).
  static std::unique_ptr<ConcurrentDocsSystem> LoadedSystem(
      bool async = false) {
    auto system = std::make_unique<ConcurrentDocsSystem>(
        &kb_->knowledge_base, CampaignOptions(async));
    std::vector<TaskInput> inputs;
    for (const auto& task : dataset_->tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    auto truths = dataset_->Truths();
    EXPECT_TRUE(system->AddTasks(inputs, &truths).ok());
    return system;
  }

  /// An empty facade (recovery loads the campaign from the checkpoint).
  static std::unique_ptr<ConcurrentDocsSystem> EmptySystem() {
    return std::make_unique<ConcurrentDocsSystem>(&kb_->knowledge_base,
                                                  CampaignOptions());
  }

  /// Registers `worker` (durable `reg` record) by requesting a batch.
  static void Register(DurableDocsSystem& durable, const std::string& worker) {
    std::vector<size_t> tasks;
    ASSERT_TRUE(durable.RequestTasks(worker, 2, &tasks).ok());
  }

  /// The full-inference posterior over every task, for bitwise comparison.
  static std::vector<std::vector<double>> Posterior(
      ConcurrentDocsSystem& system) {
    system.RunFullInference();
    return system.WithLocked([](DocsSystem& inner) {
      std::vector<std::vector<double>> all;
      for (size_t t = 0; t < inner.tasks().size(); ++t) {
        all.push_back(inner.inference().task_truth(t));
      }
      return all;
    });
  }

  static bool BitwiseEqual(const std::vector<std::vector<double>>& a,
                           const std::vector<std::vector<double>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t t = 0; t < a.size(); ++t) {
      if (a[t].size() != b[t].size() ||
          std::memcmp(a[t].data(), b[t].data(),
                      a[t].size() * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Every recovered answer as (external id, task, choice), in arrival
  /// order — the order inference iterates, which fixes float summation.
  static std::vector<Acked> RecoveredAnswers(ConcurrentDocsSystem& system) {
    const std::vector<std::string> ids = system.WorkerIds();
    return system.WithLocked([&](DocsSystem& inner) {
      std::vector<Acked> answers;
      for (const Answer& answer : inner.inference().answers()) {
        answers.emplace_back(ids[answer.worker], answer.task, answer.choice);
      }
      return answers;
    });
  }

  static std::vector<Acked> Sorted(std::vector<Acked> answers) {
    std::sort(answers.begin(), answers.end());
    return answers;
  }

  static kb::SyntheticKb* kb_;
  static datasets::Dataset* dataset_;
};

kb::SyntheticKb* DurabilityTest::kb_ = nullptr;
datasets::Dataset* DurabilityTest::dataset_ = nullptr;

// --- Recovery basics ---------------------------------------------------------

TEST_F(DurabilityTest, EmptyDirectoryBootstrapsAndGuardsDoubleRecover) {
  const std::string dir = FreshDir("dur_bootstrap");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});

  // Nothing serves before recovery.
  std::vector<size_t> tasks;
  EXPECT_EQ(durable.RequestTasks("w0", 2, &tasks).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(durable.SubmitAnswer("w0", 0, 0, 1).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(durable.Recover().ok());
  EXPECT_TRUE(durable.recovered());
  EXPECT_EQ(durable.Recover().code(), StatusCode::kFailedPrecondition);

  Register(durable, "w0");
  EXPECT_TRUE(durable.SubmitAnswer("w0", 0, 0, 1).ok());
  EXPECT_EQ(system->num_answers(), 1u);
}

TEST_F(DurabilityTest, WalWithoutCheckpointOrTasksIsDataLoss) {
  const std::string dir = FreshDir("dur_orphan_wal");
  {
    storage::AnswerWal::Contents contents;
    auto wal = storage::AnswerWal::Open(dir + "/answers.wal", &contents);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->AppendRegistration("w0").ok());
    ASSERT_TRUE(wal->AppendAnswer("w0", 1, 0, 0).ok());
  }
  auto empty = EmptySystem();  // no AddTasks, no checkpoint on disk
  DurableDocsSystem durable(empty.get(), {dir});
  EXPECT_EQ(durable.Recover().code(), StatusCode::kDataLoss);
}

TEST_F(DurabilityTest, RequestBeforeIngestFailsAndLogsNothing) {
  const std::string dir = FreshDir("dur_pre_ingest");
  {
    auto empty = EmptySystem();
    DurableDocsSystem durable(empty.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());  // empty dir, empty system
    // Regression: the registration used to be logged before the facade
    // crashed on the missing engine; had it not crashed, the logged record
    // would have made the next Recover() a DataLoss.
    std::vector<size_t> tasks;
    EXPECT_EQ(durable.RequestTasks("w0", 2, &tasks).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(tasks.empty());
    EXPECT_EQ(durable.stats().wal_appends, 0u);
    EXPECT_EQ(durable.stats().wal_records, 0u);
    EXPECT_TRUE(empty->WorkerIds().empty());
  }
  auto again = EmptySystem();
  DurableDocsSystem recovered(again.get(), {dir});
  EXPECT_TRUE(recovered.Recover().ok());
}

TEST_F(DurabilityTest, ReplayReconstructsBitIdenticalState) {
  const std::string dir = FreshDir("dur_replay");
  std::vector<Acked> acked;
  {
    auto system = LoadedSystem();
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    // Interleaved registration and answering, the way live serving arrives.
    uint64_t rid = 0;
    for (size_t w = 0; w < 3; ++w) {
      const std::string worker = "worker-" + std::to_string(w);
      Register(durable, worker);
      for (size_t i = 0; i < 6; ++i) {
        const size_t task = w * 6 + i;
        const size_t choice = task % 2;
        ASSERT_TRUE(durable.SubmitAnswer(worker, task, choice, ++rid).ok());
        acked.emplace_back(worker, task, choice);
      }
    }
    ASSERT_EQ(durable.stats().wal_appends, 3u + acked.size());
  }

  // Recover into an empty facade: checkpoint is absent (never called), the
  // WAL alone rebuilds the campaign on top of freshly ingested tasks.
  auto replayed = LoadedSystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().answers_recovered, acked.size());
  EXPECT_EQ(replayed->num_answers(), acked.size());
  EXPECT_EQ(replayed->WorkerIds(),
            (std::vector<std::string>{"worker-0", "worker-1", "worker-2"}));
  // Stronger than multiset equality: replay preserves the arrival order.
  EXPECT_EQ(RecoveredAnswers(*replayed), acked);

  // The uninterrupted reference: same registrations, same answers, no crash.
  auto reference = LoadedSystem();
  reference->WithLocked([&](DocsSystem& inner) {
    for (size_t w = 0; w < 3; ++w) {
      (void)inner.WorkerIndex("worker-" + std::to_string(w));
    }
    return 0;
  });
  for (const Acked& answer : acked) {
    ASSERT_TRUE(reference
                    ->SubmitAnswer(std::get<0>(answer), std::get<1>(answer),
                                   std::get<2>(answer))
                    .ok());
  }
  EXPECT_TRUE(BitwiseEqual(Posterior(*replayed), Posterior(*reference)));
  EXPECT_EQ(replayed->InferredChoices(), reference->InferredChoices());
}

TEST_F(DurabilityTest, AsyncReplayServesReplayedWorkersAndMatchesSync) {
  const std::string dir = FreshDir("dur_async_replay");
  std::vector<Acked> acked;
  uint64_t rid = 0;
  {
    auto system = LoadedSystem(/*async=*/true);
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    for (size_t w = 0; w < 3; ++w) {
      const std::string worker = "worker-" + std::to_string(w);
      Register(durable, worker);
      for (size_t i = 0; i < 6; ++i) {
        const size_t task = w * 6 + i;
        const size_t choice = task % 2;
        ASSERT_TRUE(durable.SubmitAnswer(worker, task, choice, ++rid).ok());
        acked.emplace_back(worker, task, choice);
      }
    }
  }

  // The sync replay of the same WAL is the reference.
  std::vector<std::vector<double>> sync_posterior;
  std::vector<size_t> sync_choices;
  {
    auto replayed = LoadedSystem();
    DurableDocsSystem recovered(replayed.get(), {dir});
    ASSERT_TRUE(recovered.Recover().ok());
    EXPECT_EQ(RecoveredAnswers(*replayed), acked);
    sync_posterior = Posterior(*replayed);
    sync_choices = replayed->InferredChoices();
  }

  // Replay registers the workers behind the facade (WithLocked); the async
  // facade must resolve them at once, with no publish or drain in between.
  auto replayed = LoadedSystem(/*async=*/true);
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_TRUE(replayed->KnowsWorker("worker-" + std::to_string(w)));
  }
  EXPECT_EQ(replayed->WorkerIds(),
            (std::vector<std::string>{"worker-0", "worker-1", "worker-2"}));
  // A replayed answer is already booked: its retry under a new request id
  // is a duplicate, decided at ack time.
  EXPECT_EQ(recovered.SubmitAnswer("worker-0", 0, 0, ++rid).code(),
            StatusCode::kAlreadyExists);
  std::vector<size_t> tasks;
  ASSERT_TRUE(recovered.RequestTasks("worker-1", 2, &tasks).ok());
  EXPECT_FALSE(tasks.empty());
  EXPECT_EQ(recovered.stats().wal_appends, 1u);  // the duplicate; no `reg`

  replayed->Drain();
  EXPECT_EQ(RecoveredAnswers(*replayed), acked);
  EXPECT_TRUE(BitwiseEqual(Posterior(*replayed), sync_posterior));
  EXPECT_EQ(replayed->InferredChoices(), sync_choices);

  // A fresh answer from a replayed worker is accepted and applied.
  const size_t fresh = tasks.front();
  ASSERT_TRUE(recovered.SubmitAnswer("worker-1", fresh, 0, ++rid).ok());
  replayed->Drain();
  EXPECT_EQ(replayed->num_answers(), acked.size() + 1);
}

// --- WAL edge cases ----------------------------------------------------------

TEST_F(DurabilityTest, TornTailAtEveryByteRecoversIntactPrefix) {
  const std::string dir = FreshDir("dur_torn");
  {
    auto system = LoadedSystem();
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    ASSERT_TRUE(durable.Checkpoint().ok());  // empty campaign checkpoint
    Register(durable, "w0");
    ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 11).ok());
    ASSERT_TRUE(durable.SubmitAnswer("w0", 1, 1, 12).ok());
    ASSERT_TRUE(durable.SubmitAnswer("w0", 2, 0, 13).ok());
  }
  const std::string checkpoint = ReadFileBytes(dir + "/state.ckpt");
  const std::string full = ReadFileBytes(dir + "/answers.wal");
  ASSERT_FALSE(full.empty());
  // Start of the final record (the third answer): past the 3rd newline
  // (reg, ans, ans precede it).
  size_t last_start = 0;
  for (int newline = 0; newline < 3; ++newline) {
    last_start = full.find('\n', last_start) + 1;
    ASSERT_NE(last_start, 0u);
  }
  ASSERT_LT(last_start, full.size());

  // A crash at any byte inside the final append loses exactly that answer,
  // never more, and recovery self-heals the file. Cutting only the trailing
  // newline keeps the record but must ALSO trigger the repair (an append
  // onto a newline-less tail would fuse two records).
  const std::string cut_dir = FreshDir("dur_torn_cut");
  for (size_t cut = last_start; cut < full.size(); ++cut) {
    WriteFileBytes(cut_dir + "/state.ckpt", checkpoint);
    WriteFileBytes(cut_dir + "/answers.wal", full.substr(0, cut));
    auto system = EmptySystem();
    DurableDocsSystem durable(system.get(), {cut_dir});
    ASSERT_TRUE(durable.Recover().ok()) << "cut=" << cut;
    const size_t expect = cut == full.size() - 1 ? 3u : 2u;
    EXPECT_EQ(system->num_answers(), expect) << "cut=" << cut;
    // The surviving prefix still dedups: retrying an already-applied id is
    // acknowledged without touching state.
    EXPECT_TRUE(durable.SubmitAnswer("w0", 1, 1, 12).ok());
    EXPECT_EQ(system->num_answers(), expect) << "cut=" << cut;
    EXPECT_EQ(durable.stats().answers_deduped, 1u);
    // And the repaired WAL is append-safe: a fresh answer lands cleanly.
    EXPECT_TRUE(durable.SubmitAnswer("w0", 5, 1, 14).ok()) << "cut=" << cut;
    EXPECT_EQ(system->num_answers(), expect + 1) << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, ChecksumValidGarbageRecordIsDataLoss) {
  const std::string dir = FreshDir("dur_garbage");
  {
    auto log = storage::LogStore::Open(dir + "/answers.wal", nullptr);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append("ans not-a-number 0 0 7730").ok());
    ASSERT_TRUE(log->Flush().ok());
  }
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  EXPECT_EQ(durable.Recover().code(), StatusCode::kDataLoss);
}

TEST_F(DurabilityTest, DuplicateRequestIdInWalIsDataLoss) {
  const std::string dir = FreshDir("dur_dup_rid");
  {
    auto log = storage::LogStore::Open(dir + "/answers.wal", nullptr);
    ASSERT_TRUE(log.ok());
    // 7730 = hex("w0"); the same (worker, request_id) appended twice can
    // only mean the log was corrupted or mis-spliced — SubmitAnswer never
    // writes a duplicate (the window check precedes the append).
    ASSERT_TRUE(log->Append("ans 9 0 0 7730").ok());
    ASSERT_TRUE(log->Append("ans 9 1 1 7730").ok());
    ASSERT_TRUE(log->Flush().ok());
  }
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  EXPECT_EQ(durable.Recover().code(), StatusCode::kDataLoss);
}

TEST_F(DurabilityTest, MidWalCorruptionIsDataLossNotSilentTruncation) {
  const std::string dir = FreshDir("dur_mid_corrupt");
  {
    auto system = LoadedSystem();
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    Register(durable, "w0");
    ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 41).ok());
    ASSERT_TRUE(durable.SubmitAnswer("w0", 1, 1, 42).ok());
  }
  // Bit rot strictly inside the file: an acked answer (42) still follows the
  // damaged record, so this cannot be a torn tail. Truncating there would
  // silently drop answer 42 — recovery must refuse instead of guessing.
  std::string wal = ReadFileBytes(dir + "/answers.wal");
  const size_t pos = wal.find("ans 41");
  ASSERT_NE(pos, std::string::npos);
  wal[pos] = 'X';
  WriteFileBytes(dir + "/answers.wal", wal);

  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  EXPECT_EQ(durable.Recover().code(), StatusCode::kDataLoss);
}

// --- Dedup window ------------------------------------------------------------

TEST_F(DurabilityTest, RetriesAreAnsweredFromWindowWithOriginalStatus) {
  const std::string dir = FreshDir("dur_dedup");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  ASSERT_TRUE(durable.Recover().ok());
  Register(durable, "w0");

  ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 21).ok());
  // Retry: same request_id, even a different body — the window answers.
  EXPECT_TRUE(durable.SubmitAnswer("w0", 3, 1, 21).ok());
  EXPECT_EQ(system->num_answers(), 1u);
  EXPECT_EQ(durable.stats().answers_deduped, 1u);

  // A rejected submit is WAL'd and its verdict is replayed to retries too:
  // "ghost" never registered, so the facade said kInvalidArgument — and
  // keeps saying it, deterministically, from the window.
  ASSERT_EQ(durable.SubmitAnswer("ghost", 0, 0, 22).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(durable.SubmitAnswer("ghost", 0, 0, 22).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(durable.stats().answers_deduped, 2u);

  // The verdicts survive a crash: recovery replays the `ans` records and
  // re-derives the same window.
  auto replayed = LoadedSystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(replayed->num_answers(), 1u);
  EXPECT_TRUE(recovered.SubmitAnswer("w0", 0, 0, 21).ok());
  EXPECT_EQ(recovered.SubmitAnswer("ghost", 0, 0, 22).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(replayed->num_answers(), 1u);
}

TEST_F(DurabilityTest, WindowEvictsFifoAtTheConfiguredBound) {
  const std::string dir = FreshDir("dur_window_bound");
  auto system = LoadedSystem();
  DurableOptions options;
  options.dir = dir;
  options.dedup_window = 2;
  DurableDocsSystem durable(system.get(), options);
  ASSERT_TRUE(durable.Recover().ok());
  Register(durable, "w0");

  ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 31).ok());
  ASSERT_TRUE(durable.SubmitAnswer("w0", 1, 1, 32).ok());
  ASSERT_TRUE(durable.SubmitAnswer("w0", 2, 0, 33).ok());  // evicts 31

  // Inside the window: answered idempotently.
  EXPECT_TRUE(durable.SubmitAnswer("w0", 2, 0, 33).ok());
  EXPECT_EQ(durable.stats().answers_deduped, 1u);
  // Past the horizon the request_id is forgotten; the retry falls through to
  // the facade, whose (worker, task) duplicate check still refuses to
  // double-apply — the bound trades a precise ack for safety, never for a
  // second application.
  EXPECT_EQ(durable.SubmitAnswer("w0", 0, 0, 31).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(system->num_answers(), 3u);
}

TEST_F(DurabilityTest, CheckpointTruncatesWalAndCarriesWindow) {
  const std::string dir = FreshDir("dur_checkpoint");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  ASSERT_TRUE(durable.Recover().ok());
  Register(durable, "w0");
  ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 41).ok());
  ASSERT_TRUE(durable.SubmitAnswer("w0", 1, 1, 42).ok());
  ASSERT_TRUE(durable.SubmitAnswer("w0", 2, 0, 43).ok());
  EXPECT_EQ(durable.stats().wal_records, 4u);  // reg + 3 ans

  ASSERT_TRUE(durable.Checkpoint().ok());
  EXPECT_EQ(durable.stats().checkpoints, 1u);
  EXPECT_EQ(durable.stats().wal_records, 3u);  // just the carried window

  // In-flight retries of pre-checkpoint submits still dedup.
  EXPECT_TRUE(durable.SubmitAnswer("w0", 1, 1, 42).ok());
  EXPECT_EQ(system->num_answers(), 3u);

  // And the carry is itself durable: a post-checkpoint crash recovers the
  // answers from the checkpoint (nothing to replay) and the window from the
  // dedup records.
  auto replayed = EmptySystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().answers_recovered, 0u);
  EXPECT_EQ(replayed->num_answers(), 3u);
  EXPECT_TRUE(recovered.SubmitAnswer("w0", 2, 0, 43).ok());
  EXPECT_EQ(replayed->num_answers(), 3u);
  EXPECT_EQ(recovered.stats().answers_deduped, 1u);
}

TEST_F(DurabilityTest, PeriodicCheckpointFiresEveryN) {
  const std::string dir = FreshDir("dur_periodic");
  auto system = LoadedSystem();
  DurableOptions options;
  options.dir = dir;
  options.checkpoint_every = 2;
  DurableDocsSystem durable(system.get(), options);
  ASSERT_TRUE(durable.Recover().ok());
  Register(durable, "w0");
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(durable.SubmitAnswer("w0", i, i % 2, 50 + i).ok());
  }
  EXPECT_EQ(durable.stats().checkpoints, 3u);
}

// --- Injected faults ---------------------------------------------------------

TEST_F(DurabilityTest, WalAppendFaultRejectsRetryablyWithoutApplying) {
  const std::string dir = FreshDir("dur_append_fault");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  ASSERT_TRUE(durable.Recover().ok());
  Register(durable, "w0");

  FaultInjector::Global().ArmOneShot(storage::kFaultWalAppend);
  const Status rejected = durable.SubmitAnswer("w0", 0, 0, 61);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client::ResilientCrowdClient::IsRetryable(rejected.code()));
  EXPECT_EQ(system->num_answers(), 0u);
  EXPECT_EQ(durable.stats().wal_append_failures, 1u);

  // The client-side remedy: retry the same request_id once the log heals.
  EXPECT_TRUE(durable.SubmitAnswer("w0", 0, 0, 61).ok());
  EXPECT_EQ(system->num_answers(), 1u);
  EXPECT_EQ(durable.stats().answers_deduped, 0u);  // fresh apply, not dedup
}

TEST_F(DurabilityTest, FlushFaultRollsBackSoTheRetryCannotDuplicate) {
  const std::string dir = FreshDir("dur_flush_fault");
  {
    auto system = LoadedSystem();
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    Register(durable, "w0");

    FaultInjector::Global().ArmOneShot(storage::kFaultFlush);
    const Status rejected = durable.SubmitAnswer("w0", 0, 0, 81);
    EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(client::ResilientCrowdClient::IsRetryable(rejected.code()));
    EXPECT_EQ(system->num_answers(), 0u);
    FaultInjector::Global().DisarmAll();

    // The record whose flush failed was physically rolled back, so the
    // same-request_id retry re-logs it: a fresh apply, not a dedup hit, and
    // never a duplicate (worker, request_id) pair in the file.
    EXPECT_TRUE(durable.SubmitAnswer("w0", 0, 0, 81).ok());
    EXPECT_EQ(system->num_answers(), 1u);
    EXPECT_EQ(durable.stats().answers_deduped, 0u);
  }
  // The WAL reopens cleanly — a duplicate pair would be kDataLoss and brick
  // every future restart.
  auto replayed = LoadedSystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(replayed->num_answers(), 1u);
}

TEST_F(DurabilityTest, DirtyTailRefusesAppendsUntilScrubSucceeds) {
  const std::string path = FreshDir("dur_dirty_tail") + "/answers.wal";
  storage::AnswerWal::Contents contents;
  auto wal = storage::AnswerWal::Open(path, &contents);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->AppendAnswer("w0", 91, 0, 0).ok());

  // A torn append whose in-place repair also fails leaves unscrubbed bytes
  // in the file.
  FaultInjector::Global().ArmOneShot(storage::kFaultAppend);
  FaultInjector::Global().ArmEveryNth(storage::kFaultCompactWrite, 1);
  EXPECT_FALSE(wal->AppendAnswer("w0", 92, 1, 1).ok());

  // While the scrub keeps failing every append is refused as retryable:
  // appending onto the torn bytes would fuse two records into one
  // checksum-invalid line and silently lose an acked answer.
  EXPECT_EQ(wal->AppendAnswer("w0", 92, 1, 1).code(),
            StatusCode::kUnavailable);

  // Once compaction works again the tail is scrubbed and the append lands.
  FaultInjector::Global().Disarm(storage::kFaultCompactWrite);
  EXPECT_TRUE(wal->AppendAnswer("w0", 92, 1, 1).ok());

  storage::AnswerWal::Contents reopened;
  auto again = storage::AnswerWal::Open(path, &reopened);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(reopened.tail_truncated);
  ASSERT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(reopened.records[0].request_id, 91u);
  EXPECT_EQ(reopened.records[1].request_id, 92u);
}

TEST_F(DurabilityTest, WalReplayFaultFailsRecoverThenRetrySucceeds) {
  const std::string dir = FreshDir("dur_replay_fault");
  {
    auto system = LoadedSystem();
    DurableDocsSystem durable(system.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    Register(durable, "w0");
    ASSERT_TRUE(durable.SubmitAnswer("w0", 0, 0, 71).ok());
  }
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  FaultInjector::Global().ArmOneShot(storage::kFaultWalReplay);
  EXPECT_FALSE(durable.Recover().ok());
  EXPECT_FALSE(durable.recovered());
  // A failed Recover holds no WAL handle; once the cause clears it retries.
  ASSERT_TRUE(durable.Recover().ok());
  EXPECT_EQ(system->num_answers(), 1u);
}

TEST_F(DurabilityTest, GatewayRecoverFaultAbortsStartBeforeBind) {
  const std::string dir = FreshDir("dur_gateway_recover");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  server::CrowdGateway gateway(&durable);

  FaultInjector::Global().ArmOneShot(server::kFaultGatewayRecover);
  EXPECT_FALSE(gateway.Start().ok());
  EXPECT_FALSE(gateway.running());
  EXPECT_FALSE(durable.recovered());
  EXPECT_EQ(gateway.stats().faults_injected, 1u);

  ASSERT_TRUE(gateway.Start().ok());
  EXPECT_TRUE(durable.recovered());
  gateway.Stop();
}

// --- Concurrency -------------------------------------------------------------

TEST_F(DurabilityTest, CheckpointRacesSubmittersSafely) {
  const std::string dir = FreshDir("dur_race");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  ASSERT_TRUE(durable.Recover().ok());
  constexpr size_t kWorkers = 4;
  constexpr size_t kPerWorker = 25;
  for (size_t w = 0; w < kWorkers; ++w) {
    Register(durable, "racer-" + std::to_string(w));
  }

  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Status saved = durable.Checkpoint();
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> submitters;
  for (size_t w = 0; w < kWorkers; ++w) {
    submitters.emplace_back([&, w] {
      const std::string worker = "racer-" + std::to_string(w);
      for (size_t i = 0; i < kPerWorker; ++i) {
        const size_t task = w * kPerWorker + i;
        const uint64_t rid = 1000 + task;
        const Status submitted =
            durable.SubmitAnswer(worker, task, task % 2, rid);
        ASSERT_TRUE(submitted.ok()) << submitted.ToString();
        // Every answer is retryable mid-race without double-applying.
        ASSERT_TRUE(durable.SubmitAnswer(worker, task, task % 2, rid).ok());
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  done.store(true, std::memory_order_release);
  checkpointer.join();
  EXPECT_EQ(system->num_answers(), kWorkers * kPerWorker);

  auto replayed = EmptySystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(replayed->num_answers(), kWorkers * kPerWorker);
  EXPECT_EQ(RecoveredAnswers(*replayed), RecoveredAnswers(*system));
}

// --- In-process gateway chaos ------------------------------------------------

// Serving stack that a "crash" destroys wholesale and a restart rebuilds
// from the recovery directory, the way a respawned process would.
struct DurableServing {
  std::unique_ptr<ConcurrentDocsSystem> system;
  std::unique_ptr<DurableDocsSystem> durable;
  std::unique_ptr<server::CrowdGateway> gateway;
};

TEST_F(DurabilityTest, GatewayRestartCyclesLoseNothingAndStayBitIdentical) {
  const std::string dir = FreshDir("dur_chaos");
  {
    // Seed the directory: campaign ingested, initial checkpoint written.
    auto bootstrap = LoadedSystem();
    DurableDocsSystem durable(bootstrap.get(), {dir});
    ASSERT_TRUE(durable.Recover().ok());
    ASSERT_TRUE(durable.Checkpoint().ok());
  }

  auto boot = [&](uint16_t port) {
    auto serving = std::make_unique<DurableServing>();
    serving->system = EmptySystem();
    DurableOptions options;
    options.dir = dir;
    options.checkpoint_every = 16;
    serving->durable = std::make_unique<DurableDocsSystem>(
        serving->system.get(), options);
    server::CrowdGatewayOptions gateway_options;
    gateway_options.port = port;
    serving->gateway = std::make_unique<server::CrowdGateway>(
        serving->durable.get(), gateway_options);
    Status started = OkStatus();
    for (int attempt = 0; attempt < 100; ++attempt) {
      started = serving->gateway->Start();
      if (started.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(started.ok()) << started.ToString();
    return serving;
  };

  std::unique_ptr<DurableServing> serving = boot(0);
  const uint16_t port = serving->gateway->port();
  ASSERT_NE(port, 0);

  constexpr size_t kClients = 2;
  constexpr size_t kRounds = 12;
  docs::Mutex acked_mutex;
  std::vector<Acked> acked;
  std::atomic<size_t> acked_count{0};

  // A little write-fault chaos on top of the restarts: some responses are
  // dropped after the request was served, forcing the ack-lost retry path.
  FaultInjector::Global().ArmProbabilistic(server::kFaultGatewayWrite, 0.02);

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      client::ResilientClientOptions options;
      options.port = port;
      options.socket.recv_timeout_ms = 2000;
      options.socket.send_timeout_ms = 2000;
      options.max_attempts = 400;
      options.op_deadline_ms = 60000;
      options.max_backoff_ms = 50;
      options.nonce = 0xFACE0000 + c;
      client::ResilientCrowdClient client(options);
      const std::string worker = "chaos-" + std::to_string(c);
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<uint64_t> hit;
        const Status requested = client.RequestTasks(worker, 2, &hit);
        ASSERT_TRUE(requested.ok()) << requested.ToString();
        for (uint64_t task : hit) {
          const uint32_t choice = static_cast<uint32_t>(task % 2);
          const Status submitted = client.SubmitAnswer(worker, task, choice);
          ASSERT_TRUE(submitted.ok()) << submitted.ToString();
          docs::MutexLock lock(&acked_mutex);
          acked.emplace_back(worker, task, choice);
          acked_count.fetch_add(1);
        }
      }
    });
  }

  // Three crash/recover cycles spread across the campaign. The wall-clock
  // escape keeps a wedged client (its ASSERTs only exit its own thread)
  // from spinning this loop forever.
  constexpr size_t kCycles = 3;
  const auto chaos_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  for (size_t cycle = 1; cycle <= kCycles; ++cycle) {
    const size_t mark = cycle * (kClients * kRounds * 2) / (kCycles + 1);
    while (acked_count.load() < mark &&
           std::chrono::steady_clock::now() < chaos_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    serving.reset();  // Stop() + teardown: the "crash"
    serving = boot(port);
  }
  for (auto& thread : clients) thread.join();
  FaultInjector::Global().DisarmAll();
  serving.reset();

  // Recover once more and hold the exactly-once contract.
  auto replayed = EmptySystem();
  DurableDocsSystem recovered(replayed.get(), {dir});
  ASSERT_TRUE(recovered.Recover().ok());
  const std::vector<Acked> replayed_answers = RecoveredAnswers(*replayed);
  EXPECT_EQ(Sorted(replayed_answers), Sorted(acked));

  auto reference = LoadedSystem();
  const std::vector<std::string> worker_ids = replayed->WorkerIds();
  reference->WithLocked([&](DocsSystem& inner) {
    for (const std::string& id : worker_ids) (void)inner.WorkerIndex(id);
    return 0;
  });
  for (const Acked& answer : replayed_answers) {
    ASSERT_TRUE(reference
                    ->SubmitAnswer(std::get<0>(answer), std::get<1>(answer),
                                   std::get<2>(answer))
                    .ok());
  }
  EXPECT_TRUE(BitwiseEqual(Posterior(*replayed), Posterior(*reference)));
  EXPECT_EQ(replayed->InferredChoices(), reference->InferredChoices());
}

TEST_F(DurabilityTest, WireStatsCarryDurabilityCounters) {
  const std::string dir = FreshDir("dur_wire_stats");
  auto system = LoadedSystem();
  DurableDocsSystem durable(system.get(), {dir});
  server::CrowdGateway gateway(&durable);
  ASSERT_TRUE(gateway.Start().ok());

  client::CrowdClientOptions options;
  options.recv_timeout_ms = 5000;
  client::CrowdClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", gateway.port()).ok());
  std::vector<uint64_t> tasks;
  ASSERT_TRUE(client.RequestTasks("w0", 2, &tasks).ok());
  ASSERT_TRUE(client.SubmitAnswer("w0", 0, 0, 81).ok());
  ASSERT_TRUE(client.SubmitAnswer("w0", 0, 0, 81).ok());  // deduped

  net::StatsResp stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(stats.answers_deduped, 1u);
  EXPECT_GE(stats.wal_records, 2u);  // reg + ans
  EXPECT_EQ(stats.num_answers, 1u);
  gateway.Stop();
}

}  // namespace
}  // namespace docs::core

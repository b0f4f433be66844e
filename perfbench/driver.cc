// The repository's layered benchmark driver (see perfbench/README.md).
//
//   perfbench_driver --workload campaign_sync|campaign_async --seed N
//                    --seconds S --trace 0|1 [--workdir DIR] [--rate R]
//
// --rate overrides the session arrival rate; it exists to find the rate at
// which a campaign saturates (README "Arrival rate").
//
// One process self-hosts the durable loopback gateway over the QA campaign
// and drives it from two client connections:
//  1. set-up, timed half of kSetupRepeats times (the last instance serves);
//  2. untimed warm-up: every worker's first session (the golden probe);
//  3. timed open loop of worker sessions at a fixed arrival rate: one
//     RequestTasks followed by one SubmitAnswer per granted task;
//  4. Drain(), then accuracy at the spent answer budget;
//  5. untimed cache fill, then a timed closed loop of RequestTasks only
//     (the warm HIT-browse traffic);
//  6. the other half of the set-ups; setup_s is the fastest of all, by
//     process CPU time.
// --trace 1 repeats the run with spans around every client call, adds
// wire-free passes through DurableDocsSystem and ConcurrentDocsSystem over
// the same schedule, and prints the per-layer metrics instead.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Everything is measured from outside the library, through public
// calls and stats accessors.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_math.h"
#include "client/resilient_client.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/concurrent_docs_system.h"
#include "core/domain_vector.h"
#include "core/durable_docs_system.h"
#include "core/golden_selection.h"
#include "core/incremental_ti.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "net/wire.h"
#include "server/crowd_gateway.h"

namespace {

namespace core = docs::core;
using docs::Status;
using Clock = std::chrono::steady_clock;
using perfbench::Percentile;
using perfbench::Span;

// Paper settings (Section 6): 4000 QA tasks, 20 golden tasks, full EM every
// z = 100 answers, HITs of k = 20 tasks.
constexpr size_t kTasks = 4000;
constexpr size_t kGoldenCount = 20;
constexpr size_t kReinferEvery = 100;
constexpr size_t kHitSize = 20;
constexpr size_t kWorkers = 60;
// The campaign itself (tasks and crowd) is fixed; --seed drives the traffic:
// the session schedule and every answer. A different crowd composition
// moves accuracy by several points, which would drown any change under test.
constexpr uint64_t kDatasetSeed = 3;
constexpr uint64_t kCrowdSeed = 1234;

// Thread budget (README "Noise controls"): two client threads, each owning
// one connection and a fixed half of the workers, two reactors, and scoring
// inline on the serving thread (num_threads = 1 builds no pool). Each client
// thread blocks while its reactor serves it.
constexpr size_t kConnections = 2;
constexpr size_t kReactors = 2;
constexpr size_t kScoringThreads = 1;

// Open-loop arrival rate: a third of the ~15 sessions/s at which the sync
// campaign still keeps up, and low enough that request_p50_us stays clear
// of the sessions that queue behind an inline EM (README "Arrival rate").
constexpr double kSessionsPerSecond = 5.0;
// Share of --seconds spent in the session loop; the rest is the browse loop.
constexpr double kSessionShare = 0.75;
constexpr int kSetupRepeats = 6;
// The browse loop's tail percentile: the highest that host steal left
// steady (README "Tails"). The session loop's tails are printed but not
// gated: 112 requests per run leave no steady percentile between the
// one-session-in-five that waits for the inline EM and the host's steal
// bursts.
constexpr double kBrowseTail = 0.75;
// Floor on the accuracy over the tasks that received answers. QA tasks are
// binary, so chance is 0.5; the tasks the budget never reached stay at
// chance and are left out so the check holds at any run length.
constexpr double kAnsweredAccuracyFloor = 0.60;
// Host steal above this share of the CPUs' time during a timed loop flags
// the run: its timings then say more about the host than the program.
constexpr double kStealWarnShare = 0.05;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Host steal time so far, in seconds, from the aggregate cpu line of
/// /proc/stat (0 where the file is missing). A diagnostic, not a metric.
double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0.0;
  for (uint64_t& field : fields) {
    if (!(in >> field)) return 0.0;
  }
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Paced client threads sleep until each due time; the default 50 us timer
/// slack would otherwise show up as lateness on every call.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Session {
  int64_t due_ns = 0;  // offset from the start of the loop
  size_t worker = 0;
};

/// The open-loop arrival schedule: sessions every 1/rate seconds, each from
/// a worker drawn by activity. Depends on the seed alone, so the sync and
/// async campaigns of one seed offer the identical schedule.
std::vector<Session> MakeSchedule(
    uint64_t seed, const std::vector<docs::crowd::SimulatedWorker>& workers,
    double rate, size_t count) {
  docs::Rng rng(Mix(seed, 0x5e5510));
  std::vector<double> weights;
  for (const auto& worker : workers) weights.push_back(worker.activity);
  std::vector<Session> schedule(count);
  for (size_t i = 0; i < count; ++i) {
    schedule[i].due_ns = static_cast<int64_t>(
        static_cast<double>(i) * 1e9 / rate);
    schedule[i].worker = rng.SampleDiscrete(weights);
  }
  return schedule;
}

uint64_t ScheduleDigest(const std::vector<Session>& schedule) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  auto feed = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Session& session : schedule) {
    feed(static_cast<uint64_t>(session.due_ns));
    feed(session.worker);
    feed(kHitSize);
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Set-up.

struct System {
  std::unique_ptr<docs::kb::SyntheticKb> kb;
  docs::datasets::Dataset dataset;
  std::unique_ptr<core::ConcurrentDocsSystem> facade;
  std::unique_ptr<core::DurableDocsSystem> durable;
  std::unique_ptr<docs::server::CrowdGateway> gateway;
  double setup_cpu_s = 0.0;
  double setup_wall_s = 0.0;

  ~System() {
    if (gateway) gateway->Stop();
  }
};

/// KB, dataset, AddTasks (DVE + golden selection), WAL bootstrap and, with
/// `serve`, gateway start — the whole of set-up, timed as one. Set-up is
/// single-threaded, so its process CPU time is its work without the time
/// the host stole; async mode drains the first publish so that no set-up
/// work is left running on the service thread.
std::unique_ptr<System> Setup(bool async,
                              const std::string& dir, bool serve,
                              std::string* error) {
  auto system = std::make_unique<System>();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return nullptr;
  }
  const auto start = Clock::now();
  const double cpu_start = CpuSeconds();
  system->kb = std::make_unique<docs::kb::SyntheticKb>(
      docs::kb::BuildSyntheticKb());
  system->dataset = docs::datasets::MakeQaDataset(*system->kb, kTasks,
                                                  kDatasetSeed);
  core::DocsSystemOptions options;
  options.golden_count = kGoldenCount;
  options.reinfer_every = kReinferEvery;
  options.num_threads = kScoringThreads;
  options.async_inference = async;
  system->facade = std::make_unique<core::ConcurrentDocsSystem>(
      &system->kb->knowledge_base, options);
  std::vector<core::TaskInput> inputs;
  inputs.reserve(system->dataset.tasks.size());
  for (const auto& task : system->dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  const std::vector<size_t> truths = system->dataset.Truths();
  if (Status status = system->facade->AddTasks(inputs, &truths);
      !status.ok()) {
    *error = "AddTasks: " + status.ToString();
    return nullptr;
  }
  core::DurableOptions durable_options;
  durable_options.dir = dir;
  system->durable = std::make_unique<core::DurableDocsSystem>(
      system->facade.get(), durable_options);
  if (Status status = system->durable->Recover(); !status.ok()) {
    *error = "Recover: " + status.ToString();
    return nullptr;
  }
  if (serve) {
    docs::server::CrowdGatewayOptions gateway_options;
    gateway_options.num_reactors = kReactors;
    system->gateway = std::make_unique<docs::server::CrowdGateway>(
        system->durable.get(), gateway_options);
    if (Status status = system->gateway->Start(); !status.ok()) {
      *error = "gateway start: " + status.ToString();
      return nullptr;
    }
  }
  system->facade->Drain();
  system->setup_cpu_s = CpuSeconds() - cpu_start;
  system->setup_wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return system;
}

// ---------------------------------------------------------------------------
// Call targets: the same session logic drives the wire client, the durable
// layer, or the bare facade.

class Target {
 public:
  virtual ~Target() = default;
  virtual Status Request(size_t conn, const std::string& worker,
                         std::vector<size_t>* tasks) = 0;
  virtual Status Submit(size_t conn, const std::string& worker, size_t task,
                        size_t choice) = 0;
};

class WireTarget : public Target {
 public:
  explicit WireTarget(uint16_t port) {
    for (size_t c = 0; c < kConnections; ++c) {
      docs::client::ResilientClientOptions options;
      options.port = port;
      options.socket.recv_timeout_ms = 10000;
      options.socket.send_timeout_ms = 10000;
      options.nonce = 0x9e7fbe00 + c;  // reproducible request-id namespaces
      clients_.push_back(
          std::make_unique<docs::client::ResilientCrowdClient>(options));
    }
  }
  Status Request(size_t conn, const std::string& worker,
                 std::vector<size_t>* tasks) override {
    Status status = clients_[conn]->RequestTasks(
        worker, static_cast<uint32_t>(kHitSize), &wire_tasks_[conn]);
    tasks->assign(wire_tasks_[conn].begin(), wire_tasks_[conn].end());
    return status;
  }
  Status Submit(size_t conn, const std::string& worker, size_t task,
                size_t choice) override {
    return clients_[conn]->SubmitAnswer(worker, task,
                                        static_cast<uint32_t>(choice));
  }
  docs::client::ResilientCrowdClient& client(size_t conn) {
    return *clients_[conn];
  }

 private:
  std::vector<std::unique_ptr<docs::client::ResilientCrowdClient>> clients_;
  std::vector<uint64_t> wire_tasks_[kConnections];
};

class DurableTarget : public Target {
 public:
  explicit DurableTarget(core::DurableDocsSystem* durable)
      : durable_(durable) {}
  Status Request(size_t, const std::string& worker,
                 std::vector<size_t>* tasks) override {
    return durable_->RequestTasks(worker, kHitSize, tasks);
  }
  Status Submit(size_t conn, const std::string& worker, size_t task,
                size_t choice) override {
    // Nonzero ids, as the wire client sends them, so the dedup window runs.
    return durable_->SubmitAnswer(worker, task, choice,
                                  ((conn + 1) << 40) | ++next_id_[conn]);
  }

 private:
  core::DurableDocsSystem* durable_;
  uint64_t next_id_[kConnections] = {};
};

class FacadeTarget : public Target {
 public:
  explicit FacadeTarget(core::ConcurrentDocsSystem* facade)
      : facade_(facade) {}
  Status Request(size_t, const std::string& worker,
                 std::vector<size_t>* tasks) override {
    *tasks = facade_->RequestTasks(worker, kHitSize);
    return docs::OkStatus();
  }
  Status Submit(size_t, const std::string& worker, size_t task,
                size_t choice) override {
    return facade_->SubmitAnswer(worker, task, choice);
  }

 private:
  core::ConcurrentDocsSystem* facade_;
};

// ---------------------------------------------------------------------------
// Passes.

/// Spans of one pass, one vector per client thread (no sharing while
/// recording); span ids carry the thread in their high bits.
struct Trace {
  std::vector<Span> per_thread[kConnections];
  uint64_t next_id[kConnections] = {};

  uint64_t NewId(size_t conn) { return ((conn + 1) << 48) | ++next_id[conn]; }
  void Add(size_t conn, uint64_t id, uint64_t parent, uint64_t session,
           const char* name, int64_t start_ns, int64_t end_ns) {
    per_thread[conn].push_back({id, parent, session, name, start_ns, end_ns});
  }
  std::vector<Span> All() const {
    std::vector<Span> all;
    for (const auto& spans : per_thread) {
      all.insert(all.end(), spans.begin(), spans.end());
    }
    return all;
  }
};

/// Span names of one pass ("<prefix>.session", "<prefix>.request", ...).
struct SpanNames {
  const char* session;
  const char* request;
  const char* submit;
  const char* browse;
};
constexpr SpanNames kWireSpans{"wire.session", "wire.request", "wire.submit",
                               "wire.browse"};
constexpr SpanNames kDurableSpans{"durable.session", "durable.request",
                                  "durable.submit", "durable.browse"};
constexpr SpanNames kFacadeSpans{"facade.session", "facade.request",
                                 "facade.submit", "facade.browse"};

struct PassResult {
  std::vector<double> request_due_us;   // from the session's due time
  std::vector<double> request_call_us;  // from the send
  std::vector<double> submit_us;
  std::vector<double> lateness_us;
  size_t attempted = 0;
  size_t failed = 0;
  size_t acks = 0;
  size_t bad_hits = 0;  // HITs with a repeated, out-of-range or answered id
  double wall_s = 0.0;

  void Merge(const PassResult& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(request_due_us, other.request_due_us);
    append(request_call_us, other.request_call_us);
    append(submit_us, other.submit_us);
    append(lateness_us, other.lateness_us);
    attempted += other.attempted;
    failed += other.failed;
    acks += other.acks;
    bad_hits += other.bad_hits;
  }
};

/// The campaign's fixed inputs plus the per-system answer books the HIT
/// checks read (each worker is only ever touched by her connection's thread).
struct Campaign {
  uint64_t seed = 0;
  const docs::datasets::Dataset* dataset = nullptr;
  const std::vector<docs::crowd::SimulatedWorker>* workers = nullptr;
  std::vector<std::vector<uint8_t>> answered;  // [worker][task]

  void ResetBooks() {
    answered.assign(workers->size(), std::vector<uint8_t>(kTasks, 0));
  }

  size_t Answer(size_t worker, size_t task) const {
    const auto& spec = dataset->tasks[task];
    docs::Rng rng(Mix(Mix(seed, worker), task));
    return docs::crowd::GenerateAnswer((*workers)[worker], spec.true_domain,
                                       spec.truth, spec.num_choices(), rng);
  }

  /// A granted HIT is well formed: at most k distinct, in-range ids the
  /// worker has not answered yet.
  bool HitOk(size_t worker, const std::vector<size_t>& hit) const {
    if (hit.size() > kHitSize) return false;
    std::vector<size_t> sorted(hit);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return false;
    }
    for (size_t task : hit) {
      if (task >= kTasks || answered[worker][task] != 0) return false;
    }
    return true;
  }
};

/// How a pass walks the session schedule.
enum class Pacing {
  /// Open loop: kConnections threads, worker w on connection
  /// w % kConnections, each session started at its due time.
  kOpenLoop,
  /// The same due times, one thread: the wire-free passes, where each call's
  /// service time is the point. Pacing keeps async inference from falling
  /// behind into queue backpressure, as it would back to back.
  kPacedSerial,
  /// One thread, sessions back to back in schedule order (warm-up).
  kSerial,
};

PassResult RunSessions(Campaign& campaign, Target& target,
                       const std::vector<Session>& schedule, Pacing pacing,
                       Trace* trace, const SpanNames& names) {
  const bool paced = pacing != Pacing::kSerial;
  const size_t lanes = pacing == Pacing::kOpenLoop ? kConnections : 1;
  std::vector<PassResult> results(lanes);
  const int64_t base_ns = NowNs() + 2'000'000;  // threads start in step
  auto drive = [&](size_t lane) {
    TightenTimerSlack();
    PassResult& out = results[lane];
    std::vector<size_t> hit;
    for (size_t index = 0; index < schedule.size(); ++index) {
      const Session& session = schedule[index];
      const size_t conn = session.worker % kConnections;
      if (lanes > 1 && conn != lane) continue;
      const std::string& worker_id = (*campaign.workers)[session.worker].id;
      const int64_t due = base_ns + session.due_ns;
      if (paced) {
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      const int64_t session_start = NowNs();
      const int64_t session_due = paced ? due : session_start;
      const uint64_t session_span = trace ? trace->NewId(lane) : 0;
      out.lateness_us.push_back(
          perfbench::DueLatencyUs(session_due, session_start));
      ++out.attempted;
      const int64_t request_start = NowNs();
      Status status = target.Request(conn, worker_id, &hit);
      const int64_t request_end = NowNs();
      if (trace) {
        trace->Add(lane, trace->NewId(lane), session_span, index + 1,
                   names.request, request_start, request_end);
      }
      if (!status.ok()) {
        ++out.failed;
        continue;
      }
      out.request_due_us.push_back(
          perfbench::DueLatencyUs(session_due, request_end));
      out.request_call_us.push_back(
          static_cast<double>(request_end - request_start) / 1e3);
      if (!campaign.HitOk(session.worker, hit)) ++out.bad_hits;
      for (size_t task : hit) {
        if (task >= kTasks) continue;
        const size_t choice = campaign.Answer(session.worker, task);
        ++out.attempted;
        const int64_t submit_start = NowNs();
        status = target.Submit(conn, worker_id, task, choice);
        const int64_t submit_end = NowNs();
        if (trace) {
          trace->Add(lane, trace->NewId(lane), session_span, index + 1,
                     names.submit, submit_start, submit_end);
        }
        if (!status.ok()) {
          ++out.failed;
          continue;
        }
        ++out.acks;
        campaign.answered[session.worker][task] = 1;
        out.submit_us.push_back(
            static_cast<double>(submit_end - submit_start) / 1e3);
      }
      if (trace) {
        trace->Add(lane, session_span, 0, index + 1, names.session,
                   session_start, NowNs());
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) threads.emplace_back(drive, lane);
  for (auto& thread : threads) thread.join();
  PassResult merged;
  for (const auto& result : results) merged.Merge(result);
  merged.wall_s = static_cast<double>(NowNs() - base_ns) / 1e9;
  return merged;
}

/// Untimed fill before the browse loop: one request per worker refreshes
/// her cache row and index after the last full EM of the campaign.
PassResult FillCaches(Campaign& campaign, Target& target) {
  PassResult fill;
  std::vector<size_t> hit;
  for (size_t w = 0; w < campaign.workers->size(); ++w) {
    ++fill.attempted;
    if (!target.Request(w % kConnections, (*campaign.workers)[w].id, &hit)
             .ok()) {
      ++fill.failed;
    }
  }
  return fill;
}

/// Closed loop of RequestTasks only for `seconds`: each connection's thread
/// cycles over its workers, sending the next request when the previous one
/// returned. The HITs are checked but not answered, so nothing moves the
/// inference state and every request after the fill is warm.
PassResult RunBrowse(Campaign& campaign, Target& target, double seconds,
                     Trace* trace, const SpanNames& names) {
  std::vector<PassResult> results(kConnections);
  const int64_t start_ns = NowNs();
  const int64_t stop_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  auto drive = [&](size_t conn) {
    PassResult& out = results[conn];
    std::vector<size_t> granted;
    size_t worker = conn;
    for (int64_t now = start_ns; now < stop_ns;) {
      const std::string& worker_id = (*campaign.workers)[worker].id;
      ++out.attempted;
      Status status = target.Request(conn, worker_id, &granted);
      const int64_t end = NowNs();
      if (trace) {
        trace->Add(conn, trace->NewId(conn), 0, 0, names.browse, now, end);
      }
      if (!status.ok()) {
        ++out.failed;
      } else {
        out.request_call_us.push_back(static_cast<double>(end - now) / 1e3);
        if (!campaign.HitOk(worker, granted)) ++out.bad_hits;
      }
      worker += kConnections;
      if (worker >= campaign.workers->size()) worker = conn;
      now = end;
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
  for (auto& thread : threads) thread.join();
  PassResult merged;
  for (const auto& result : results) merged.Merge(result);
  merged.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return merged;
}

// ---------------------------------------------------------------------------
// One full run of the workload against one system.

struct OtaCounters {
  uint64_t row_misses = 0;
  uint64_t request_hits = 0;
  uint64_t request_misses = 0;
  uint64_t pops = 0;
  uint64_t rebuilds = 0;
  uint64_t generations = 0;

  static OtaCounters Read(core::ConcurrentDocsSystem& facade) {
    OtaCounters out;
    out.row_misses = facade.benefit_cache_misses();
    out.request_hits = facade.benefit_cache_request_hits();
    out.request_misses = facade.benefit_cache_request_misses();
    out.pops = facade.benefit_index_pops();
    out.rebuilds = facade.benefit_index_rebuilds();
    out.generations = facade.benefit_index_generation_invalidations();
    return out;
  }
  OtaCounters Since(const OtaCounters& before) const {
    return {row_misses - before.row_misses,
            request_hits - before.request_hits,
            request_misses - before.request_misses, pops - before.pops,
            rebuilds - before.rebuilds, generations - before.generations};
  }
};

struct RunResult {
  PassResult warmup;
  PassResult sessions;
  PassResult fill;
  PassResult browse;
  double accuracy = 0.0;
  double answered_accuracy = 0.0;
  double drain_ms = 0.0;
  // Process CPU from the start of the session loop until Drain() returns,
  // so queued answers and a background EM still in flight are counted.
  double session_cpu_s = 0.0;
  double browse_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double session_steal_s = 0.0;  // host steal during each timed loop
  double browse_steal_s = 0.0;
  core::DurableStats durable_before;
  core::DurableStats durable_after;
  OtaCounters session_ota;
  OtaCounters browse_ota;
  core::InferenceServiceStats service_before;
  core::InferenceServiceStats service_after;
  std::vector<std::string> check_failures;
};

/// Warm-up, timed session loop, drain + accuracy, browse loop; then the
/// exactly-once checks against the system's own counters.
RunResult RunWorkload(Campaign& campaign, System& system, Target& target,
                      const std::vector<Session>& schedule, Pacing pacing,
                      double browse_seconds, Trace* trace,
                      const SpanNames& names) {
  RunResult run;
  campaign.ResetBooks();
  core::ConcurrentDocsSystem& facade = *system.facade;
  std::vector<Session> warmup;
  for (size_t w = 0; w < campaign.workers->size(); ++w) {
    warmup.push_back({0, w});
  }
  run.warmup = RunSessions(campaign, target, warmup, Pacing::kSerial, nullptr,
                           names);
  facade.Drain();  // the timed loop starts from a settled snapshot

  const OtaCounters ota_before = OtaCounters::Read(facade);
  run.service_before = facade.async_stats().service;
  run.durable_before = system.durable->stats();
  const double steal_start = HostStealSeconds();
  const double cpu_start = CpuSeconds();
  run.sessions = RunSessions(campaign, target, schedule, pacing, trace,
                             names);
  const auto drain_start = Clock::now();
  facade.Drain();
  run.drain_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           drain_start)
                     .count();
  run.session_cpu_s = CpuSeconds() - cpu_start;
  run.service_after = facade.async_stats().service;
  run.durable_after = system.durable->stats();
  run.session_ota = OtaCounters::Read(facade).Since(ota_before);
  const std::vector<size_t> inferred = facade.InferredChoices();
  const std::vector<size_t> truths = campaign.dataset->Truths();
  run.accuracy = docs::benchutil::Accuracy(inferred, truths);
  size_t answered = 0;
  size_t answered_correct = 0;
  for (size_t task = 0; task < truths.size(); ++task) {
    bool any = false;
    for (const auto& books : campaign.answered) any = any || books[task] != 0;
    if (!any) continue;
    ++answered;
    answered_correct += inferred[task] == truths[task];
  }
  run.answered_accuracy = Ratio(static_cast<double>(answered_correct),
                                static_cast<double>(answered));

  // The browse loop only reads, so the campaign's peak memory is reached
  // by now; reading it later would count the loop's latency samples.
  run.peak_rss_mb = PeakRssMb();
  run.fill = FillCaches(campaign, target);
  const OtaCounters browse_before = OtaCounters::Read(facade);
  const double steal_browse = HostStealSeconds();
  const double browse_cpu_start = CpuSeconds();
  run.browse = RunBrowse(campaign, target, browse_seconds, trace, names);
  run.browse_cpu_s = CpuSeconds() - browse_cpu_start;
  run.session_steal_s = steal_browse - steal_start;
  run.browse_steal_s = HostStealSeconds() - steal_browse;
  run.browse_ota = OtaCounters::Read(facade).Since(browse_before);

  // Exactly once: every ack applied once, logged once, never deduplicated.
  const size_t acks = run.warmup.acks + run.sessions.acks;
  const size_t applied = facade.num_answers();
  const core::DurableStats durable = system.durable->stats();
  const bool via_durable = dynamic_cast<FacadeTarget*>(&target) == nullptr;
  auto fail = [&run](const std::string& what) {
    run.check_failures.push_back(what);
  };
  if (applied != acks) {
    fail("num_answers " + std::to_string(applied) + " != acks " +
         std::to_string(acks));
  }
  if (via_durable) {
    // One WAL record per answer plus one per first-contact registration.
    const size_t registrations = campaign.workers->size();
    if (durable.wal_appends != acks + registrations) {
      fail("wal_appends " + std::to_string(durable.wal_appends) +
           " != acks + registrations " + std::to_string(acks + registrations));
    }
    if (durable.answers_applied != acks) {
      fail("answers_applied " + std::to_string(durable.answers_applied) +
           " != acks " + std::to_string(acks));
    }
  }
  if (durable.answers_deduped != 0) {
    fail("answers_deduped " + std::to_string(durable.answers_deduped));
  }
  const size_t bad_hits =
      run.warmup.bad_hits + run.sessions.bad_hits + run.browse.bad_hits;
  if (bad_hits != 0) fail(std::to_string(bad_hits) + " malformed HITs");
  if (run.warmup.failed + run.sessions.failed + run.fill.failed +
          run.browse.failed !=
      0) {
    fail("failed calls");
  }
  if (run.answered_accuracy <= kAnsweredAccuracyFloor) {
    fail("accuracy over answered tasks " +
         std::to_string(run.answered_accuracy) + " <= floor " +
         std::to_string(kAnsweredAccuracyFloor));
  }
  return run;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
  double rate = kSessionsPerSecond;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--rate") {
      args->rate = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (args->workload == "campaign_sync" ||
          args->workload == "campaign_async") &&
         args->seconds > 0 && args->rate > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload campaign_sync|"
                 "campaign_async --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--rate R]\n");
    return 2;
  }
  const bool async = args.workload == "campaign_async";
  const double steal_start = HostStealSeconds();
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("workload %s  seed %" PRIu64 "  seconds %.3g  trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  // A client thread blocks while its reactor serves it, so at most one of
  // each pair runs at a time.
  std::printf("threads: %zu client + %zu reactors + %zu scoring pool + %d "
              "service; at most %zu runnable (nproc %u)\n",
              kConnections, kReactors, kScoringThreads - 1, async ? 1 : 0,
              kConnections + (async ? 1 : 0), cpus);

  std::string error;
  int setup_index = 0;
  auto setup = [&](bool serve) {
    const std::string dir =
        args.workdir + "/system-" + std::to_string(setup_index++);
    auto system = Setup(async, dir, serve, &error);
    if (!system) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      std::exit(1);
    }
    return system;
  };

  // Set-up is timed kSetupRepeats times: half before the run (the last of
  // these serves it) and half after, so the samples span the whole run
  // rather than one stretch of the host's load.
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  auto timed_setup = [&]() {
    auto system = setup(/*serve=*/true);
    setup_cpu.push_back(system->setup_cpu_s);
    setup_wall.push_back(system->setup_wall_s);
    return system;
  };
  std::unique_ptr<System> system;
  for (int repeat = 0; repeat < (args.trace ? 1 : kSetupRepeats / 2);
       ++repeat) {
    system.reset();
    system = timed_setup();
  }

  const auto workers = docs::benchutil::PoolFor(system->dataset, kWorkers,
                                                kCrowdSeed);
  const double session_seconds = args.seconds * kSessionShare;
  const double browse_seconds = args.seconds - session_seconds;
  const auto schedule = MakeSchedule(
      args.seed, workers, args.rate,
      static_cast<size_t>(session_seconds * args.rate));
  std::printf("schedule_digest %016" PRIx64 "  sessions %zu  rate %.3g/s\n",
              ScheduleDigest(schedule), schedule.size(), args.rate);

  Campaign campaign;
  campaign.seed = args.seed;
  campaign.dataset = &system->dataset;
  campaign.workers = &workers;

  WireTarget wire(system->gateway->port());
  RunResult run = RunWorkload(campaign, *system, wire, schedule,
                              Pacing::kOpenLoop, browse_seconds, nullptr,
                              kWireSpans);
  const docs::server::GatewayStats gateway_stats = system->gateway->stats();
  std::vector<std::string> failures = run.check_failures;
  if (gateway_stats.requests_shed != 0) failures.push_back("requests shed");

  const size_t attempted = run.sessions.attempted + run.browse.attempted;
  const size_t failed = run.sessions.failed + run.browse.failed +
                        static_cast<size_t>(gateway_stats.requests_shed);
  const double session_calls =
      static_cast<double>(run.sessions.request_due_us.size() +
                          run.sessions.submit_us.size());
  const double request_p50 = Percentile(run.sessions.request_due_us, 0.5);
  const double browse_p50 = Percentile(run.browse.request_call_us, 0.5);
  const double browse_calls =
      static_cast<double>(run.browse.request_call_us.size());
  const double lateness_p90 = Percentile(run.sessions.lateness_us, 0.9);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"request_p50_us", request_p50, "us"},
        {"cpu_us_per_op", Ratio(run.session_cpu_s * 1e6, session_calls),
         "us"},
        {"accuracy_at_budget", run.accuracy, "share"},
        {"browse_p50_us", browse_p50, "us"},
        {"browse_tail_us", Percentile(run.browse.request_call_us, kBrowseTail),
         "us"},
        {"browse_cpu_us_per_op",
         Ratio(run.browse_cpu_s * 1e6, browse_calls), "us"},
        {"peak_rss_mb", run.peak_rss_mb, "MB"},
    };
  } else {
    // The traced pass: same workload, same seed, a fresh system.
    system.reset();
    auto traced_system = setup(/*serve=*/true);
    {
      // Set-up's two ingest stages, timed on their own: DVE over every task
      // text, then golden selection over the resulting domain vectors.
      core::DomainVectorEstimator estimator(&traced_system->kb->knowledge_base);
      auto start = Clock::now();
      for (const auto& task : traced_system->dataset.tasks) {
        if (estimator.Estimate(task.text).empty()) std::abort();
      }
      const double dve_us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      metrics.push_back(
          {"dve.us_per_task", dve_us / static_cast<double>(kTasks), "us"});
      const std::vector<core::Task> tasks = traced_system->facade->WithLocked(
          [](core::DocsSystem& docs_system) { return docs_system.tasks(); });
      start = Clock::now();
      if (core::SelectGoldenTasks(tasks, kGoldenCount).tasks.size() !=
          kGoldenCount) {
        failures.push_back("golden selection size");
      }
      metrics.push_back(
          {"golden.select_ms",
           std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count(),
           "ms"});
    }

    Campaign traced_campaign = campaign;
    traced_campaign.dataset = &traced_system->dataset;
    Trace trace;
    WireTarget traced_wire(traced_system->gateway->port());
    RunResult traced = RunWorkload(traced_campaign, *traced_system,
                                   traced_wire, schedule, Pacing::kOpenLoop,
                                   browse_seconds, &trace, kWireSpans);
    const core::DurableStats& durable_before = traced.durable_before;
    const core::DurableStats& durable_after = traced.durable_after;
    for (const auto& failure : traced.check_failures) {
      failures.push_back("traced: " + failure);
    }
    auto per_request = [](uint64_t count, uint64_t requests) {
      return Ratio(static_cast<double>(count), static_cast<double>(requests));
    };
    const OtaCounters& ota = traced.session_ota;
    const OtaCounters& browse_ota = traced.browse_ota;
    const uint64_t ota_requests = ota.request_hits + ota.request_misses;
    const uint64_t browse_requests =
        browse_ota.request_hits + browse_ota.request_misses;

    // Wire-free passes over the same schedule: the durable layer, then the
    // bare facade, each on its own fresh system.
    auto durable_system = setup(/*serve=*/false);
    Campaign durable_campaign = campaign;
    durable_campaign.dataset = &durable_system->dataset;
    DurableTarget durable_target(durable_system->durable.get());
    RunResult durable_run =
        RunWorkload(durable_campaign, *durable_system, durable_target,
                    schedule, Pacing::kPacedSerial, /*browse_seconds=*/0.0,
                    &trace, kDurableSpans);
    durable_system.reset();
    auto facade_system = setup(/*serve=*/false);
    Campaign facade_campaign = campaign;
    facade_campaign.dataset = &facade_system->dataset;
    FacadeTarget facade_target(facade_system->facade.get());
    RunResult facade_run =
        RunWorkload(facade_campaign, *facade_system, facade_target, schedule,
                    Pacing::kPacedSerial, /*browse_seconds=*/0.0, &trace,
                    kFacadeSpans);
    for (const auto& failure : durable_run.check_failures) {
      failures.push_back("durable pass: " + failure);
    }
    for (const auto& failure : facade_run.check_failures) {
      failures.push_back("facade pass: " + failure);
    }

    // Cold scoring cost: a full EM stales every row, so the next request of
    // each worker rescores every eligible task.
    std::vector<double> ns_per_score;
    {
      core::ConcurrentDocsSystem& facade = *facade_system->facade;
      facade.RunFullInference();
      for (const auto& worker : workers) {
        const uint64_t before = facade.benefit_cache_misses();
        const auto start = Clock::now();
        auto hit = facade.RequestTasks(worker.id, kHitSize);
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
        const uint64_t rows = facade.benefit_cache_misses() - before;
        if (rows > 0) ns_per_score.push_back(ns / static_cast<double>(rows));
      }
    }
    facade_system.reset();

    // TI: full EM on the campaign's final state, and the incremental update
    // replayed answer by answer on a standalone engine.
    core::ConcurrentDocsSystem& final_facade = *traced_system->facade;
    std::vector<double> em_ms;
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      final_facade.RunFullInference();
      em_ms.push_back(std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count());
    }
    double on_answer_us = 0.0;
    final_facade.WithLocked([&](core::DocsSystem& docs_system) {
      const core::IncrementalTruthInference& live = docs_system.inference();
      core::IncrementalTruthInference engine(docs_system.tasks(),
                                             live.options());
      for (size_t w = 0; w < live.num_workers(); ++w) {
        if (!engine.SetWorkerQuality(w, live.worker_seed(w)).ok()) {
          std::abort();
        }
      }
      const auto start = Clock::now();
      for (const core::Answer& answer : live.answers()) {
        if (!engine.OnAnswer(answer.worker, answer.task, answer.choice)
                 .ok()) {
          std::abort();
        }
      }
      on_answer_us =
          Ratio(std::chrono::duration<double, std::micro>(Clock::now() -
                                                          start)
                    .count(),
                static_cast<double>(live.num_answers()));
      return 0;
    });

    // Server: the cheapest wire op's round trip, and the reactor spread.
    std::vector<double> stats_rtt;
    for (int i = 0; i < 400; ++i) {
      docs::net::StatsResp stats;
      const auto start = Clock::now();
      Status status = traced_wire.client(0).Stats(&stats);
      if (!status.ok()) failures.push_back("Stats call failed");
      stats_rtt.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count());
    }
    const auto reactor_stats = traced_system->gateway->reactor_stats();
    double served_max = 0.0;
    double served_sum = 0.0;
    for (const auto& reactor : reactor_stats) {
      served_max = std::max(served_max,
                            static_cast<double>(reactor.requests_served));
      served_sum += static_cast<double>(reactor.requests_served);
    }
    const double served_mean =
        Ratio(served_sum, static_cast<double>(reactor_stats.size()));
    const auto traced_gateway = traced_system->gateway->stats();

    // Net: encode and decode of a k-task RequestTasks response frame.
    double encode_ns = 0.0;
    double decode_ns = 0.0;
    {
      docs::net::RequestTasksResp response;
      for (size_t i = 0; i < kHitSize; ++i) response.tasks.push_back(i * 97);
      constexpr int kFrames = 20000;
      std::string bytes;
      auto start = Clock::now();
      for (int i = 0; i < kFrames; ++i) {
        response.tasks[0] = static_cast<uint64_t>(i);
        bytes = docs::net::EncodeFrame(
            docs::net::EncodeRequestTasksResp(response));
      }
      encode_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                           start)
                      .count() /
                  kFrames;
      docs::net::FrameDecoder decoder;
      docs::net::Frame frame;
      docs::net::RequestTasksResp decoded;
      size_t good = 0;
      start = Clock::now();
      for (int i = 0; i < kFrames; ++i) {
        decoder.Append(bytes.data(), bytes.size());
        if (decoder.Next(&frame) == docs::net::FrameDecoder::Result::kFrame &&
            docs::net::DecodeRequestTasksResp(frame, &decoded).ok()) {
          good += decoded.tasks.size();
        }
      }
      decode_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                           start)
                      .count() /
                  kFrames;
      if (good != kFrames * kHitSize) failures.push_back("wire decode");
    }

    // Spans: self time of each session (client-side work between calls),
    // written out for offline inspection.
    const std::vector<Span> spans = trace.All();
    const std::vector<int64_t> self_ns = perfbench::SelfTimesNs(spans);
    std::vector<double> session_self_us;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, kWireSpans.session) == 0) {
        session_self_us.push_back(static_cast<double>(self_ns[i]) / 1e3);
      }
    }
    {
      const std::string path = args.workdir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".tsv";
      std::ofstream out(path);
      out << "id\tparent\tsession\tname\tstart_ns\tend_ns\tself_ns\n";
      for (size_t i = 0; i < spans.size(); ++i) {
        out << spans[i].id << '\t' << spans[i].parent << '\t'
            << spans[i].session << '\t' << spans[i].name << '\t'
            << spans[i].start_ns << '\t' << spans[i].end_ns << '\t'
            << self_ns[i] << '\n';
      }
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }

    auto sum = [](const std::vector<double>& v) {
      double total = 0.0;
      for (double x : v) total += x;
      return total;
    };
    const double wire_call_us = sum(traced.sessions.request_call_us) +
                                sum(traced.sessions.submit_us);
    const double facade_call_us = sum(facade_run.sessions.request_call_us) +
                                  sum(facade_run.sessions.submit_us);
    const auto& service_before = traced.service_before;
    const auto& service_after = traced.service_after;
    const uint64_t publishes =
        service_after.publishes - service_before.publishes;
    const uint64_t applied =
        service_after.answers_applied - service_before.answers_applied;
    const docs::client::ResilientClientStats client0 =
        traced_wire.client(0).stats();
    const docs::client::ResilientClientStats client1 =
        traced_wire.client(1).stats();

    std::vector<Metric> layer = {
        {"ota.rows_rescored_per_request",
         per_request(ota.row_misses, ota_requests), "count"},
        {"ota.ns_per_score", perfbench::Median(ns_per_score), "ns"},
        {"ota.request_hit_rate", per_request(ota.request_hits, ota_requests),
         "share"},
        {"ota.index_pops_per_request", per_request(ota.pops, ota_requests),
         "count"},
        {"ota.index_rebuilds_per_request",
         per_request(ota.rebuilds, ota_requests), "count"},
        {"ota.browse_rows_rescored_per_request",
         per_request(browse_ota.row_misses, browse_requests), "count"},
        {"ota.browse_hit_rate",
         per_request(browse_ota.request_hits, browse_requests), "share"},
        {"ota.browse_index_pops_per_request",
         per_request(browse_ota.pops, browse_requests), "count"},
        {"ota.browse_index_rebuilds_per_request",
         per_request(browse_ota.rebuilds, browse_requests), "count"},
        {"ti.full_em_ms", perfbench::Median(em_ms), "ms"},
        {"ti.em_passes", static_cast<double>(ota.generations), "count"},
        {"ti.on_answer_us", on_answer_us, "us"},
        {"service.publishes", static_cast<double>(publishes), "count"},
        {"service.answers_per_publish",
         Ratio(static_cast<double>(applied), static_cast<double>(publishes)),
         "count"},
        {"service.enqueue_waits",
         static_cast<double>(service_after.enqueue_waits -
                             service_before.enqueue_waits),
         "count"},
        {"service.publish_gap_us",
         Ratio(traced.sessions.wall_s * 1e6, static_cast<double>(publishes)),
         "us"},
        {"service.drain_ms", traced.drain_ms, "ms"},
        {"durable.wal_append_us",
         Percentile(durable_run.sessions.submit_us, 0.5) -
             Percentile(facade_run.sessions.submit_us, 0.5),
         "us"},
        {"durable.wal_appends_per_answer",
         Ratio(static_cast<double>(durable_after.wal_appends -
                                   durable_before.wal_appends),
               static_cast<double>(durable_after.answers_applied -
                                   durable_before.answers_applied)),
         "count"},
        {"facade.request_us",
         Percentile(facade_run.sessions.request_call_us, 0.5), "us"},
        {"facade.submit_us", Percentile(facade_run.sessions.submit_us, 0.5),
         "us"},
        {"facade.wait_share",
         Ratio(wire_call_us - facade_call_us, wire_call_us), "share"},
        {"server.stats_rtt_us", Percentile(stats_rtt, 0.5), "us"},
        {"server.reactor_imbalance", Ratio(served_max, served_mean), "ratio"},
        {"server.requests_shed",
         static_cast<double>(traced_gateway.requests_shed), "count"},
        {"net.encode_ns_per_frame", encode_ns, "ns"},
        {"net.decode_ns_per_frame", decode_ns, "ns"},
        {"client.retries",
         static_cast<double>(client0.retries + client1.retries), "count"},
        {"client.reconnects",
         static_cast<double>(client0.reconnects + client1.reconnects),
         "count"},
        {"client.lateness_p90_us",
         Percentile(traced.sessions.lateness_us, 0.9), "us"},
        {"client.session_self_us", perfbench::Median(session_self_us), "us"},
        {"trace.overhead_request_p50_us",
         Percentile(traced.sessions.request_due_us, 0.5) - request_p50, "us"},
        {"trace.overhead_browse_p50_us",
         Percentile(traced.browse.request_call_us, 0.5) - browse_p50, "us"},
    };
    metrics.insert(metrics.end(), layer.begin(), layer.end());
  }

  if (!args.trace) {
    system.reset();
    while (setup_cpu.size() < static_cast<size_t>(kSetupRepeats)) {
      timed_setup();
    }
    metrics.push_back(
        {"setup_s", *std::min_element(setup_cpu.begin(), setup_cpu.end()),
         "s"});
  }

  // Diagnostics: not metrics, printed above the result line.
  std::printf("accuracy over answered tasks %.4f\n", run.answered_accuracy);
  std::printf("accuracy %.4f  answers %zu  sessions late p90 %.1f us  "
              "requests %zu  submits %zu  browse calls %zu\n",
              run.accuracy, run.warmup.acks + run.sessions.acks, lateness_p90,
              run.sessions.request_due_us.size(),
              run.sessions.submit_us.size(),
              run.browse.request_call_us.size());
  auto quantiles = [](const char* label, const std::vector<double>& v) {
    std::printf("%s n=%zu", label, v.size());
    for (double p : {0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999}) {
      std::printf("  p%g %.1f", p * 100, Percentile(v, p));
    }
    std::printf("\n");
  };
  quantiles("request_us", run.sessions.request_due_us);
  quantiles("submit_us", run.sessions.submit_us);
  quantiles("browse_us", run.browse.request_call_us);
  std::printf("browse throughput %.0f calls/s\n",
              Ratio(browse_calls, run.browse.wall_s));
  std::printf("setup cpu s:");
  for (double t : setup_cpu) std::printf(" %.4f", t);
  std::printf("  wall s:");
  for (double t : setup_wall) std::printf(" %.4f", t);
  const double session_steal_share =
      Ratio(run.session_steal_s, run.sessions.wall_s * cpus);
  const double browse_steal_share =
      Ratio(run.browse_steal_s, run.browse.wall_s * cpus);
  std::printf("\nhost_steal_s %.3f  (session loop %.3f = %.1f%%, browse loop "
              "%.3f = %.1f%% of the CPUs' time)\n",
              HostStealSeconds() - steal_start, run.session_steal_s,
              100 * session_steal_share, run.browse_steal_s,
              100 * browse_steal_share);
  if (std::max(session_steal_share, browse_steal_share) > kStealWarnShare) {
    std::printf("STEAL WARNING: host steal above %.0f%% of the CPUs' time in "
                "a timed loop; read this run's timings with care\n",
                100 * kStealWarnShare);
  }
  for (const auto& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::error_code ec;
  for (int i = 0; i < setup_index; ++i) {
    std::filesystem::remove_all(args.workdir + "/system-" + std::to_string(i),
                                ec);
  }
  PrintResult(failures.empty(), attempted, failed, metrics);
  return 0;
}

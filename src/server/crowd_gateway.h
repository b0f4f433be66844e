#ifndef DOCS_SERVER_CROWD_GATEWAY_H_
#define DOCS_SERVER_CROWD_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/concurrent_docs_system.h"
#include "core/durable_docs_system.h"
#include "net/wire.h"

namespace docs::server {

/// Fault points the gateway evaluates on its I/O edges (chaos tests arm
/// these to prove a flaky network cannot wedge the serving loop).
/// `gateway/recover` fires at the top of a durable Start(): an injected
/// failure aborts the boot before the socket binds, modelling a recovery
/// directory that cannot be read — Start() can simply be retried.
inline constexpr char kFaultGatewayAccept[] = "gateway/accept";
inline constexpr char kFaultGatewayRead[] = "gateway/read";
inline constexpr char kFaultGatewayWrite[] = "gateway/write";
inline constexpr char kFaultGatewayRecover[] = "gateway/recover";

struct CrowdGatewayOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// with port() after Start()).
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Event-loop (reactor) threads behind the single acceptor; each owns its
  /// connections end to end. 1 keeps the historical single-loop behavior.
  size_t num_reactors = 1;
  /// Connection cap PER REACTOR. While every reactor is full the acceptor
  /// stops polling the listener, so further connections wait in the kernel
  /// backlog until a slot frees; a burst that outraces the capacity check
  /// inside one accept sweep is closed immediately.
  size_t max_connections = 64;
  /// Bound on responses queued but not yet handed to the kernel, PER
  /// REACTOR across its connections. Requests arriving past the bound are
  /// shed with a kUnavailable response instead of queueing without limit.
  /// Per-reactor (rather than gateway-global) keeps shedding deterministic:
  /// each reactor evaluates the bound against only the pipelined bursts it
  /// owns, with no cross-thread interleaving in the count.
  size_t max_inflight = 256;
  /// On Stop(), how long to keep flushing buffered responses before closing
  /// the remaining connections hard.
  uint64_t drain_timeout_ms = 2000;
  /// When nonzero, every reactor sweeps expired leases roughly this often
  /// with now = the system's current lease clock. 0 disables the sweep
  /// (clients can still drive expiry explicitly over the wire).
  uint64_t lease_expiry_interval_ms = 0;
};

/// The gateway's own monotonic counters plus the durable layer's, exposed
/// for tests, the load generator, and the wire Stats response. The wrapped
/// facade's counters (benefit index, async inference) are read
/// from ConcurrentDocsSystem itself. Snapshot semantics: each value is an
/// independent atomic load (the struct is not a consistent cross-counter
/// snapshot); stats() aggregates across reactors, reactor_stats() keeps
/// them apart.
struct GatewayStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t requests_served = 0;
  uint64_t requests_shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t faults_injected = 0;
  uint64_t leases_expired = 0;
  /// Durability counters (wire StatsResp v2); 0 without a durable layer.
  uint64_t answers_deduped = 0;
  uint64_t wal_records = 0;
};

/// TCP serving layer in front of ConcurrentDocsSystem: one acceptor thread
/// owns the listening socket and hands each accepted connection to one of N
/// poll()-based reactor threads (round-robin over reactors with a free
/// slot, woken through their self-pipes). Each reactor owns its
/// connections' buffers, lease sweeps, and overload accounting end to end —
/// no socket is ever touched by two threads. Request handling stays inline
/// on the reactor (DESIGN.md §10); the facade's sharded locking (§13) lets
/// the reactors' RequestTasks calls score in parallel.
///
/// Each reactor handles torn frames (FrameDecoder buffers partial reads),
/// pipelined requests (every complete frame in a read batch is served, in
/// order), overload (bounded in-flight responses per reactor, kUnavailable
/// past the bound), protocol violations (the connection is closed; a byte
/// stream that lost framing cannot be resynchronized), and graceful
/// shutdown (Stop() stops accepting, flushes buffered responses within
/// drain_timeout_ms, then closes).
class CrowdGateway {
 public:
  /// `system` must outlive the gateway.
  CrowdGateway(core::ConcurrentDocsSystem* system,
               CrowdGatewayOptions options = {});

  /// Durable serving: Start() first runs `durable->Recover()` (when it has
  /// not run yet) so a killed gateway restarts into the same campaign, and
  /// SubmitAnswer/RequestTasks dispatch through the WAL + dedup layer.
  /// `durable` (and its facade) must outlive the gateway.
  CrowdGateway(core::DurableDocsSystem* durable,
               CrowdGatewayOptions options = {});
  ~CrowdGateway();

  CrowdGateway(const CrowdGateway&) = delete;
  CrowdGateway& operator=(const CrowdGateway&) = delete;

  /// Binds, listens, and spawns the acceptor and reactor threads. IoError
  /// when the socket setup fails; FailedPrecondition when already running.
  /// Start/Stop are externally serialized (one lifecycle owner); stats
  /// readers may race them freely.
  [[nodiscard]] Status Start() DOCS_EXCLUDES(lifecycle_mutex_);

  /// Graceful shutdown: stop accepting, drain buffered responses on every
  /// reactor, close, join all threads. Idempotent. Never holds
  /// lifecycle_mutex_ while joining, so concurrent stats() calls cannot
  /// block for the drain (pinned by gateway_test).
  void Stop() DOCS_EXCLUDES(lifecycle_mutex_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the ephemeral one when options.port was 0). Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

  /// Gateway-wide counters: per-reactor blocks summed, plus the acceptor's.
  /// EXCLUDES makes a self-deadlock (a handler calling stats() from a
  /// context already under lifecycle_mutex_, e.g. inside a future Stop()
  /// hook) a compile error under -DDOCS_THREAD_SAFETY instead of a hang.
  GatewayStats stats() const DOCS_EXCLUDES(lifecycle_mutex_);
  /// One un-summed counter block per reactor (acceptor-level counters —
  /// rejections, accept/recover faults — appear only in the aggregate).
  /// Valid while the reactors exist, i.e. between Start() and Stop().
  std::vector<GatewayStats> reactor_stats() const
      DOCS_EXCLUDES(lifecycle_mutex_);

 private:
  struct Connection {
    int fd = -1;
    net::FrameDecoder decoder;
    std::string outbuf;
    size_t out_offset = 0;
    /// Byte length of each response still (partially) in outbuf, in order;
    /// popped as the socket drains so the reactor's in-flight count tracks
    /// responses the kernel has fully taken.
    std::deque<size_t> pending_responses;
  };

  /// One event loop: a self-pipe for wakeups/hand-off, its own connection
  /// table and overload accounting, and an atomic counter block the stats
  /// readers aggregate without stopping the loop.
  struct Reactor {
    int wake_pipe[2] = {-1, -1};
    std::thread thread;

    /// Hand-off lane from the acceptor: accepted fds awaiting adoption.
    /// Leaf lock — nothing else is ever acquired under it.
    Mutex handoff_mutex;
    std::vector<int> handoff DOCS_GUARDED_BY(handoff_mutex);
    /// Adopted connections + queued hand-offs; the acceptor reads this to
    /// pick a reactor with a free slot and to gate listener polling.
    std::atomic<size_t> live{0};

    /// Owned by this reactor's loop thread exclusively.
    std::vector<std::unique_ptr<Connection>> connections;
    size_t inflight = 0;
    uint64_t next_sweep_ms = 0;

    /// Written by this reactor (admissions by the acceptor), read anywhere.
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> requests_served{0};
    std::atomic<uint64_t> requests_shed{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> faults_injected{0};
    std::atomic<uint64_t> leases_expired{0};
  };

  void AcceptorLoop() DOCS_EXCLUDES(lifecycle_mutex_);
  /// Drains one accept burst: admits each fd to a reactor with a free slot
  /// (round-robin from the last admission), closes the overflow. `reactors`
  /// is the acceptor's locked snapshot of the reactor set (stable between
  /// Start and Stop, which joins the acceptor before tearing it down).
  void AcceptReady(const std::vector<Reactor*>& reactors);
  /// Moves queued hand-off fds into the reactor's connection table.
  void AdoptHandoff(Reactor& reactor);
  void ReactorLoop(Reactor& reactor);
  /// Reads and serves everything available on `conn`; false => close it.
  bool ReadReady(Reactor& reactor, Connection& conn);
  /// Flushes buffered output; false => close the connection.
  bool WriteReady(Reactor& reactor, Connection& conn);
  /// Serves one decoded frame: dispatch (or shed) and queue the response.
  void ServeFrame(Reactor& reactor, Connection& conn,
                  const net::Frame& request);
  net::Frame Dispatch(Reactor& reactor, const net::Frame& request);
  void CloseConnection(Reactor& reactor, size_t index);
  /// Runs the reactor's periodic lease sweep when its interval elapsed;
  /// returns the poll timeout (ms) until the next due sweep (-1 when
  /// disabled).
  int LeaseSweepTimeout(Reactor& reactor);
  /// Wakes the acceptor (capacity freed / shutdown).
  void WakeAcceptor();
  /// Raw pointers to the current reactor set, taken under lifecycle_mutex_.
  /// The pointees outlive the snapshot holder: only Stop() destroys
  /// reactors, after joining every thread that could hold a snapshot.
  std::vector<Reactor*> SnapshotReactors() const
      DOCS_EXCLUDES(lifecycle_mutex_);
  /// Gateway-wide served/shed totals for the wire Stats response, read
  /// under lifecycle_mutex_ like every other retired_/reactors_ access.
  void SumWireCounters(uint64_t* served, uint64_t* shed) const
      DOCS_EXCLUDES(lifecycle_mutex_);

  core::ConcurrentDocsSystem* system_;
  /// Non-null in durable deployments; answer/request dispatch then goes
  /// through the WAL + dedup layer instead of straight at the facade.
  core::DurableDocsSystem* durable_ = nullptr;
  CrowdGatewayOptions options_;

  int listen_fd_ = -1;
  int acceptor_wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Guards the reactor-set *structure* (rebuilt by Start, cleared by Stop)
  /// and the retired-counter fold below. Leaf with respect to the facade:
  /// never held across a call into ConcurrentDocsSystem/DurableDocsSystem.
  mutable Mutex lifecycle_mutex_;
  /// Sized in Start(), joined and cleared in Stop(). unique_ptr because a
  /// Reactor (mutex + atomics + thread) is neither movable nor copyable.
  /// Every access — including the acceptor's and the wire Stats read on a
  /// reactor thread — goes through the lock or a locked snapshot
  /// (SnapshotReactors); the pointees themselves are stable between Start
  /// and Stop.
  std::vector<std::unique_ptr<Reactor>> reactors_
      DOCS_GUARDED_BY(lifecycle_mutex_);
  /// Round-robin cursor for admissions; acceptor-thread only.
  size_t next_reactor_ = 0;
  /// Counters of reactors from finished runs, folded in by Stop() so
  /// stats() stays cumulative across Start/Stop cycles. Only the reactor
  /// counter fields are meaningful.
  GatewayStats retired_ DOCS_GUARDED_BY(lifecycle_mutex_);

  // Acceptor-level counters (reactor-level ones live in each Reactor).
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace docs::server

#endif  // DOCS_SERVER_CROWD_GATEWAY_H_

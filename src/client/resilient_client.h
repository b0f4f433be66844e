#ifndef DOCS_CLIENT_RESILIENT_CLIENT_H_
#define DOCS_CLIENT_RESILIENT_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client/crowd_client.h"
#include "common/status.h"
#include "net/wire.h"

namespace docs::client {

struct ResilientClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Socket options for each underlying connection. Always set a receive
  /// timeout: a gateway killed mid-response otherwise blocks the retry loop
  /// until TCP gives up.
  CrowdClientOptions socket;
  /// Attempt budget per operation (first try + retries).
  size_t max_attempts = 8;
  /// Exponential backoff between attempts, with ±50% deterministic jitter
  /// so a fleet of clients retrying into a restarting gateway does not
  /// stampede in lockstep.
  uint64_t initial_backoff_ms = 2;
  double backoff_multiplier = 2.0;
  uint64_t max_backoff_ms = 250;
  /// Per-operation wall-clock budget in milliseconds; once exceeded no
  /// further retry is attempted (the last error is returned). 0 = only the
  /// attempt budget bounds the operation.
  uint64_t op_deadline_ms = 30000;
  /// Namespace for generated request ids and jitter seed. 0 derives one
  /// from the clock and object identity; set it explicitly for
  /// reproducibility.
  uint64_t nonce = 0;
};

/// Counters exposed for the chaos harness and perfbench reporting.
struct ResilientClientStats {
  uint64_t retries = 0;         ///< attempts after the first, any op
  uint64_t reconnects = 0;      ///< successful re-Connects after a drop
  uint64_t timeouts = 0;        ///< attempts that failed on a send/recv timeout
  uint64_t duplicate_acks = 0;  ///< retried submits acked as already-applied
};

/// Retry/reconnect wrapper over CrowdClient: the client side of the
/// exactly-once contract (DESIGN.md §12).
///
/// Retry policy: kUnavailable (overload shed, WAL unavailable, draining
/// restart), kIoError (torn connection, timeout) and kDataLoss (response
/// stream lost framing mid-crash) are retried with exponential backoff +
/// jitter after reconnecting; every other code is the server's verdict on a
/// delivered request and is returned as-is. A SubmitAnswer retry resends
/// the *same* request_id, so the gateway's dedup window (or, after a
/// checkpoint-hole recovery, the duplicate-answer check) acknowledges it
/// without double-applying; kAlreadyExists on a retry therefore counts as
/// success (`duplicate_acks`).
///
/// Not thread-safe: one instance per driving thread, like CrowdClient.
class ResilientCrowdClient {
 public:
  explicit ResilientCrowdClient(ResilientClientOptions options);

  [[nodiscard]] Status RequestTasks(const std::string& worker_id, uint32_t k,
                                    std::vector<uint64_t>* tasks);
  /// Assigns a fresh request_id from this client's nonce namespace and
  /// submits with retry. Exactly-once: the answer is applied at most once
  /// server-side no matter how many transport failures the retries ride
  /// through.
  [[nodiscard]] Status SubmitAnswer(const std::string& worker_id,
                                    uint64_t task, uint32_t choice);
  [[nodiscard]] Status ExpireLeases(uint64_t now,
                                    std::vector<net::WireExpiredLease>*
                                        expired);
  [[nodiscard]] Status Stats(net::StatsResp* stats);

  void Close() { client_.Close(); }
  bool connected() const { return client_.connected(); }

  ResilientClientStats stats() const;

  /// True for the codes the retry loop considers transient.
  static bool IsRetryable(StatusCode code);

 private:
  /// Runs `op` under the retry policy. `op` gets the 0-based attempt index
  /// (SubmitAnswer uses it to treat kAlreadyExists on a retry as a
  /// duplicate ack).
  [[nodiscard]] Status RunWithRetry(
      const std::function<Status(size_t attempt)>& op);
  [[nodiscard]] Status EnsureConnected();
  /// Deterministic jitter in [0.5, 1.5) from the nonce-seeded sequence.
  double NextJitter();

  ResilientClientOptions options_;
  CrowdClient client_;
  uint64_t jitter_state_ = 0;
  uint64_t next_request_seq_ = 0;
  bool ever_connected_ = false;

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> duplicate_acks_{0};
};

}  // namespace docs::client

#endif  // DOCS_CLIENT_RESILIENT_CLIENT_H_

#include "server/crowd_gateway.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_utils.h"

namespace docs::server {
namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void WakePipe(int write_fd) {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; the write may fail.
  ssize_t ignored = ::write(write_fd, &byte, 1);
  (void)ignored;
}

void DrainPipe(int read_fd) {
  char drain[64];
  while (::read(read_fd, drain, sizeof(drain)) > 0) {
  }
}

}  // namespace

CrowdGateway::CrowdGateway(core::ConcurrentDocsSystem* system,
                           CrowdGatewayOptions options)
    : system_(system), options_(options) {
  if (options_.num_reactors == 0) options_.num_reactors = 1;
  if (options_.max_inflight == 0) options_.max_inflight = 1;
}

CrowdGateway::CrowdGateway(core::DurableDocsSystem* durable,
                           CrowdGatewayOptions options)
    : CrowdGateway(durable->facade(), options) {
  durable_ = durable;
}

CrowdGateway::~CrowdGateway() { Stop(); }

Status CrowdGateway::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("gateway already running");
  }
  if (durable_ != nullptr && !durable_->recovered()) {
    if (DOCS_FAULT_POINT(kFaultGatewayRecover)) {
      faults_injected_.fetch_add(1);
      return IoError("injected recovery failure");
    }
    // Recover before binding: no client can reach a gateway whose state is
    // not yet the pre-crash state. A failed recovery leaves the gateway
    // stopped; Start() can be retried once the cause clears.
    Status recovered = durable_->Recover();
    if (!recovered.ok()) return recovered;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return IoError("socket: " + ErrnoString(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = IoError(std::string("bind: ") + ErrnoString(errno));
    CloseFd(listen_fd_);
    return status;
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    Status status = IoError(std::string("listen: ") + ErrnoString(errno));
    CloseFd(listen_fd_);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    Status status =
        IoError(std::string("getsockname: ") + ErrnoString(errno));
    CloseFd(listen_fd_);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe2(acceptor_wake_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) {
    Status status = IoError(std::string("pipe2: ") + ErrnoString(errno));
    CloseFd(listen_fd_);
    return status;
  }

  // Build the reactor set fresh on every (re)start; counters from previous
  // runs were folded into retired_ by Stop().
  std::vector<std::unique_ptr<Reactor>> reactors;
  reactors.reserve(options_.num_reactors);
  for (size_t i = 0; i < options_.num_reactors; ++i) {
    auto reactor = std::make_unique<Reactor>();
    if (::pipe2(reactor->wake_pipe, O_NONBLOCK | O_CLOEXEC) < 0) {
      Status status = IoError(std::string("pipe2: ") + ErrnoString(errno));
      for (auto& built : reactors) {
        CloseFd(built->wake_pipe[0]);
        CloseFd(built->wake_pipe[1]);
      }
      CloseFd(acceptor_wake_pipe_[0]);
      CloseFd(acceptor_wake_pipe_[1]);
      CloseFd(listen_fd_);
      return status;
    }
    reactors.push_back(std::move(reactor));
  }
  // Install under the lifecycle lock, then spawn from a snapshot taken in
  // the same critical section: the set is immutable until Stop() (which
  // joins every thread before touching it again), so loops hold raw
  // pointers instead of re-locking per iteration.
  std::vector<Reactor*> live;
  live.reserve(reactors.size());
  for (auto& reactor : reactors) live.push_back(reactor.get());
  {
    MutexLock lock(&lifecycle_mutex_);
    reactors_ = std::move(reactors);
  }
  next_reactor_ = 0;

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (Reactor* reactor : live) {
    reactor->thread =
        std::thread(&CrowdGateway::ReactorLoop, this, std::ref(*reactor));
  }
  acceptor_ = std::thread(&CrowdGateway::AcceptorLoop, this);
  DOCS_LOG(Info) << "crowd gateway listening on 127.0.0.1:" << port_
                 << " with " << live.size() << " reactor(s)";
  return OkStatus();
}

void CrowdGateway::Stop() {
  if (!acceptor_.joinable() && SnapshotReactors().empty()) return;
  stop_requested_.store(true, std::memory_order_release);
  // The acceptor goes first so no new connections race the drain.
  WakeAcceptor();
  if (acceptor_.joinable()) acceptor_.join();
  // Wake and join through a snapshot so the (up to drain_timeout_ms) wait
  // happens outside lifecycle_mutex_ — a concurrent stats() call must never
  // block on the drain. The set itself cannot change underneath us: Start
  // and Stop are externally serialized, and only they write reactors_.
  const std::vector<Reactor*> live = SnapshotReactors();
  for (Reactor* reactor : live) WakePipe(reactor->wake_pipe[1]);
  for (Reactor* reactor : live) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  {
    // Fold the finished reactors' counters into the retired block so
    // stats() stays cumulative across Start/Stop cycles, as it was when
    // the counters were plain members.
    MutexLock lock(&lifecycle_mutex_);
    for (auto& reactor : reactors_) {
      retired_.connections_accepted += reactor->connections_accepted.load();
      retired_.requests_served += reactor->requests_served.load();
      retired_.requests_shed += reactor->requests_shed.load();
      retired_.protocol_errors += reactor->protocol_errors.load();
      retired_.faults_injected += reactor->faults_injected.load();
      retired_.leases_expired += reactor->leases_expired.load();
      CloseFd(reactor->wake_pipe[0]);
      CloseFd(reactor->wake_pipe[1]);
    }
    reactors_.clear();
  }
  CloseFd(acceptor_wake_pipe_[0]);
  CloseFd(acceptor_wake_pipe_[1]);
  running_.store(false, std::memory_order_release);
}

std::vector<CrowdGateway::Reactor*> CrowdGateway::SnapshotReactors() const {
  MutexLock lock(&lifecycle_mutex_);
  std::vector<Reactor*> out;
  out.reserve(reactors_.size());
  for (const auto& reactor : reactors_) out.push_back(reactor.get());
  return out;
}

void CrowdGateway::SumWireCounters(uint64_t* served, uint64_t* shed) const {
  MutexLock lock(&lifecycle_mutex_);
  *served = retired_.requests_served;
  *shed = retired_.requests_shed;
  for (const auto& reactor : reactors_) {
    *served += reactor->requests_served.load();
    *shed += reactor->requests_shed.load();
  }
}

GatewayStats CrowdGateway::stats() const {
  GatewayStats out;
  {
    // Only the retired block and the live reactors' counters need the
    // lifecycle lock; the durable read below happens after it is released
    // so this lock never couples to the serving locks.
    MutexLock lock(&lifecycle_mutex_);
    out = retired_;
    for (const auto& reactor : reactors_) {
      out.connections_accepted += reactor->connections_accepted.load();
      out.requests_served += reactor->requests_served.load();
      out.requests_shed += reactor->requests_shed.load();
      out.protocol_errors += reactor->protocol_errors.load();
      out.faults_injected += reactor->faults_injected.load();
      out.leases_expired += reactor->leases_expired.load();
    }
  }
  out.connections_rejected += connections_rejected_.load();
  out.faults_injected += faults_injected_.load();
  if (durable_ != nullptr) {
    const core::DurableStats durable = durable_->stats();
    out.answers_deduped = durable.answers_deduped;
    out.wal_records = durable.wal_records;
  }
  return out;
}

std::vector<GatewayStats> CrowdGateway::reactor_stats() const {
  MutexLock lock(&lifecycle_mutex_);
  std::vector<GatewayStats> out;
  out.reserve(reactors_.size());
  for (const auto& reactor : reactors_) {
    GatewayStats stats;
    stats.connections_accepted = reactor->connections_accepted.load();
    stats.requests_served = reactor->requests_served.load();
    stats.requests_shed = reactor->requests_shed.load();
    stats.protocol_errors = reactor->protocol_errors.load();
    stats.faults_injected = reactor->faults_injected.load();
    stats.leases_expired = reactor->leases_expired.load();
    out.push_back(stats);
  }
  return out;
}

void CrowdGateway::WakeAcceptor() { WakePipe(acceptor_wake_pipe_[1]); }

int CrowdGateway::LeaseSweepTimeout(Reactor& reactor) {
  if (options_.lease_expiry_interval_ms == 0) return -1;
  const uint64_t now = NowMs();
  if (reactor.next_sweep_ms == 0) {
    reactor.next_sweep_ms = now + options_.lease_expiry_interval_ms;
  }
  if (now >= reactor.next_sweep_ms) {
    const size_t expired =
        system_->ExpireLeases(system_->lease_clock()).size();
    reactor.leases_expired.fetch_add(expired);
    reactor.next_sweep_ms = now + options_.lease_expiry_interval_ms;
  }
  return static_cast<int>(
      std::min<uint64_t>(reactor.next_sweep_ms - now, 1000));
}

void CrowdGateway::AcceptorLoop() {
  // One snapshot for the thread's lifetime: the reactor set is fixed
  // between Start() and Stop(), and Stop() joins this thread before it
  // mutates the set again.
  const std::vector<Reactor*> reactors = SnapshotReactors();
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire)) break;
    // Poll the listener only while some reactor has a free slot; while all
    // are full, further connections wait in the kernel backlog. A reactor
    // freeing a slot wakes this loop, and the bounded timeout backstops a
    // lost wakeup.
    bool capacity = false;
    for (const Reactor* reactor : reactors) {
      if (reactor->live.load(std::memory_order_acquire) <
          options_.max_connections) {
        capacity = true;
        break;
      }
    }
    pollfd fds[2];
    fds[0] = {acceptor_wake_pipe_[0], POLLIN, 0};
    nfds_t nfds = 1;
    if (capacity) {
      fds[1] = {listen_fd_, POLLIN, 0};
      nfds = 2;
    }
    const int ready = ::poll(fds, nfds, 250);
    if (ready < 0) {
      if (errno == EINTR) continue;
      DOCS_LOG(Error) << "gateway acceptor poll: " << ErrnoString(errno);
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) DrainPipe(acceptor_wake_pipe_[0]);
    if (capacity && (fds[1].revents & POLLIN) != 0) AcceptReady(reactors);
  }
  CloseFd(listen_fd_);
}

void CrowdGateway::AcceptReady(const std::vector<Reactor*>& reactors) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DOCS_LOG(Warning) << "gateway accept: " << ErrnoString(errno);
      return;
    }
    if (DOCS_FAULT_POINT(kFaultGatewayAccept)) {
      faults_injected_.fetch_add(1);
      ::close(fd);
      continue;
    }
    // Round-robin admission over reactors with a free slot, continuing from
    // the previous admission so consecutive connections spread out.
    Reactor* chosen = nullptr;
    for (size_t i = 0; i < reactors.size(); ++i) {
      Reactor& candidate = *reactors[(next_reactor_ + i) % reactors.size()];
      if (candidate.live.load(std::memory_order_acquire) <
          options_.max_connections) {
        chosen = &candidate;
        next_reactor_ = (next_reactor_ + i + 1) % reactors.size();
        break;
      }
    }
    if (chosen == nullptr) {
      // The burst outran the capacity gate: shed at the door.
      connections_rejected_.fetch_add(1);
      ::close(fd);
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    chosen->live.fetch_add(1, std::memory_order_acq_rel);
    chosen->connections_accepted.fetch_add(1);
    {
      MutexLock lock(&chosen->handoff_mutex);
      chosen->handoff.push_back(fd);
    }
    WakePipe(chosen->wake_pipe[1]);
  }
}

void CrowdGateway::AdoptHandoff(Reactor& reactor) {
  std::vector<int> adopted;
  {
    MutexLock lock(&reactor.handoff_mutex);
    adopted.swap(reactor.handoff);
  }
  for (int fd : adopted) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    reactor.connections.push_back(std::move(conn));
  }
}

void CrowdGateway::ReactorLoop(Reactor& reactor) {
  uint64_t drain_deadline_ms = 0;
  for (;;) {
    AdoptHandoff(reactor);
    const bool draining = stop_requested_.load(std::memory_order_acquire);
    if (draining) {
      if (drain_deadline_ms == 0) {
        drain_deadline_ms = NowMs() + options_.drain_timeout_ms;
      }
      // Drained (or out of budget): close everything and leave.
      bool pending = false;
      for (auto& conn : reactor.connections) {
        if (conn != nullptr && conn->out_offset < conn->outbuf.size()) {
          pending = true;
          break;
        }
      }
      if (!pending || NowMs() >= drain_deadline_ms) break;
    }

    std::vector<pollfd> fds;
    // Slot 0: wakeups (hand-off, freed capacity elsewhere, shutdown).
    fds.push_back({reactor.wake_pipe[0], POLLIN, 0});
    const size_t conn_base = fds.size();
    std::vector<size_t> conn_index;
    for (size_t i = 0; i < reactor.connections.size(); ++i) {
      Connection& conn = *reactor.connections[i];
      short events = draining ? 0 : POLLIN;
      if (conn.out_offset < conn.outbuf.size()) events |= POLLOUT;
      if (events == 0) continue;  // draining with nothing left to flush
      fds.push_back({conn.fd, events, 0});
      conn_index.push_back(i);
    }

    const int timeout = draining
                            ? static_cast<int>(std::min<uint64_t>(
                                  drain_deadline_ms - NowMs(), 50))
                            : LeaseSweepTimeout(reactor);
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      DOCS_LOG(Error) << "gateway reactor poll: " << ErrnoString(errno);
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) DrainPipe(reactor.wake_pipe[0]);

    std::vector<size_t> to_close;
    for (size_t slot = conn_base; slot < fds.size(); ++slot) {
      const size_t index = conn_index[slot - conn_base];
      Connection& conn = *reactor.connections[index];
      const short revents = fds[slot].revents;
      if (revents == 0) continue;
      bool alive = true;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        alive = false;
      } else {
        // POLLHUP can accompany final readable data; read first.
        if (alive && (revents & (POLLIN | POLLHUP)) != 0) {
          alive = ReadReady(reactor, conn);
        }
        if (alive && (revents & POLLOUT) != 0) {
          alive = WriteReady(reactor, conn);
        }
      }
      if (!alive) to_close.push_back(index);
    }
    // Close in descending index order so earlier indices stay valid.
    std::sort(to_close.rbegin(), to_close.rend());
    for (size_t index : to_close) CloseConnection(reactor, index);
  }

  for (size_t i = reactor.connections.size(); i > 0; --i) {
    CloseConnection(reactor, i - 1);
  }
  // Admissions queued after the last adopt never became connections; close
  // them and return their capacity so the accounting balances.
  MutexLock lock(&reactor.handoff_mutex);
  for (int fd : reactor.handoff) {
    ::close(fd);
    reactor.live.fetch_sub(1, std::memory_order_acq_rel);
  }
  reactor.handoff.clear();
}

bool CrowdGateway::ReadReady(Reactor& reactor, Connection& conn) {
  char buf[4096];
  bool saw_eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (DOCS_FAULT_POINT(kFaultGatewayRead)) {
        reactor.faults_injected.fetch_add(1);
        return false;
      }
      conn.decoder.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // Serve every complete frame in this batch before flushing once: the
  // in-flight bound is evaluated against the whole pipelined burst, which
  // is what makes shedding deterministic under load.
  net::Frame frame;
  std::string error;
  for (;;) {
    const net::FrameDecoder::Result result = conn.decoder.Next(&frame, &error);
    if (result == net::FrameDecoder::Result::kNeedMore) break;
    if (result == net::FrameDecoder::Result::kError) {
      // Framing is gone; nothing further on this stream can be trusted or
      // even delimited, so the only safe response is to drop the link.
      reactor.protocol_errors.fetch_add(1);
      DOCS_LOG(Warning) << "gateway protocol error: " << error;
      return false;
    }
    ServeFrame(reactor, conn, frame);
  }
  if (!WriteReady(reactor, conn)) return false;
  return !saw_eof;
}

void CrowdGateway::ServeFrame(Reactor& reactor, Connection& conn,
                              const net::Frame& request) {
  net::Frame response;
  if (!net::IsRequestType(request.type)) {
    reactor.protocol_errors.fetch_add(1);
    response = net::MakeErrorFrame(
        request.type,
        InvalidArgumentError("response-typed frame sent to server"));
  } else if (reactor.inflight >= options_.max_inflight) {
    reactor.requests_shed.fetch_add(1);
    response = net::MakeErrorFrame(
        net::ResponseTypeFor(request.type),
        UnavailableError("gateway overloaded: in-flight limit reached"));
  } else {
    reactor.requests_served.fetch_add(1);
    response = Dispatch(reactor, request);
  }
  // Mirror the requester's wire version: a v1 peer's decoder rejects any
  // frame stamped with a newer version.
  response.version = request.version;
  const std::string encoded = net::EncodeFrame(response);
  conn.outbuf.append(encoded);
  conn.pending_responses.push_back(encoded.size());
  ++reactor.inflight;
}

net::Frame CrowdGateway::Dispatch(Reactor& reactor,
                                  const net::Frame& request) {
  const net::MessageType resp_type = net::ResponseTypeFor(request.type);
  switch (request.type) {
    case net::MessageType::kRequestTasksReq: {
      net::RequestTasksReq req;
      Status decoded = net::DecodeRequestTasksReq(request, &req);
      if (!decoded.ok()) return net::MakeErrorFrame(resp_type, decoded);
      net::RequestTasksResp resp;
      std::vector<size_t> tasks;
      if (durable_ != nullptr) {
        Status served = durable_->RequestTasks(req.worker_id, req.k, &tasks);
        if (!served.ok()) return net::MakeErrorFrame(resp_type, served);
      } else {
        tasks = system_->RequestTasks(req.worker_id, req.k);
      }
      for (size_t task : tasks) resp.tasks.push_back(task);
      return net::EncodeRequestTasksResp(resp);
    }
    case net::MessageType::kSubmitAnswerReq: {
      net::SubmitAnswerReq req;
      Status decoded = net::DecodeSubmitAnswerReq(request, &req);
      if (!decoded.ok()) return net::MakeErrorFrame(resp_type, decoded);
      Status submitted =
          durable_ != nullptr
              ? durable_->SubmitAnswer(req.worker_id,
                                       static_cast<size_t>(req.task),
                                       static_cast<size_t>(req.choice),
                                       req.request_id)
              : system_->SubmitAnswer(req.worker_id,
                                      static_cast<size_t>(req.task),
                                      static_cast<size_t>(req.choice));
      if (!submitted.ok()) return net::MakeErrorFrame(resp_type, submitted);
      return net::EncodeSubmitAnswerResp();
    }
    case net::MessageType::kExpireLeasesReq: {
      net::ExpireLeasesReq req;
      Status decoded = net::DecodeExpireLeasesReq(request, &req);
      if (!decoded.ok()) return net::MakeErrorFrame(resp_type, decoded);
      net::ExpireLeasesResp resp;
      for (const core::ExpiredLease& lease : system_->ExpireLeases(req.now)) {
        resp.expired.push_back({lease.worker, lease.task, lease.deadline});
      }
      reactor.leases_expired.fetch_add(resp.expired.size());
      return net::EncodeExpireLeasesResp(resp);
    }
    case net::MessageType::kStatsReq: {
      net::StatsResp resp;
      resp.num_tasks = system_->num_tasks();
      resp.num_answers = system_->num_answers();
      resp.outstanding_leases = system_->outstanding_leases();
      resp.lease_clock = system_->lease_clock();
      // Gateway-wide totals: every reactor's counters, plus runs already
      // folded by Stop(), summed under the lifecycle lock — reactor threads
      // may not read retired_/reactors_ bare.
      SumWireCounters(&resp.requests_served, &resp.requests_shed);
      if (durable_ != nullptr) {
        const core::DurableStats durable = durable_->stats();
        resp.answers_deduped = durable.answers_deduped;
        resp.wal_records = durable.wal_records;
      }
      // Encode at the requester's version: v1 peers take the six-counter
      // layout (the blanket version mirror above cannot re-shape a payload).
      return net::EncodeStatsResp(resp, request.version);
    }
    default:
      return net::MakeErrorFrame(
          resp_type, InternalError("unhandled request type"));
  }
}

bool CrowdGateway::WriteReady(Reactor& reactor, Connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    if (DOCS_FAULT_POINT(kFaultGatewayWrite)) {
      reactor.faults_injected.fetch_add(1);
      return false;
    }
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_offset,
               conn.outbuf.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    // Retire fully flushed responses from the in-flight account.
    size_t flushed = static_cast<size_t>(n);
    conn.out_offset += flushed;
    while (flushed > 0 && !conn.pending_responses.empty()) {
      size_t& front = conn.pending_responses.front();
      const size_t take = std::min(front, flushed);
      front -= take;
      flushed -= take;
      if (front == 0) {
        conn.pending_responses.pop_front();
        --reactor.inflight;
      }
    }
  }
  if (conn.out_offset == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > (1u << 16)) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  return true;
}

void CrowdGateway::CloseConnection(Reactor& reactor, size_t index) {
  Connection& conn = *reactor.connections[index];
  reactor.inflight -= conn.pending_responses.size();
  CloseFd(conn.fd);
  reactor.connections.erase(reactor.connections.begin() +
                            static_cast<std::ptrdiff_t>(index));
  reactor.live.fetch_sub(1, std::memory_order_acq_rel);
  // A freed slot may unblock the (possibly idle) acceptor.
  WakeAcceptor();
}

}  // namespace docs::server

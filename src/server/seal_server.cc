#include "server/seal_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "lsm/iterator.h"
#include "lsm/sharded_db.h"
#include "lsm/write_batch.h"
#include "net/socket.h"
#include "net/wire.h"

namespace sealdb::server {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-connection state. The read buffer and epoll bookkeeping are touched
// only by the event-loop thread; the write buffer is shared between the
// workers (append) and the loop (flush) under `mu`.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  const int fd;

  // ---- loop-thread-only state ----
  std::string rbuf;
  bool reading = true;       // EPOLLIN registered
  bool want_write = false;   // EPOLLOUT registered
  bool peer_closed = false;  // EOF, hang-up, or a failed write
  // The fd is registered with epoll. A hung-up peer is taken out at once:
  // EPOLLHUP is reported whatever the interest mask, so a registered fd
  // would wake the loop on every epoll_wait until its requests finish.
  bool watched = true;

  // ---- shared state (guarded by mu unless atomic) ----
  std::mutex mu;
  std::string wbuf;   // pending response bytes
  size_t woff = 0;    // flushed prefix of wbuf
  bool close_after_flush = false;  // protocol error: flush, then close
  bool closed = false;             // fd closed; late responses are dropped
  // Slow-client eviction: the response buffer blew past
  // ServerOptions::max_response_buffer_bytes. The buffered bytes are
  // already discarded; the loop closes the fd at the next opportunity,
  // without waiting for in-flight requests (their late responses drop).
  bool evicted = false;
  // Requests dispatched to the workers but not yet answered. Decremented
  // inside Respond() under `mu`, so "inflight == 0 and wbuf empty" can
  // never be observed between an op finishing and its response landing.
  std::atomic<uint32_t> inflight{0};

  // Listed in pending_flush_ (guarded by the server's pending_mu_), so a
  // connection is listed at most once per flush.
  bool flush_listed = false;
};

using ConnPtr = std::shared_ptr<Connection>;

struct Request {
  ConnPtr conn;
  uint8_t opcode = 0;
  int shard = 0;               // write queue this was routed to
  uint64_t request_id = 0;
  uint64_t trace_id = 0;       // 0 = untraced
  uint64_t enqueue_micros = 0; // when Dispatch() queued it (tracing)
  std::string payload;
};

}  // namespace

struct SealServer::Impl {
  Impl(DB* db, baselines::Stack* stack, const ServerOptions& options)
      : db_(db), stack_(stack), opts_(options) {
    // A sharded engine gets one commit queue per shard: the hash routing
    // happens at dispatch (no engine locks taken), and each shard runs its
    // own group-commit leader so independent shards commit concurrently.
    sharded_ = dynamic_cast<ShardedDb*>(db_);
    const int nq = sharded_ != nullptr ? sharded_->num_shards() : 1;
    write_queues_.reserve(static_cast<size_t>(nq));
    for (int i = 0; i < nq; i++) {
      write_queues_.push_back(std::make_unique<WriteQueue>());
    }
    if (stack_ != nullptr) external_memory_ = stack_->external_memory_bytes();
    registry_ = opts_.metrics_registry;
    if (registry_ == nullptr && stack_ != nullptr) {
      registry_ = stack_->metrics_registry();
    }
    if (registry_ == nullptr) {
      registry_ = std::make_shared<obs::MetricsRegistry>();
    }
    RegisterMetrics();
  }

  ~Impl() {
    StopImpl();
    // The registry (usually stack-owned) outlives this Impl; the hook
    // reads our queues, so it must not.
    registry_->RemoveCollectHook(depth_hook_id_);
  }

  void RegisterMetrics() {
    obs::MetricsRegistry& r = *registry_;
    c_conns_accepted_ = r.RegisterCounter(
        "sealdb_server_connections_accepted_total", "Connections accepted");
    g_conns_active_ = r.RegisterGauge("sealdb_server_connections_active",
                                      "Currently open connections");
    c_requests_ = r.RegisterCounter("sealdb_server_requests_total",
                                    "Complete frames dispatched or rejected");
    const char* ops_help = "Requests by operation class";
    c_gets_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                {{"op", "get"}});
    c_writes_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                  {{"op", "write"}});
    c_scans_ = r.RegisterCounter("sealdb_server_ops_total", ops_help,
                                 {{"op", "scan"}});
    c_write_groups_ = r.RegisterCounter(
        "sealdb_server_write_groups_total",
        "DB::Write calls issued by group commit");
    c_batched_writes_ = r.RegisterCounter(
        "sealdb_server_batched_writes_total",
        "Write requests folded into those groups");
    c_protocol_errors_ = r.RegisterCounter(
        "sealdb_server_protocol_errors_total",
        "Malformed frames and unknown opcodes");
    const char* bytes_help = "Wire bytes by direction";
    c_bytes_in_ = r.RegisterCounter("sealdb_server_bytes_total", bytes_help,
                                    {{"dir", "in"}});
    c_bytes_out_ = r.RegisterCounter("sealdb_server_bytes_total", bytes_help,
                                     {{"dir", "out"}});
    const char* rej_help =
        "Load shed by admission control, by reason (kBusy responses, plus "
        "over-cap connections)";
    c_rej_conns_ = r.RegisterCounter("sealdb_server_admission_rejected_total",
                                     rej_help, {{"reason", "connections"}});
    c_rej_queue_full_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "queue_full"}});
    c_rej_inflight_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "inflight_cap"}});
    c_rej_stall_ =
        r.RegisterCounter("sealdb_server_admission_rejected_total", rej_help,
                          {{"reason", "stall"}});
    c_evictions_ = r.RegisterCounter(
        "sealdb_server_slow_client_evictions_total",
        "Connections closed for not draining their responses");
    c_dedup_replays_ = r.RegisterCounter(
        "sealdb_server_dedup_replays_total",
        "Retried writes acked from the dedup window without re-applying");
    c_socket_writes_ = r.RegisterCounter(
        "sealdb_server_socket_writes_total",
        "send() calls that moved response bytes");
    c_loop_wakeups_ = r.RegisterCounter(
        "sealdb_server_loop_wakeups_total",
        "epoll_wait returns of the event loop");
    c_idle_wakeups_ = r.RegisterCounter(
        "sealdb_server_idle_wakeups_total",
        "Worker wake-ups that found no runnable request (surplus tokens)");

    const char* span_help =
        "Sampled request span breakdown (see ServerOptions::trace_sample_"
        "every)";
    const std::vector<double> buckets = obs::MicrosBuckets();
    h_queue_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                   buckets, {{"stage", "queue"}});
    h_commit_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                    buckets, {{"stage", "commit"}});
    h_engine_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                    buckets, {{"stage", "engine"}});
    h_total_ = r.RegisterHistogram("sealdb_server_span_micros", span_help,
                                   buckets, {{"stage", "total"}});

    obs::Gauge* g_read_q = r.RegisterGauge("sealdb_server_read_queue_depth",
                                           "Read requests awaiting a worker");
    obs::Gauge* g_write_q = r.RegisterGauge(
        "sealdb_server_write_queue_depth",
        "Write requests awaiting the group-commit leader");
    obs::Gauge* g_queued_bytes = r.RegisterGauge(
        "sealdb_server_queued_write_bytes",
        "Write payload bytes held by the group-commit queue");
    obs::Gauge* g_buffer = r.RegisterGauge(
        "sealdb_server_connection_buffer_bytes",
        "Bytes across per-connection read and response buffers");
    // With a sharded engine each commit queue also gets its own depth
    // series ({shard=i}); the unlabeled gauge stays the total, so existing
    // dashboards keep working at any shard count.
    std::vector<obs::Gauge*> g_shard_q;
    if (write_queues_.size() > 1) {
      for (size_t i = 0; i < write_queues_.size(); i++) {
        g_shard_q.push_back(r.RegisterGauge(
            "sealdb_server_shard_write_queue_depth",
            "Write requests awaiting a shard's group-commit leader",
            {{"shard", std::to_string(i)}}));
      }
    }
    depth_hook_id_ = r.AddCollectHook([this, g_read_q, g_write_q,
                                       g_queued_bytes, g_buffer, g_shard_q] {
      size_t rq, wq = 0, qb;
      std::vector<size_t> per_shard(g_shard_q.size(), 0);
      {
        std::lock_guard<std::mutex> l(read_mu_);
        rq = read_tasks_.size();
      }
      for (size_t i = 0; i < write_queues_.size(); i++) {
        std::lock_guard<std::mutex> l(write_queues_[i]->mu);
        wq += write_queues_[i]->tasks.size();
        if (i < per_shard.size()) per_shard[i] = write_queues_[i]->tasks.size();
      }
      qb = queued_write_bytes_.load(std::memory_order_relaxed);
      g_read_q->Set(static_cast<double>(rq));
      g_write_q->Set(static_cast<double>(wq));
      for (size_t i = 0; i < g_shard_q.size(); i++) {
        g_shard_q[i]->Set(static_cast<double>(per_shard[i]));
      }
      g_queued_bytes->Set(static_cast<double>(qb));
      g_buffer->Set(static_cast<double>(
          buffer_bytes_.load(std::memory_order_relaxed)));
    });
  }

  // ---- configuration / collaborators ----
  DB* const db_;
  baselines::Stack* const stack_;
  const ServerOptions opts_;
  std::shared_ptr<std::atomic<uint64_t>> external_memory_;

  // ---- sockets / loop ----
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::unordered_map<int, ConnPtr> conns_;  // loop thread only

  // Connections with freshly appended responses, waiting for a flush. The
  // loop flushes them at the end of every epoll batch; workers append
  // without waking it and wake it once per group (see WorkerMain).
  std::mutex pending_mu_;
  std::vector<ConnPtr> pending_flush_;

  // ---- request queues ----
  // One write queue per engine shard (exactly one for an unsharded DB).
  // Each queue elects its own group-commit leader and carries its OWN
  // mutex, so two shards never contend on enqueue or leader election; a
  // separate read_mu_ covers the shared read queue. Work tokens travel
  // through a counting semaphore: ParseFrames releases one per enqueued
  // request, in a single release per parsed recv, and a worker acquires one
  // and scans the write queues from a rotating start before falling back
  // to the read queue. Groups run many requests per token, so a token can
  // find its request already answered by another group; it is surplus
  // (counted in sealdb_server_idle_wakeups_total). Tokens are not taken
  // back: one dropped at a leader-locked queue leaves fewer tokens than
  // requests, and taking back more could strand a queued read. A finishing
  // leader re-releases one token when its queue still holds tasks (their
  // tokens may have been consumed by workers that found the queue
  // leader-locked); a surplus token only costs a wake-scan-sleep cycle.
  struct alignas(64) WriteQueue {
    std::mutex mu;
    std::deque<Request> tasks;
    size_t queued_bytes = 0;    // payload bytes sitting in `tasks`
    bool leader_active = false; // a worker is committing this queue's group
  };
  // unique_ptr elements: WriteQueue holds a mutex and cannot move.
  std::vector<std::unique_ptr<WriteQueue>> write_queues_;
  std::mutex read_mu_;
  std::deque<Request> read_tasks_;  // guarded by read_mu_
  std::counting_semaphore<> work_sem_{0};
  // Total write payload bytes across every queue. Admission does a
  // fetch_add and undoes it on reject; leaders subtract exactly the bytes
  // they drained, so the counter never underflows.
  std::atomic<size_t> queued_write_bytes_{0};
  std::atomic<uint64_t> next_write_shard_{0};  // rotating scan start
  std::atomic<int> executing_{0};
  std::atomic<bool> workers_exit_{false};
  // Coordinates only the cold drain/quiesce handshake; the hot enqueue
  // and worker paths never touch it.
  std::mutex sched_mu_;
  std::condition_variable drain_cv_;
  ShardedDb* sharded_ = nullptr;  // non-null iff db_ is sharded
  // Spreads cross-shard kWriteBatch requests over the queues.
  std::atomic<uint64_t> batch_rr_{0};

  // Either tasks waiting for a leader or a leader still committing; the
  // leader clears leader_active only after the group's executing_ count
  // has dropped, so drain cannot slip between the two.
  bool AnyWritesQueued() {
    for (auto& q : write_queues_) {
      std::lock_guard<std::mutex> l(q->mu);
      if (!q->tasks.empty() || q->leader_active) return true;
    }
    return false;
  }

  bool ReadsDrained() {
    std::lock_guard<std::mutex> l(read_mu_);
    return read_tasks_.empty();
  }

  // Taking sched_mu_ between the queue-state change and the notify pairs
  // with the drain predicate being evaluated under sched_mu_, so the
  // wakeup cannot be lost even though the state lives outside this mutex.
  void NotifyDrain() {
    { std::lock_guard<std::mutex> l(sched_mu_); }
    drain_cv_.notify_all();
  }

  // Recently applied write request ids, newest at the back. A retried
  // write whose ack was lost replays its OK instead of re-applying.
  std::mutex dedup_mu_;
  std::unordered_set<uint64_t> applied_write_ids_;
  std::deque<uint64_t> applied_write_order_;

  // ---- lifecycle ----
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  // Loop acknowledged stopping_: reads are off and every already-received
  // complete frame has been dispatched. Guarded by sched_mu_.
  bool reads_quiesced_ = false;
  std::atomic<bool> flush_and_exit_{false};
  std::mutex stop_mu_;  // serializes Stop() callers
  bool stopped_ = false;

  // ---- accounting: everything lives in the metrics registry ----
  // Exact byte ledger for per-connection buffers; the registry gauge is a
  // collect-hook rendering of this (it also feeds external_memory_).
  std::atomic<uint64_t> buffer_bytes_{0};
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* c_conns_accepted_;
  obs::Gauge* g_conns_active_;
  obs::Counter* c_requests_;
  obs::Counter* c_gets_;
  obs::Counter* c_writes_;
  obs::Counter* c_scans_;
  obs::Counter* c_write_groups_;
  obs::Counter* c_batched_writes_;
  obs::Counter* c_protocol_errors_;
  obs::Counter* c_bytes_in_;
  obs::Counter* c_bytes_out_;
  obs::Counter* c_rej_conns_;
  obs::Counter* c_rej_queue_full_;
  obs::Counter* c_rej_inflight_;
  obs::Counter* c_rej_stall_;
  obs::Counter* c_evictions_;
  obs::Counter* c_dedup_replays_;
  obs::Counter* c_socket_writes_;
  obs::Counter* c_loop_wakeups_;
  obs::Counter* c_idle_wakeups_;
  obs::FixedHistogram* h_queue_;
  obs::FixedHistogram* h_commit_;
  obs::FixedHistogram* h_engine_;
  obs::FixedHistogram* h_total_;
  size_t depth_hook_id_ = 0;

  // ---- sampled trace spans (bounded ring, newest at the back) ----
  static constexpr size_t kTraceRing = 128;
  mutable std::mutex trace_mu_;
  std::deque<TraceSpan> traces_;

  void AdjustBuffered(int64_t delta) {
    buffer_bytes_.fetch_add(static_cast<uint64_t>(delta),
                            std::memory_order_relaxed);
    if (external_memory_ != nullptr) {
      external_memory_->fetch_add(static_cast<uint64_t>(delta),
                                  std::memory_order_relaxed);
    }
  }

  // ---------------------------------------------------------------- start

  Status Start() {
    Status s = net::ListenTcp(opts_.host, opts_.port, /*backlog=*/128,
                              &listen_fd_, &port_);
    if (!s.ok()) return s;
    s = net::SetNonBlocking(listen_fd_);
    if (s.ok()) {
      epoll_fd_ = ::epoll_create1(0);
      wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
      if (epoll_fd_ < 0 || wake_fd_ < 0) {
        s = Status::IOError("epoll/eventfd setup", std::strerror(errno));
      }
    }
    if (!s.ok()) {
      net::CloseFd(listen_fd_);
      net::CloseFd(epoll_fd_);
      net::CloseFd(wake_fd_);
      listen_fd_ = epoll_fd_ = wake_fd_ = -1;
      return s;
    }
    EpollAdd(listen_fd_, EPOLLIN);
    EpollAdd(wake_fd_, EPOLLIN);

    started_.store(true);
    loop_thread_ = std::thread([this] { LoopMain(); });
    const int n = opts_.num_workers > 0 ? opts_.num_workers : 1;
    workers_.reserve(n);
    for (int i = 0; i < n; i++) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
    return Status::OK();
  }

  void EpollAdd(int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void EpollMod(int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  // Re-register `conn`'s interest after `reading`/`want_write` changed.
  void UpdateInterest(const ConnPtr& conn) {
    if (!conn->watched) return;
    EpollMod(conn->fd, (conn->reading ? EPOLLIN : 0u) |
                           (conn->want_write ? EPOLLOUT : 0u));
  }

  void StopReading(const ConnPtr& conn) {
    if (!conn->reading) return;
    conn->reading = false;
    UpdateInterest(conn);
  }

  // The peer hung up: nothing more arrives and nothing sent will be read.
  // The connection closes from FlushPending once its last in-flight
  // request is answered.
  void Unwatch(const ConnPtr& conn) {
    conn->peer_closed = true;
    conn->reading = false;
    conn->want_write = false;
    if (!conn->watched) return;
    conn->watched = false;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
  }

  // ----------------------------------------------------------- event loop

  void LoopMain() {
    bool reads_disabled = false;
    bool deadline_armed = false;
    std::chrono::steady_clock::time_point force_close_at;

    epoll_event events[64];
    for (;;) {
      const int timeout =
          flush_and_exit_.load(std::memory_order_acquire) ? 50 : -1;
      int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      c_loop_wakeups_->Inc();

      if (stopping_.load(std::memory_order_acquire) && !reads_disabled) {
        QuiesceReads();
        reads_disabled = true;
      }

      for (int i = 0; i < n; i++) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == wake_fd_) {
          uint64_t junk;
          while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
          }
        } else if (fd == listen_fd_) {
          if (!reads_disabled) AcceptNew();
        } else {
          auto it = conns_.find(fd);
          if (it == conns_.end()) continue;
          ConnPtr conn = it->second;
          if (ev & (EPOLLHUP | EPOLLERR)) {
            Unwatch(conn);
            TryFlush(conn);
            MaybeClose(conn);
            continue;
          }
          if ((ev & EPOLLIN) && conn->reading && !reads_disabled) {
            ReadAndDispatch(conn);
          }
          if (ev & EPOLLOUT) TryFlush(conn);
          MaybeClose(conn);
        }
      }
      // One flush per batch covers both the workers' wake-ups and the
      // responses this thread queued itself (Busy rejections, protocol
      // errors), so the loop never has to signal its own eventfd.
      FlushPending();

      if (flush_and_exit_.load(std::memory_order_acquire)) {
        if (!deadline_armed) {
          deadline_armed = true;
          force_close_at =
              std::chrono::steady_clock::now() +
              std::chrono::milliseconds(opts_.drain_deadline_millis);
        }
        // Flush what is left; exit once every buffer is empty or the drain
        // deadline passes (a peer that stopped reading its responses).
        bool all_drained = true;
        std::vector<ConnPtr> snapshot;
        snapshot.reserve(conns_.size());
        for (auto& [cfd, conn] : conns_) snapshot.push_back(conn);
        for (auto& conn : snapshot) {
          TryFlush(conn);
          MaybeClose(conn);
        }
        for (auto& [cfd, conn] : conns_) {
          std::lock_guard<std::mutex> l(conn->mu);
          if (!conn->closed && conn->woff < conn->wbuf.size()) {
            all_drained = false;
          }
        }
        if (all_drained ||
            std::chrono::steady_clock::now() >= force_close_at) {
          break;
        }
      }
    }

    // Tear down every remaining connection.
    std::vector<ConnPtr> remaining;
    remaining.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) remaining.push_back(conn);
    for (auto& conn : remaining) CloseConn(conn);
    conns_.clear();
    if (listen_fd_ >= 0) {
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // Graceful shutdown step 1 (loop thread): stop accepting, dispatch any
  // complete frames already buffered, stop reading, and tell Stop() the
  // request stream is now complete.
  void QuiesceReads() {
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<ConnPtr> snapshot;
    snapshot.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) snapshot.push_back(conn);
    for (auto& conn : snapshot) {
      ParseFrames(conn);
      StopReading(conn);
    }
    {
      std::lock_guard<std::mutex> l(sched_mu_);
      reads_quiesced_ = true;
    }
    drain_cv_.notify_all();
  }

  void AcceptNew() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error; epoll will retry
      if (opts_.max_connections > 0 &&
          conns_.size() >= static_cast<size_t>(opts_.max_connections)) {
        RejectConnection(fd);
        continue;
      }
      (void)net::SetNonBlocking(fd);
      (void)net::SetNoDelay(fd);
      auto conn = std::make_shared<Connection>(fd);
      conns_.emplace(fd, conn);
      EpollAdd(fd, EPOLLIN);
      c_conns_accepted_->Inc();
      g_conns_active_->Add(1.0);
    }
  }

  // Over the connection cap: answer with one typed kBusy error frame (so
  // the peer can back off and retry) and close. The fd is still blocking
  // here; the single send either lands in the socket buffer immediately or
  // the peer was never going to read it. The rejection is counted before
  // the send, so a peer that has seen the Busy frame also sees it counted.
  void RejectConnection(int fd) {
    c_rej_conns_->Inc();
    std::string payload;
    net::EncodeStatusRecord(
        &payload, Status::Busy("too many connections; retry later"));
    std::string frame;
    net::EncodeFrame(&frame, net::kOpError | net::kResponseBit,
                     /*request_id=*/0, payload);
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    net::CloseFd(fd);
  }

  void ReadAndDispatch(const ConnPtr& conn) {
    char scratch[64 * 1024];
    for (;;) {
      ssize_t r = ::recv(conn->fd, scratch, sizeof(scratch), 0);
      if (r > 0) {
        conn->rbuf.append(scratch, static_cast<size_t>(r));
        AdjustBuffered(r);
        c_bytes_in_->Add(static_cast<uint64_t>(r));
        if (static_cast<size_t>(r) < sizeof(scratch)) break;
        continue;
      }
      if (r == 0) {
        conn->peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->peer_closed = true;
      break;
    }
    ParseFrames(conn);
    // An EOF stays readable: left in the interest set it would wake the
    // loop on every epoll_wait while requests are still in flight.
    if (conn->peer_closed) StopReading(conn);
  }

  // Dispatches every complete frame buffered on `conn`, then hands the
  // workers one token per queued request in a single release, so a worker
  // that wakes sees the whole pipelined window rather than its first frame.
  void ParseFrames(const ConnPtr& conn) {
    Slice input(conn->rbuf);
    bool fatal = false;
    std::ptrdiff_t queued = 0;
    while (!fatal) {
      net::FrameHeader header;
      Slice payload;
      const net::DecodeResult res =
          net::DecodeFrame(&input, &header, &payload, opts_.max_frame_bytes);
      if (res == net::DecodeResult::kNeedMore) break;
      if (res == net::DecodeResult::kOk) {
        if (Dispatch(conn, header, payload)) queued++;
        continue;
      }
      c_protocol_errors_->Inc();
      fatal = true;
      if (res == net::DecodeResult::kBadMagic) {
        // Not our protocol; nothing sensible to answer on this stream.
        conn->peer_closed = true;
        break;
      }
      const char* what = res == net::DecodeResult::kBadVersion
                             ? "unsupported protocol version"
                         : res == net::DecodeResult::kBadCrc
                             ? "frame checksum mismatch"
                             : "frame exceeds size limit";
      std::string payload_out;
      net::EncodeStatusRecord(&payload_out, Status::Corruption(what));
      Respond(conn, net::kOpError | net::kResponseBit, header.request_id,
              payload_out, /*close_after=*/true);
    }
    // Drop the consumed prefix (on a fatal error, everything: the stream
    // cannot be re-synchronized).
    const size_t remaining = fatal ? 0 : input.size();
    const size_t consumed = conn->rbuf.size() - remaining;
    if (consumed > 0) {
      conn->rbuf.erase(0, consumed);
      AdjustBuffered(-static_cast<int64_t>(consumed));
    }
    if (fatal) StopReading(conn);
    if (queued > 0) work_sem_.release(queued);
  }

  // Queues one request for the workers and returns true, or answers it
  // right here (rejection, unknown opcode) and returns false.
  bool Dispatch(const ConnPtr& conn, const net::FrameHeader& header,
                const Slice& payload) {
    c_requests_->Inc();
    const net::Op op = static_cast<net::Op>(header.opcode);
    const bool is_write = op == net::Op::kPut || op == net::Op::kDelete ||
                          op == net::Op::kWriteBatch;
    const bool is_read = op == net::Op::kGet || op == net::Op::kScan ||
                         op == net::Op::kStats || op == net::Op::kMetrics ||
                         op == net::Op::kPing;
    if (!is_write && !is_read) {
      c_protocol_errors_->Inc();
      std::string payload_out;
      net::EncodeStatusRecord(&payload_out,
                              Status::InvalidArgument("unknown opcode"));
      Respond(conn, net::kOpError | net::kResponseBit, header.request_id,
              payload_out, /*close_after=*/true);
      StopReading(conn);
      return false;
    }

    if (is_write) {
      c_writes_->Inc();
    } else if (op == net::Op::kGet) {
      c_gets_->Inc();
    } else if (op == net::Op::kScan) {
      c_scans_->Inc();
    }

    // ---- admission control: shed excess load with typed kBusy errors
    // before it consumes queue memory or a worker slot.
    if (opts_.max_inflight_per_conn > 0 &&
        conn->inflight.load(std::memory_order_relaxed) >=
            opts_.max_inflight_per_conn) {
      c_rej_inflight_->Inc();
      RejectBusy(conn, header,
                 Status::Busy("per-connection in-flight cap reached"));
      return false;
    }
    // Route the write to its shard's commit queue by hashing the decoded
    // key — pure computation, no engine locks. Multi-key batches may span
    // shards; they ride any queue round-robin and ShardedDb::Write splits
    // them. Malformed payloads route to queue 0 where the group leader
    // produces the typed decode error exactly as before.
    int shard = 0;
    if (is_write && sharded_ != nullptr) {
      Slice key, value;
      if (op == net::Op::kPut) {
        if (net::DecodePutRequest(payload, &key, &value)) {
          shard = sharded_->ShardOf(key);
        }
      } else if (op == net::Op::kDelete) {
        if (net::DecodeKeyRequest(payload, &key)) {
          shard = sharded_->ShardOf(key);
        }
      } else {  // kWriteBatch
        shard = static_cast<int>(batch_rr_.fetch_add(
                    1, std::memory_order_relaxed) %
                                 write_queues_.size());
      }
    }
    if (is_write && opts_.reject_writes_on_stall) {
      // Per-shard admission: only a stall of the *target* engine sheds
      // this write (cross-shard batches check the worst shard).
      const int stall_level =
          (sharded_ != nullptr && op != net::Op::kWriteBatch)
              ? sharded_->WriteStallLevelOfShard(shard)
              : db_->WriteStallLevel();
      if (stall_level >= 2) {
        c_rej_stall_->Inc();
        RejectBusy(conn, header, Status::Busy("engine write stall"));
        return false;
      }
    }

    Request req;
    req.conn = conn;
    req.opcode = header.opcode;
    req.shard = shard;
    req.request_id = header.request_id;
    req.trace_id = header.trace_id;
    if (Sampled(header.trace_id)) req.enqueue_micros = NowMicros();
    req.payload.assign(payload.data(), payload.size());
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    bool queue_full = false;
    if (is_write) {
      const size_t sz = req.payload.size();
      const size_t prev =
          queued_write_bytes_.fetch_add(sz, std::memory_order_relaxed);
      if (opts_.max_queued_write_bytes > 0 && prev > 0 &&
          prev + sz > opts_.max_queued_write_bytes) {
        // Byte-budgeted write queues: over the shared budget, reject at
        // the door. Empty queues always admit, so a single write larger
        // than the whole budget cannot livelock its retries.
        queued_write_bytes_.fetch_sub(sz, std::memory_order_relaxed);
        queue_full = true;
      } else {
        WriteQueue& q = *write_queues_[shard];
        std::lock_guard<std::mutex> l(q.mu);
        q.queued_bytes += sz;
        q.tasks.push_back(std::move(req));
      }
    } else {
      std::lock_guard<std::mutex> l(read_mu_);
      read_tasks_.push_back(std::move(req));
    }
    if (queue_full) {
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      c_rej_queue_full_->Inc();
      RejectBusy(conn, header, Status::Busy("write queue over byte budget"));
      return false;
    }
    return true;
  }

  // Answer a rejected request with an op-shaped payload carrying `busy`,
  // so clients decode it exactly like any other typed per-request error.
  void RejectBusy(const ConnPtr& conn, const net::FrameHeader& header,
                  const Status& busy) {
    std::string payload_out;
    switch (static_cast<net::Op>(header.opcode)) {
      case net::Op::kGet:
        net::EncodeGetResponse(&payload_out, busy, Slice());
        break;
      case net::Op::kScan:
        net::EncodeScanResponse(&payload_out, busy, {});
        break;
      case net::Op::kStats:
      case net::Op::kMetrics:
        net::EncodeStatsResponse(&payload_out, busy, Slice());
        break;
      default:
        net::EncodeStatusRecord(&payload_out, busy);
        break;
    }
    Respond(conn, header.opcode | net::kResponseBit, header.request_id,
            payload_out);
  }

  // Encode one framed response straight into the connection's buffer and
  // list the connection for the loop's next flush. Safe from any thread;
  // it does not wake the loop: workers wake it once per group, and the
  // loop flushes what it queued itself at the end of its epoll batch.
  // `finish` marks this as the answer to a dispatched request: the
  // inflight count is decremented under the same lock that publishes the
  // response bytes, so the loop can never see "no response buffered and
  // nothing in flight" for an unanswered request.
  void Respond(const ConnPtr& conn, uint8_t opcode, uint64_t request_id,
               const Slice& payload, bool close_after = false,
               bool finish = false) {
    size_t frame_bytes = 0;
    int64_t evicted_bytes = 0;
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (finish) conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (!conn->closed && !conn->evicted) {
        const size_t before = conn->wbuf.size();
        net::EncodeFrame(&conn->wbuf, opcode, request_id, payload);
        frame_bytes = conn->wbuf.size() - before;
        if (close_after) conn->close_after_flush = true;
        // Slow-client eviction: the peer is not draining its responses.
        // Discard the buffer (it will never be read at a useful rate) and
        // have the loop close the fd, bounding per-connection memory.
        if (opts_.max_response_buffer_bytes > 0 &&
            conn->wbuf.size() - conn->woff > opts_.max_response_buffer_bytes) {
          conn->evicted = true;
          evicted_bytes =
              static_cast<int64_t>(conn->wbuf.size() - conn->woff);
          conn->wbuf.clear();
          conn->woff = 0;
        }
      }
    }
    if (frame_bytes == 0) return;  // connection closed or evicted
    AdjustBuffered(static_cast<int64_t>(frame_bytes));
    c_bytes_out_->Add(frame_bytes);
    if (evicted_bytes > 0) {
      // The eviction swallowed everything buffered, including this frame.
      AdjustBuffered(-evicted_bytes);
      c_evictions_->Inc();
    }
    std::lock_guard<std::mutex> l(pending_mu_);
    if (!conn->flush_listed) {
      conn->flush_listed = true;
      pending_flush_.push_back(conn);
    }
  }

  void FlushPending() {
    std::vector<ConnPtr> pending;
    {
      std::lock_guard<std::mutex> l(pending_mu_);
      pending.swap(pending_flush_);
      for (auto& conn : pending) conn->flush_listed = false;
    }
    for (auto& conn : pending) {
      TryFlush(conn);
      MaybeClose(conn);
    }
  }

  // Write as much buffered output as the socket accepts (loop thread only).
  void TryFlush(const ConnPtr& conn) {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    while (conn->woff < conn->wbuf.size()) {
      ssize_t w = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                         conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
      if (w > 0) {
        c_socket_writes_->Inc();
        conn->woff += static_cast<size_t>(w);
        AdjustBuffered(-w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          conn->watched) {
        if (!conn->want_write) {
          conn->want_write = true;
          UpdateInterest(conn);
        }
        return;  // keep the unflushed suffix buffered
      }
      if (w < 0 && errno == EINTR) continue;
      // Peer is gone; discard what it will never read.
      AdjustBuffered(-static_cast<int64_t>(conn->wbuf.size() - conn->woff));
      conn->woff = conn->wbuf.size();
      conn->peer_closed = true;
      break;
    }
    conn->wbuf.clear();
    conn->woff = 0;
    if (conn->want_write) {
      conn->want_write = false;
      UpdateInterest(conn);
    }
  }

  bool ReadyToClose(const ConnPtr& conn) {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return false;
    // An evicted connection closes immediately: its buffer is already
    // discarded and in-flight responses are dropped on arrival.
    if (conn->evicted) return true;
    const bool buffered = conn->woff < conn->wbuf.size();
    if (conn->close_after_flush && !buffered &&
        conn->inflight.load(std::memory_order_relaxed) == 0) {
      return true;
    }
    return conn->peer_closed && !buffered &&
           conn->inflight.load(std::memory_order_relaxed) == 0;
  }

  void MaybeClose(const ConnPtr& conn) {
    if (ReadyToClose(conn)) CloseConn(conn);
  }

  // Loop thread only.
  void CloseConn(const ConnPtr& conn) {
    {
      std::lock_guard<std::mutex> l(conn->mu);
      if (conn->closed) return;
      conn->closed = true;
      const int64_t held =
          static_cast<int64_t>(conn->rbuf.size()) +
          static_cast<int64_t>(conn->wbuf.size() - conn->woff);
      if (held > 0) AdjustBuffered(-held);
      conn->rbuf.clear();
      conn->wbuf.clear();
      conn->woff = 0;
    }
    Unwatch(conn);
    net::CloseFd(conn->fd);
    conns_.erase(conn->fd);
    g_conns_active_->Add(-1.0);
  }

  // -------------------------------------------------------------- tracing

  // Deterministic sampling in the client-minted trace id: a retried
  // request (same trace id on every attempt) is sampled consistently.
  bool Sampled(uint64_t trace_id) const {
    return trace_id != 0 && opts_.trace_sample_every != 0 &&
           trace_id % opts_.trace_sample_every == 0;
  }

  // Simulated device busy time, read around sampled requests (an atomic
  // counter; no lock).
  double DeviceBusySeconds() const {
    return stack_ != nullptr ? stack_->drive()->metrics().busy->Seconds()
                             : 0.0;
  }

  void RecordTrace(const TraceSpan& span) {
    h_queue_->Observe(static_cast<double>(span.queue_micros));
    h_commit_->Observe(static_cast<double>(span.commit_micros));
    h_engine_->Observe(static_cast<double>(span.engine_micros));
    h_total_->Observe(static_cast<double>(span.total_micros));
    {
      std::lock_guard<std::mutex> l(trace_mu_);
      traces_.push_back(span);
      if (traces_.size() > kTraceRing) traces_.pop_front();
    }
    if (opts_.log_sampled_traces) {
      std::fprintf(
          stderr,
          "[sealdb trace %016llx] op=%s id=%llu total=%lluus "
          "queue=%lluus commit=%lluus engine=%lluus device=%.3fms\n",
          static_cast<unsigned long long>(span.trace_id),
          net::OpName(span.opcode),
          static_cast<unsigned long long>(span.request_id),
          static_cast<unsigned long long>(span.total_micros),
          static_cast<unsigned long long>(span.queue_micros),
          static_cast<unsigned long long>(span.commit_micros),
          static_cast<unsigned long long>(span.engine_micros),
          span.device_seconds * 1e3);
    }
  }

  // -------------------------------------------------------------- workers

  // Every group, write or read, ends with exactly one Wake():
  // its responses sit in their connections' buffers until then, and the
  // loop flushes each connection with one send. Nothing is answered
  // outside a group, so a worker never blocks on work_sem_ with responses
  // the loop has not been told about.
  void WorkerMain() {
    const uint64_t n = write_queues_.size();
    const size_t workers = opts_.num_workers > 0 ? opts_.num_workers : 1;
    std::vector<Request> reads;
    for (;;) {
      work_sem_.acquire();
      if (workers_exit_.load(std::memory_order_acquire)) return;
      // Writes first (the same priority as the old single-lock scheduler):
      // scan the queues from a rotating start so a busy shard cannot
      // starve the others.
      bool led_group = false;
      const uint64_t start =
          next_write_shard_.fetch_add(1, std::memory_order_relaxed);
      for (uint64_t k = 0; k < n && !led_group; k++) {
        WriteQueue& q = *write_queues_[(start + k) % n];
        std::vector<Request> group;
        size_t group_bytes = 0;
        {
          std::lock_guard<std::mutex> l(q.mu);
          if (q.tasks.empty() || q.leader_active) continue;
          // Become this queue's write leader: drain a group of its queued
          // writes and commit them as one WriteBatch. Other shards' queues
          // stay runnable — their leaders commit concurrently.
          q.leader_active = true;
          while (!q.tasks.empty() &&
                 group.size() < opts_.max_batch_requests &&
                 group_bytes < opts_.max_batch_bytes) {
            const size_t sz = q.tasks.front().payload.size();
            group_bytes += sz;
            q.queued_bytes -= std::min(q.queued_bytes, sz);
            group.push_back(std::move(q.tasks.front()));
            q.tasks.pop_front();
          }
          // Counted while still inside q.mu: the drain predicate must
          // never observe an empty leaderless queue with this group still
          // uncounted.
          executing_.fetch_add(static_cast<int>(group.size()),
                               std::memory_order_relaxed);
        }
        queued_write_bytes_.fetch_sub(group_bytes, std::memory_order_relaxed);
        RunWriteGroup(group);
        Wake();
        bool more;
        {
          std::lock_guard<std::mutex> l(q.mu);
          executing_.fetch_sub(static_cast<int>(group.size()),
                               std::memory_order_relaxed);
          q.leader_active = false;
          more = !q.tasks.empty();
        }
        if (more) work_sem_.release();
        NotifyDrain();
        led_group = true;
      }
      if (led_group) continue;
      // No runnable write queue: run a group of pending reads, each with
      // its own engine call and trace span. A group takes a fair share of
      // the queue (all of it with one worker), so the other workers' reads
      // still run in parallel. Otherwise the token was surplus (its task
      // went to another worker's group, or a leader re-released while its
      // queue drained) — drop it and sleep.
      {
        std::lock_guard<std::mutex> l(read_mu_);
        const size_t share =
            std::min(std::max<size_t>(opts_.max_batch_requests, 1),
                     (read_tasks_.size() + workers - 1) / workers);
        while (reads.size() < share) {
          reads.push_back(std::move(read_tasks_.front()));
          read_tasks_.pop_front();
        }
        executing_.fetch_add(static_cast<int>(reads.size()),
                             std::memory_order_relaxed);
      }
      if (reads.empty()) {
        c_idle_wakeups_->Inc();
        continue;
      }
      for (const Request& req : reads) RunRead(req);
      Wake();
      executing_.fetch_sub(static_cast<int>(reads.size()),
                           std::memory_order_relaxed);
      reads.clear();
      NotifyDrain();
    }
  }

  // True if this write request id was applied recently enough to still be
  // in the dedup window — the retry of a write whose ack got lost.
  bool IsDuplicateWrite(uint64_t request_id) {
    if (opts_.write_dedup_window == 0) return false;
    std::lock_guard<std::mutex> l(dedup_mu_);
    return applied_write_ids_.find(request_id) != applied_write_ids_.end();
  }

  void RecordAppliedWrites(const std::vector<Request>& group,
                           const std::vector<bool>& included) {
    if (opts_.write_dedup_window == 0) return;
    std::lock_guard<std::mutex> l(dedup_mu_);
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      if (applied_write_ids_.insert(group[i].request_id).second) {
        applied_write_order_.push_back(group[i].request_id);
      }
    }
    while (applied_write_order_.size() > opts_.write_dedup_window) {
      applied_write_ids_.erase(applied_write_order_.front());
      applied_write_order_.pop_front();
    }
  }

  void RunWriteGroup(std::vector<Request>& group) {
    bool any_sampled = false;
    for (const Request& req : group) {
      if (Sampled(req.trace_id)) {
        any_sampled = true;
        break;
      }
    }
    const uint64_t pickup = any_sampled ? NowMicros() : 0;
    const double busy0 = any_sampled ? DeviceBusySeconds() : 0.0;

    WriteBatch combined;
    std::vector<bool> included(group.size(), false);
    int included_count = 0;
    for (size_t i = 0; i < group.size(); i++) {
      const Request& req = group[i];
      if (IsDuplicateWrite(req.request_id)) {
        // Already applied; the client just never saw the ack. Replay OK
        // without touching the engine so the retry is exactly-once.
        c_dedup_replays_->Inc();
        std::string payload_out;
        net::EncodeStatusRecord(&payload_out, Status::OK());
        Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
                payload_out, /*close_after=*/false, /*finish=*/true);
        continue;
      }
      Slice key, value;
      bool ok = false;
      switch (static_cast<net::Op>(req.opcode)) {
        case net::Op::kPut:
          ok = net::DecodePutRequest(req.payload, &key, &value);
          if (ok) combined.Put(key, value);
          break;
        case net::Op::kDelete:
          ok = net::DecodeKeyRequest(req.payload, &key);
          if (ok) combined.Delete(key);
          break;
        case net::Op::kWriteBatch: {
          WriteBatch one;
          ok = net::DecodeWriteBatchRequest(req.payload, &one);
          if (ok) combined.Append(one);
          break;
        }
        default:
          break;
      }
      if (ok) {
        included[i] = true;
        included_count++;
      } else {
        std::string payload_out;
        net::EncodeStatusRecord(
            &payload_out, Status::InvalidArgument("malformed write payload"));
        Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
                payload_out, /*close_after=*/false, /*finish=*/true);
      }
    }

    Status s;
    uint64_t engine_micros = 0;
    if (included_count > 0) {
      WriteOptions wo;
      wo.sync = opts_.sync_writes;
      const uint64_t engine_start = any_sampled ? NowMicros() : 0;
      s = db_->Write(wo, &combined);
      if (any_sampled) engine_micros = NowMicros() - engine_start;
      c_write_groups_->Inc();
      c_batched_writes_->Add(static_cast<uint64_t>(included_count));
      if (s.ok()) RecordAppliedWrites(group, included);
    }
    if (any_sampled) {
      // Every sampled member shares the group's commit/engine/device
      // spans — its latency really was the whole group commit.
      const uint64_t done = NowMicros();
      const double device_delta = DeviceBusySeconds() - busy0;
      for (const Request& req : group) {
        if (!Sampled(req.trace_id)) continue;
        TraceSpan span;
        span.trace_id = req.trace_id;
        span.request_id = req.request_id;
        span.opcode = req.opcode;
        span.queue_micros = pickup - req.enqueue_micros;
        span.commit_micros = done - pickup;
        span.engine_micros = engine_micros;
        span.device_seconds = device_delta;
        span.total_micros = done - req.enqueue_micros;
        RecordTrace(span);
      }
    }
    // Group commit is all-or-nothing: every member shares the outcome.
    std::string payload_out;
    net::EncodeStatusRecord(&payload_out, s);
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      Respond(group[i].conn, group[i].opcode | net::kResponseBit,
              group[i].request_id, payload_out, /*close_after=*/false,
              /*finish=*/true);
    }
  }

  void RunRead(const Request& req) {
    const bool sampled = Sampled(req.trace_id);
    const uint64_t pickup = sampled ? NowMicros() : 0;
    const double busy0 = sampled ? DeviceBusySeconds() : 0.0;
    uint64_t engine_micros = 0;

    std::string payload_out;
    switch (static_cast<net::Op>(req.opcode)) {
      case net::Op::kPing:
        net::EncodeStatusRecord(&payload_out, Status::OK());
        break;
      case net::Op::kGet: {
        Slice key;
        if (!net::DecodeKeyRequest(req.payload, &key)) {
          net::EncodeGetResponse(
              &payload_out, Status::InvalidArgument("malformed GET payload"),
              Slice());
          break;
        }
        std::string value;
        const uint64_t engine_start = sampled ? NowMicros() : 0;
        Status s = db_->Get(ReadOptions(), key, &value);
        if (sampled) engine_micros = NowMicros() - engine_start;
        net::EncodeGetResponse(&payload_out, s, value);
        break;
      }
      case net::Op::kScan: {
        Slice start;
        uint32_t limit = 0;
        std::vector<std::pair<std::string, std::string>> entries;
        if (!net::DecodeScanRequest(req.payload, &start, &limit)) {
          net::EncodeScanResponse(
              &payload_out, Status::InvalidArgument("malformed SCAN payload"),
              entries);
          break;
        }
        limit = std::min(limit, opts_.max_scan_limit);
        const uint64_t engine_start = sampled ? NowMicros() : 0;
        std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
        for (it->Seek(start); it->Valid() && entries.size() < limit;
             it->Next()) {
          entries.emplace_back(it->key().ToString(), it->value().ToString());
        }
        if (sampled) engine_micros = NowMicros() - engine_start;
        net::EncodeScanResponse(&payload_out, it->status(), entries);
        break;
      }
      case net::Op::kStats:
        net::EncodeStatsResponse(&payload_out, Status::OK(), BuildStatsText());
        break;
      case net::Op::kMetrics:
        // Prometheus text exposition of the shared registry: engine,
        // device, allocator, and this server in one pass.
        net::EncodeStatsResponse(&payload_out, Status::OK(),
                                 registry_->Render());
        break;
      default:
        net::EncodeStatusRecord(
            &payload_out, Status::InvalidArgument("unexpected opcode"));
        break;
    }

    if (sampled) {
      const uint64_t done = NowMicros();
      TraceSpan span;
      span.trace_id = req.trace_id;
      span.request_id = req.request_id;
      span.opcode = req.opcode;
      span.queue_micros = pickup - req.enqueue_micros;
      span.commit_micros = done - pickup;
      span.engine_micros = engine_micros;
      span.device_seconds = DeviceBusySeconds() - busy0;
      span.total_micros = done - req.enqueue_micros;
      RecordTrace(span);
    }
    Respond(req.conn, req.opcode | net::kResponseBit, req.request_id,
            payload_out, /*close_after=*/false, /*finish=*/true);
  }

  std::string BuildStatsText() {
    std::string text;
    std::string prop;
    if (db_->GetProperty("sealdb.stats", &prop)) {
      text.append("-- engine --\n");
      text.append(prop);
    }
    if (db_->GetProperty("sealdb.approximate-memory-usage", &prop)) {
      text.append("approximate memory usage: ");
      text.append(prop);
      text.append(" bytes\n");
    }
    if (db_->GetProperty("sealdb.background-error", &prop)) {
      text.append("background error: ");
      text.append(prop);
      text.append("\n");
    }
    if (db_->GetProperty("sealdb.shard-health", &prop)) {
      text.append("-- shard health --\n");
      text.append(prop);
    }
    if (stack_ != nullptr) {
      const smr::DeviceMetrics& d = stack_->drive()->metrics();
      const double busy = d.busy->Seconds();
      const double position = d.position->Seconds();
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "-- device --\n"
          "busy: %.3f s (seek/position %.3f s, transfer %.3f s), seeks: "
          "%llu\n"
          "logical MB written/read: %.1f / %.1f, physical MB written/read: "
          "%.1f / %.1f, AWA: %.3f\n",
          busy, position, busy - position,
          static_cast<unsigned long long>(d.seeks->Value()),
          d.logical_write->Value() / 1048576.0,
          d.logical_read->Value() / 1048576.0,
          d.physical_write->Value() / 1048576.0,
          d.physical_read->Value() / 1048576.0, d.awa());
      text.append(buf);
    }
    // The server section renders the same registry counters the METRICS
    // opcode exposes — there is no second set of books.
    const uint64_t rej_queue = c_rej_queue_full_->Value();
    const uint64_t rej_inflight = c_rej_inflight_->Value();
    const uint64_t rej_stall = c_rej_stall_->Value();
    // Every dispatched request is answered exactly once, so requests stand
    // in for responses (protocol-error replies aside).
    const uint64_t requests = c_requests_->Value();
    const uint64_t socket_writes = c_socket_writes_->Value();
    const double responses_per_write =
        socket_writes > 0 ? static_cast<double>(requests) / socket_writes
                          : 0.0;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "-- server --\n"
        "connections: %llu active / %llu accepted / %llu rejected\n"
        "requests: %llu (gets %llu, writes %llu, scans %llu)\n"
        "group commit: %llu groups for %llu writes\n"
        "bytes in/out: %llu / %llu, connection buffers: %llu bytes\n"
        "responses per socket write: %.2f (%llu requests, %llu writes, "
        "%llu idle worker wake-ups)\n"
        "protocol errors: %llu\n"
        "busy rejections: %llu (queue %llu, inflight %llu, stall %llu)\n"
        "slow-client evictions: %llu, dedup replays: %llu\n",
        static_cast<unsigned long long>(g_conns_active_->Value()),
        static_cast<unsigned long long>(c_conns_accepted_->Value()),
        static_cast<unsigned long long>(c_rej_conns_->Value()),
        static_cast<unsigned long long>(c_requests_->Value()),
        static_cast<unsigned long long>(c_gets_->Value()),
        static_cast<unsigned long long>(c_writes_->Value()),
        static_cast<unsigned long long>(c_scans_->Value()),
        static_cast<unsigned long long>(c_write_groups_->Value()),
        static_cast<unsigned long long>(c_batched_writes_->Value()),
        static_cast<unsigned long long>(c_bytes_in_->Value()),
        static_cast<unsigned long long>(c_bytes_out_->Value()),
        static_cast<unsigned long long>(
            buffer_bytes_.load(std::memory_order_relaxed)),
        responses_per_write, static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(socket_writes),
        static_cast<unsigned long long>(c_idle_wakeups_->Value()),
        static_cast<unsigned long long>(c_protocol_errors_->Value()),
        static_cast<unsigned long long>(rej_queue + rej_inflight + rej_stall),
        static_cast<unsigned long long>(rej_queue),
        static_cast<unsigned long long>(rej_inflight),
        static_cast<unsigned long long>(rej_stall),
        static_cast<unsigned long long>(c_evictions_->Value()),
        static_cast<unsigned long long>(c_dedup_replays_->Value()));
    text.append(buf);
    return text;
  }

  // ----------------------------------------------------------------- stop

  void StopImpl() {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (!started_.load() || stopped_) return;

    // 1. Stop accepting and reading. The loop dispatches any complete
    //    frames it already received, then acknowledges via
    //    reads_quiesced_.
    stopping_.store(true, std::memory_order_release);
    Wake();

    // 2. Drain: every dispatched request executed and its response
    //    appended to its connection buffer.
    {
      std::unique_lock<std::mutex> l(sched_mu_);
      drain_cv_.wait(l, [this] {
        return reads_quiesced_ && ReadsDrained() && !AnyWritesQueued() &&
               executing_.load(std::memory_order_relaxed) == 0;
      });
    }
    // Everything drained: release one token per worker so each wakes,
    // observes the exit flag, and returns.
    workers_exit_.store(true, std::memory_order_release);
    if (!workers_.empty()) {
      work_sem_.release(static_cast<std::ptrdiff_t>(workers_.size()));
    }
    for (auto& w : workers_) w.join();
    workers_.clear();

    // 3. Flush the remaining output buffers, then let the loop exit and
    //    close every socket.
    flush_and_exit_.store(true, std::memory_order_release);
    Wake();
    loop_thread_.join();

    net::CloseFd(epoll_fd_);
    net::CloseFd(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    stopped_ = true;
  }
};

SealServer::SealServer(DB* db, baselines::Stack* stack,
                       const ServerOptions& options)
    : impl_(std::make_unique<Impl>(db, stack, options)) {}

SealServer::~SealServer() {
  if (impl_ != nullptr) impl_->StopImpl();
}

Status SealServer::Start() {
  Status s = impl_->Start();
  if (s.ok()) port_ = impl_->port_;
  return s;
}

void SealServer::Stop() { impl_->StopImpl(); }

uint64_t SealServer::connection_buffer_bytes() const {
  return impl_->buffer_bytes_.load(std::memory_order_relaxed);
}

const std::shared_ptr<obs::MetricsRegistry>& SealServer::metrics_registry()
    const {
  return impl_->registry_;
}

std::vector<TraceSpan> SealServer::sampled_traces() const {
  std::lock_guard<std::mutex> l(impl_->trace_mu_);
  return std::vector<TraceSpan>(impl_->traces_.begin(),
                                impl_->traces_.end());
}

}  // namespace sealdb::server

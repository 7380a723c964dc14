#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

namespace qpp::net {
namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

ErrorCode CodeFromStatus(const Status& st) {
  return st.code() == StatusCode::kNotFound ? ErrorCode::kNoModel
                                            : ErrorCode::kInternal;
}

/// Scatter-gather width per flush call: bounds both the iovec array on the
/// stack and the bytes one sendmsg can pin.
constexpr int kMaxFlushIov = 64;

/// Reactor read buffer: large enough that a full batch container
/// usually arrives in one or two reads.
constexpr size_t kReadBufferBytes = 64 * 1024;

}  // namespace

/// Per-socket reactor-thread-only state. `gen` disambiguates batched
/// requests that outlive the connection: the kernel reuses fds immediately,
/// so a (fd, gen) pair — not the fd alone — names a connection.
struct PredictionServer::Connection {
  int fd = -1;
  uint64_t gen = 0;
  FrameDecoder decoder;
  /// Unsent response bytes as separate header/payload chunks, flushed with
  /// scatter-gather sendmsg. [outbox_off, front.size) is the unflushed part
  /// of the front chunk; outbox_bytes is the total unsent byte count.
  std::deque<std::string> outbox;
  size_t outbox_off = 0;
  size_t outbox_bytes = 0;
  /// Requests admitted from this connection and not yet answered.
  size_t pending = 0;
  /// This peer has sent a v2 batch container — replies may be batched.
  bool peer_batch = false;
  /// EPOLLOUT currently registered (outbox hit EAGAIN).
  bool want_write = false;
  /// Reads suspended: outbox over the backpressure bound, protocol
  /// violation, or peer EOF.
  bool read_paused = false;
  /// Protocol violation: close as soon as the outbox and pending drain.
  bool closing = false;
  /// Peer half-closed its write side; it may still read our responses.
  bool peer_eof = false;
  /// Queued for ReapDead; no further IO.
  bool dead = false;
};

PredictionServer::PredictionServer(serve::PredictionService* service,
                                   ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      rbuf_(kReadBufferBytes),
      in_flight_gauge_(
          obs::MetricsRegistry::Global()->GetGauge("net.server.in_flight")),
      queue_depth_gauge_(
          obs::MetricsRegistry::Global()->GetGauge("net.server.queue_depth")),
      connections_gauge_(
          obs::MetricsRegistry::Global()->GetGauge("net.server.connections")),
      shed_counter_(
          obs::MetricsRegistry::Global()->GetCounter("net.server.shed")),
      // Same resolution ladder as serve.predict.latency_us but extended:
      // 1 us .. ~4 s, since network round trips include queueing delay.
      latency_hist_(obs::MetricsRegistry::Global()->GetHistogram(
          "net.request.latency_us", obs::ExponentialBuckets(1.0, 2.0, 23))),
      instance_latency_hist_(obs::ExponentialBuckets(1.0, 2.0, 23)) {}

PredictionServer::~PredictionServer() { Shutdown(); }

Result<uint16_t> PredictionServer::OpenFds() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError(Errno("socket"));
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFds();
    return Status::InvalidArgument("bad IPv4 host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, SOMAXCONN) < 0) {
    Status st = Status::IOError(Errno("bind/listen"));
    CloseFds();
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    Status st = Status::IOError(Errno("getsockname"));
    CloseFds();
    return st;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Status::IOError(Errno("epoll_create1/eventfd"));
    CloseFds();
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  return static_cast<uint16_t>(ntohs(bound.sin_port));
}

void PredictionServer::CloseFds() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

Status PredictionServer::Start() {
  // One-shot start guard: acq_rel pairs the winning exchange with any
  // later observer; cold path, so no need to shave the fence.
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return Status::Internal("PredictionServer started twice");
  }
  QPP_ASSIGN_OR_RETURN(const uint16_t bound_port, OpenFds());
  port_.store(bound_port, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void PredictionServer::Shutdown() {
  std::lock_guard<OrderedMutex> lock(shutdown_mu_);
  if (!thread_.joinable()) return;
  draining_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  // The eventfd is nonblocking; on overflow (EAGAIN) it is already
  // readable, which is all a wakeup needs.
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;
  thread_.join();
  // The wake/epoll fds are closed here, after the join, never by the
  // reactor: a reactor that saw draining_ and exited before the write
  // above would otherwise have this thread write a closed (possibly
  // recycled) descriptor. The reactor already closed the listen socket
  // when the drain began.
  CloseFds();
  running_.store(false, std::memory_order_release);
}

int PredictionServer::NextTimeoutMs() const {
  // While draining, poll: completion of the last outbox flush has no
  // dedicated wakeup, and 20 ms bounds drain-exit latency without spinning.
  int cap = draining_.load(std::memory_order_acquire) ? 20 : -1;
  if (batch_.empty()) return cap;
  const auto oldest = batch_.front().enqueued;
  const auto flush_at =
      oldest + std::chrono::microseconds(config_.max_delay_us);
  const auto now = Clock::now();
  if (flush_at <= now) return 0;
  const auto remaining_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(flush_at - now)
          .count() +
      1;  // round up so the deadline has passed when epoll_wait returns
  int ms = static_cast<int>(remaining_ms);
  return cap < 0 ? ms : std::min(ms, cap);
}

void PredictionServer::ReactorLoop() {
  epoll_event events[64];
  bool accepting = true;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; drain state below still runs
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == listen_fd_) {
        if (accepting) HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end() || it->second->dead) continue;
      Connection* conn = it->second.get();
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        MarkDead(conn);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) HandleWritable(conn);
      if ((mask & EPOLLIN) != 0) HandleReadable(conn);
    }
    // Flush the micro-batch when full (handled at admit), overdue, or
    // draining (no point holding requests while shutting down).
    if (!batch_.empty()) {
      const bool overdue = Clock::now() - batch_.front().enqueued >=
                           std::chrono::microseconds(config_.max_delay_us);
      if (overdue || batch_.size() >= config_.max_batch ||
          draining_.load(std::memory_order_acquire)) {
        DispatchBatch();
      }
    }
    // Resume connections paused for outbox backpressure once drained below
    // half the bound (hysteresis). Their read edge already fired, so read
    // now rather than waiting for an edge that will never re-arrive.
    for (auto& [fd, conn] : conns_) {
      (void)fd;
      if (conn->read_paused && !conn->closing && !conn->peer_eof &&
          !conn->dead &&
          conn->outbox_bytes < config_.max_outbox_bytes / 2) {
        conn->read_paused = false;
        HandleReadable(conn.get());
      }
    }
    ReapDead();
    in_flight_gauge_->Set(static_cast<double>(batch_.size()));
    queue_depth_gauge_->Set(static_cast<double>(batch_.size()));
    connections_gauge_->Set(static_cast<double>(open_conns_));
    if (draining_.load(std::memory_order_acquire)) {
      if (accepting) {
        // Stop accepting: close the listening socket (epoll deregisters it
        // automatically). New requests on live connections now get
        // kShuttingDown from HandleFrame.
        accepting = false;
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Every admitted request is answered once the batch is dispatched
      // (above), so the drain ends when the outboxes have flushed.
      bool outboxes_empty = true;
      for (const auto& [fd, conn] : conns_) {
        (void)fd;
        if (conn->outbox_bytes > 0) outboxes_empty = false;
      }
      if (batch_.empty() && outboxes_empty) break;
    }
  }
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
    --open_conns_;
  }
  conns_.clear();
  dead_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // wake_fd_/epoll_fd_ are deliberately NOT closed here: Shutdown() closes
  // them after joining this thread, so its wakeup can never write to a
  // closed (possibly recycled) descriptor.
}

void PredictionServer::HandleAccept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (edge drained) or transient accept error
    if (open_conns_ >= config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = next_conn_gen_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    ++open_conns_;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
  }
}

void PredictionServer::HandleReadable(Connection* conn) {
  while (!conn->read_paused && !conn->dead) {
    // Serve frames decoded but not yet handled (left over from a
    // backpressure pause) before reading more bytes.
    while (!conn->read_paused && !conn->dead) {
      auto frame = conn->decoder.NextView();
      if (!frame) break;
      HandleFrame(conn, *frame);
    }
    if (conn->read_paused || conn->dead) break;
    const ssize_t n = ::recv(conn->fd, rbuf_.data(), rbuf_.size(), 0);
    if (n > 0) {
      Status st = conn->decoder.Feed(rbuf_.data(), static_cast<size_t>(n));
      while (!conn->read_paused && !conn->dead) {
        auto frame = conn->decoder.NextView();
        if (!frame) break;
        HandleFrame(conn, *frame);
      }
      if (!st.ok() && !conn->closing && !conn->dead) {
        // Protocol violation: answer with a typed error, stop reading the
        // corrupt stream, close once queued replies flush.
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        QueueError(conn, 0, ErrorCode::kBadRequest, st.message());
        conn->closing = true;
        conn->read_paused = true;
      }
      continue;
    }
    if (n == 0) {
      // Peer half-closed; it may still be reading. Close once all admitted
      // requests are answered and flushed.
      conn->peer_eof = true;
      conn->read_paused = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    MarkDead(conn);
    return;
  }
  MaybeCloseQuiesced(conn);
}

void PredictionServer::HandleFrame(Connection* conn, const FrameView& frame) {
  if (frame.from_batch && !conn->peer_batch) {
    // The peer speaks v2: batch its replies from now on.
    conn->peer_batch = true;
  }
  if (frame.type != FrameType::kRequest) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    QueueError(conn, frame.request_id, ErrorCode::kBadRequest,
               std::string("unexpected ") + FrameTypeName(frame.type) +
                   " frame from client");
    conn->closing = true;
    conn->read_paused = true;
    return;
  }
  auto req = DecodeRequestPayload(frame.payload);
  if (!req.ok()) {
    // Well-framed but unparseable payload: typed error, connection
    // survives (framing is intact, so the stream is still in sync).
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    QueueError(conn, frame.request_id, ErrorCode::kBadRequest,
               req.status().message());
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    QueueError(conn, frame.request_id, ErrorCode::kShuttingDown,
               "server is draining");
    return;
  }
  const size_t global = batch_.size();
  if (conn->pending >= config_.max_pending_per_conn ||
      global >= config_.max_queue) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->Increment();
    QueueError(conn, frame.request_id, ErrorCode::kOverloaded,
               "queue full: " + std::to_string(conn->pending) +
                   " pending on connection, " + std::to_string(global) +
                   " global");
    return;
  }
  Pending p;
  p.fd = conn->fd;
  p.conn_gen = conn->gen;
  p.request_id = frame.request_id;
  p.record = std::move(req->record);
  p.enqueued = Clock::now();
  p.deadline = req->deadline_us != 0
                   ? p.enqueued + std::chrono::microseconds(req->deadline_us)
                   : Clock::time_point::max();
  // Admission checked right above: batch can never exceed max_queue.
  batch_.push_back(std::move(p));
  ++conn->pending;
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  if (batch_.size() >= config_.max_batch) DispatchBatch();
}

void PredictionServer::AppendChunk(Connection* conn, std::string bytes) {
  if (bytes.empty()) return;
  conn->outbox_bytes += bytes.size();
  // Growth pauses reads at max_outbox_bytes (TCP backpressure), and every
  // queued byte was admitted under the pending caps.
  // qpp-lint: allow(unbounded-member-push): max_outbox_bytes read pause
  conn->outbox.push_back(std::move(bytes));
}

void PredictionServer::QueueReply(Connection* conn, uint64_t request_id,
                                  std::string payload, bool is_error) {
  AppendChunk(conn,
              EncodeFrameHeader(kProtocolVersion,
                                is_error ? FrameType::kError
                                         : FrameType::kResponse,
                                request_id,
                                static_cast<uint32_t>(payload.size())));
  AppendChunk(conn, std::move(payload));
  (is_error ? errors_sent_ : responses_sent_)
      .fetch_add(1, std::memory_order_relaxed);
  FlushOutbox(conn);
  if (conn->outbox_bytes > config_.max_outbox_bytes && !conn->read_paused) {
    conn->read_paused = true;  // TCP backpressure: stop reading this peer
  }
}

void PredictionServer::QueueError(Connection* conn, uint64_t request_id,
                                  ErrorCode code, const std::string& message) {
  QueueReply(conn, request_id, EncodeErrorPayload(code, message),
             /*is_error=*/true);
}

void PredictionServer::QueueBatchedReplies(Connection* conn,
                                           const std::vector<Reply*>& group) {
  // Wrap runs of replies into v2 containers, splitting below the
  // payload/count caps; an inner frame that alone would blow the container
  // cap goes out as a plain v1 frame (legal interleave).
  size_t i = 0;
  while (i < group.size()) {
    size_t inner_bytes = 0;
    uint32_t count = 0;
    size_t j = i;
    while (j < group.size() && count < kMaxBatchFrames) {
      const size_t next_bytes =
          inner_bytes + kFrameHeaderBytes + group[j]->payload.size();
      if (kBatchCountBytes + next_bytes > kMaxPayloadBytes) break;
      inner_bytes = next_bytes;
      ++count;
      ++j;
    }
    if (count <= 1) {
      // One frame (or one too big for a container): no batching win, send
      // unwrapped.
      AppendChunk(conn, std::move(group[i]->header));
      AppendChunk(conn, std::move(group[i]->payload));
      ++i;
      continue;
    }
    AppendChunk(conn, EncodeBatchHeader(count, inner_bytes));
    for (size_t k = i; k < j; ++k) {
      AppendChunk(conn, std::move(group[k]->header));
      AppendChunk(conn, std::move(group[k]->payload));
    }
    i = j;
  }
}

void PredictionServer::HandleWritable(Connection* conn) {
  FlushOutbox(conn);
  MaybeCloseQuiesced(conn);
}

void PredictionServer::FlushOutbox(Connection* conn) {
  if (conn->dead) return;
  while (conn->outbox_bytes > 0) {
    // Gather up to kMaxFlushIov chunks into one sendmsg (the scatter list
    // is bounded, so the stack array and the per-call pin stay small).
    iovec iov[kMaxFlushIov];
    int iovcnt = 0;
    size_t off = conn->outbox_off;
    for (auto& chunk : conn->outbox) {
      if (iovcnt >= kMaxFlushIov) break;
      iov[iovcnt].iov_base = chunk.data() + off;
      iov[iovcnt].iov_len = chunk.size() - off;
      ++iovcnt;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // sendmsg == scatter-gather writev, plus MSG_NOSIGNAL (a raw writev to
    // a closed peer would raise SIGPIPE).
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      size_t advanced = static_cast<size_t>(n);
      conn->outbox_bytes -= advanced;
      while (advanced > 0) {
        std::string& front = conn->outbox.front();
        const size_t avail = front.size() - conn->outbox_off;
        if (advanced >= avail) {
          advanced -= avail;
          conn->outbox.pop_front();
          conn->outbox_off = 0;
        } else {
          conn->outbox_off += advanced;
          advanced = 0;
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateWriteInterest(conn, /*want_write=*/true);
      return;
    }
    MarkDead(conn);
    return;
  }
  UpdateWriteInterest(conn, /*want_write=*/false);
}

void PredictionServer::UpdateWriteInterest(Connection* conn,
                                           bool want_write) {
  if (conn->want_write == want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void PredictionServer::MaybeCloseQuiesced(Connection* conn) {
  if (conn->dead || (!conn->closing && !conn->peer_eof)) return;
  if (conn->pending == 0 && conn->outbox_bytes == 0) {
    MarkDead(conn);
  }
}

void PredictionServer::DispatchBatch() {
  if (batch_.empty()) return;
  batches_dispatched_.fetch_add(1, std::memory_order_relaxed);
  // Deadlines are checked here: expired work never reaches the predictor.
  std::vector<Reply> replies;
  replies.reserve(batch_.size());
  const auto now = Clock::now();
  std::vector<size_t> live;
  std::vector<QueryRecord> queries;
  live.reserve(batch_.size());
  queries.reserve(batch_.size());
  for (size_t i = 0; i < batch_.size(); ++i) {
    if (batch_[i].deadline <= now) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      shed_counter_->Increment();
      replies.push_back(MakeError(batch_[i], ErrorCode::kDeadlineExceeded,
                                  "deadline expired before dispatch"));
      continue;
    }
    live.push_back(i);
    queries.push_back(std::move(batch_[i].record));
  }
  if (!live.empty()) {
    // One snapshot, predicted serially on this thread.
    auto predictions = service_->PredictBatch(queries);
    for (size_t j = 0; j < live.size(); ++j) {
      const Pending& p = batch_[live[j]];
      if (predictions.ok()) {
        replies.push_back(MakeResponse(p, (*predictions)[j]));
        continue;
      }
      // Wholesale batch failure (e.g. no model yet): retry per element so
      // every request gets its own typed verdict.
      auto one = service_->Predict(queries[j]);
      replies.push_back(one.ok() ? MakeResponse(p, *one)
                                 : MakeError(p, CodeFromStatus(one.status()),
                                             one.status().message()));
    }
  }
  const auto finished = Clock::now();
  for (const Pending& p : batch_) {
    const double us =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                 p.enqueued)
                .count()) /
        1e3;
    latency_hist_->Observe(us);
    instance_latency_hist_.Observe(us);
  }
  // Clearing the batch releases every admission slot, whether or not the
  // reply's connection is still there to receive it.
  batch_.clear();
  DeliverReplies(&replies);
}

PredictionServer::Reply PredictionServer::MakeResponse(
    const Pending& p, const serve::PredictionService::Prediction& pred) {
  Reply r;
  r.fd = p.fd;
  r.conn_gen = p.conn_gen;
  r.is_error = false;
  r.payload = EncodeResponsePayload(pred.predicted_ms, pred.model_version);
  r.header = EncodeFrameHeader(kProtocolVersion, FrameType::kResponse,
                               p.request_id,
                               static_cast<uint32_t>(r.payload.size()));
  return r;
}

PredictionServer::Reply PredictionServer::MakeError(
    const Pending& p, ErrorCode code, const std::string& message) {
  Reply r;
  r.fd = p.fd;
  r.conn_gen = p.conn_gen;
  r.is_error = true;
  r.payload = EncodeErrorPayload(code, message);
  r.header = EncodeFrameHeader(kProtocolVersion, FrameType::kError,
                               p.request_id,
                               static_cast<uint32_t>(r.payload.size()));
  return r;
}

void PredictionServer::DeliverReplies(std::vector<Reply>* replies) {
  // Group replies per connection (preserving order) so a v2 peer gets one
  // container per batch instead of N separate frames.
  std::map<Connection*, std::vector<Reply*>> grouped;
  std::vector<Connection*> order;
  for (Reply& r : *replies) {
    auto it = conns_.find(r.fd);
    if (it == conns_.end() || it->second->dead ||
        it->second->gen != r.conn_gen) {
      dropped_disconnect_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection* conn = it->second.get();
    if (conn->pending > 0) --conn->pending;
    (r.is_error ? errors_sent_ : responses_sent_)
        .fetch_add(1, std::memory_order_relaxed);
    auto& vec = grouped[conn];
    if (vec.empty()) order.push_back(conn);
    vec.push_back(&r);
  }
  for (Connection* conn : order) {
    const auto& group = grouped[conn];
    if (conn->peer_batch) {
      QueueBatchedReplies(conn, group);
    } else {
      for (Reply* r : group) {
        AppendChunk(conn, std::move(r->header));
        AppendChunk(conn, std::move(r->payload));
      }
    }
    FlushOutbox(conn);
    if (conn->outbox_bytes > config_.max_outbox_bytes && !conn->read_paused) {
      conn->read_paused = true;
    }
    MaybeCloseQuiesced(conn);
  }
}

void PredictionServer::MarkDead(Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  // At most one entry per open connection, capped at max_connections.
  // qpp-lint: allow(unbounded-member-push): bounded by config_.max_connections
  dead_.push_back(conn->fd);
}

void PredictionServer::ReapDead() {
  for (int fd : dead_) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    // Closing deregisters the fd from epoll; any event already harvested
    // for it this cycle was skipped via the dead flag.
    ::close(fd);
    conns_.erase(it);
    --open_conns_;
  }
  dead_.clear();
}

ServerStats PredictionServer::Stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.requests_received = requests_received_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  s.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.batches_dispatched = batches_dispatched_.load(std::memory_order_relaxed);
  s.dropped_disconnect = dropped_disconnect_.load(std::memory_order_relaxed);
  s.p50_latency_us = instance_latency_hist_.Quantile(0.50);
  s.p95_latency_us = instance_latency_hist_.Quantile(0.95);
  s.p99_latency_us = instance_latency_hist_.Quantile(0.99);
  return s;
}

}  // namespace qpp::net

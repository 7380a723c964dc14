#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/result.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace qpp::net {

/// Upper bound on ServerConfig::max_batch; Start refuses a larger one. The
/// micro-batch is the server's only request queue, so this bounds the
/// requests it holds.
inline constexpr size_t kMaxBatch = 1024;

struct ServerConfig {
  /// Numeric IPv4 address to bind (loopback by default — this is a
  /// prediction sidecar, not an internet-facing service).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with PredictionServer::port().
  uint16_t port = 0;
  /// Accepted connections beyond this are rejected (accept-then-close).
  size_t max_connections = 64;
  /// Micro-batcher: dispatch when this many requests are pending
  /// (at most kMaxBatch)...
  size_t max_batch = 32;
  /// ...or when the oldest pending request has waited this long, whichever
  /// comes first. max_batch=1 disables batching (every request dispatches
  /// immediately; max_delay_us is then irrelevant).
  uint32_t max_delay_us = 200;
  /// When a connection's unsent response bytes exceed this, the server
  /// stops reading from it (TCP backpressure) until the outbox drains.
  size_t max_outbox_bytes = 1u << 20;
};

/// Point-in-time counters of a PredictionServer. All monotone since Start.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  /// Requests admitted into the batcher (excludes malformed ones and those
  /// refused while draining).
  uint64_t requests_received = 0;
  uint64_t responses_sent = 0;
  uint64_t errors_sent = 0;
  /// Always 0: the server sheds nothing on admission. Kept because the
  /// e2e benchmark reads it; it goes with the next benchmark change.
  uint64_t shed_overload = 0;
  /// Requests answered with kDeadlineExceeded because they expired queued.
  uint64_t shed_deadline = 0;
  /// Connections dropped for a frame-level protocol violation.
  uint64_t frame_errors = 0;
  /// Well-framed requests whose payload failed to parse (kBadRequest).
  uint64_t parse_errors = 0;
  uint64_t batches_dispatched = 0;
  /// Responses dropped because the client disconnected before delivery.
  uint64_t dropped_disconnect = 0;
  /// End-to-end (admit -> response encoded) latency quantiles, us, of this
  /// server's own requests. Co-resident servers stay isolated; the
  /// process-wide "net.request.latency_us" histogram aggregates them all.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

/// \brief Epoll-based TCP front end for PredictionService — the paper's
/// "prediction at query arrival time" interface exposed over a socket so
/// admission control / resource managers in other processes can consult the
/// model (Section 1 use cases).
///
/// One reactor thread does all of the work: it accepts, reads frames
/// (edge-triggered, non-blocking), admits requests into an adaptive
/// micro-batch (flushed at max_batch items or when the oldest entry is
/// max_delay_us old, whichever first), predicts the batch serially against
/// one model snapshot (PredictionService::PredictBatch), and writes the
/// responses. A prediction costs a few microseconds, less than any hop to
/// another thread and back would, so no other thread touches a request.
///
/// The wire path is copy-light end to end: the decoder yields
/// string_view frames over its own buffer, responses are queued as
/// separate header/payload chunks, and the outbox flushes with
/// scatter-gather sendmsg so header and payload bytes are never
/// concatenated. A client batches by pipelining: N request frames in one
/// write, whose N reply frames a dispatch appends and flushes together.
///
/// Backpressure is explicit and bounded everywhere: the micro-batch is the
/// only request queue and dispatches at max_batch (at most kMaxBatch), so
/// nothing is shed on admission; oversized outboxes pause reading from
/// that peer, and the frame decoder's buffer is capped. Expired requests
/// are answered kDeadlineExceeded at dispatch. Shutdown() drains
/// gracefully: stop accepting, fail new requests with kShuttingDown,
/// dispatch the partial batch, flush every outbox, then close — an
/// admitted request is never dropped (except by its peer disconnecting).
class PredictionServer {
 public:
  /// `service` must outlive the server.
  PredictionServer(serve::PredictionService* service, ServerConfig config);
  /// Joins the reactor (calls Shutdown if still running).
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Binds, listens and starts the reactor thread. Fails on bind/listen
  /// errors (e.g. port in use) and on max_batch > kMaxBatch without
  /// leaking fds.
  Status Start();

  /// Graceful drain; idempotent; blocks until the reactor has exited.
  /// Safe from any thread except the reactor itself.
  void Shutdown();

  /// The bound port (resolves ephemeral port 0); 0 before Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats Stats() const;

  const ServerConfig& config() const { return config_; }

 private:
  struct Connection;
  /// One admitted request waiting in the micro-batch.
  struct Pending {
    int fd = -1;
    uint64_t conn_gen = 0;
    uint64_t request_id = 0;
    QueryRecord record;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute expiry; time_point::max() when the request has no deadline.
    std::chrono::steady_clock::time_point deadline;
  };
  /// One encoded reply of a dispatched batch. Header and payload stay
  /// separate buffers so the outbox can scatter-gather them without
  /// re-concatenating.
  struct Reply {
    int fd = -1;
    uint64_t conn_gen = 0;
    std::string header;
    std::string payload;
    bool is_error = false;
  };

  /// Opens and binds the listen socket, epoll set and wake eventfd;
  /// returns the bound port.
  Result<uint16_t> OpenFds();
  void CloseFds();
  void ReactorLoop();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void HandleFrame(Connection* conn, const FrameView& frame);
  /// Appends one chunk of wire bytes to the connection outbox.
  static void AppendChunk(Connection* conn, std::string bytes);
  void QueueReply(Connection* conn, uint64_t request_id, std::string payload,
                  bool is_error);
  void QueueError(Connection* conn, uint64_t request_id, ErrorCode code,
                  const std::string& message);
  void FlushOutbox(Connection* conn);
  void UpdateWriteInterest(Connection* conn, bool want_write);
  /// Closes a half-dead connection (protocol violation or peer EOF) once
  /// every admitted request is answered and the outbox is flushed.
  void MaybeCloseQuiesced(Connection* conn);
  /// Predicts the micro-batch on the reactor and queues every reply on
  /// its live (fd, gen) connection.
  void DispatchBatch();
  /// Queues one dispatched batch's replies in batch order, then flushes
  /// each connection they went to once.
  void DeliverReplies(std::vector<Reply>* replies);
  static Reply MakeResponse(const Pending& p,
                            const serve::PredictionService::Prediction& pred);
  static Reply MakeError(const Pending& p, ErrorCode code,
                         const std::string& message);
  void MarkDead(Connection* conn);
  void ReapDead();
  /// epoll_wait timeout honouring the oldest batch entry's flush deadline.
  int NextTimeoutMs() const;

  serve::PredictionService* service_;
  const ServerConfig config_;

  /// Serializes Shutdown callers (join is single-shot).
  OrderedMutex shutdown_mu_;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  /// Reactor-thread state (Start opens the fds before spawning the
  /// reactor; Shutdown closes them after joining it). wake_fd_ only
  /// carries Shutdown's wakeup.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::vector<int> dead_;
  std::vector<Pending> batch_;
  uint64_t next_conn_gen_ = 1;
  std::vector<char> rbuf_;
  /// Open sockets. (Admitted-but-unanswered requests are exactly batch_:
  /// a dispatch answers every request in it.)
  size_t open_conns_ = 0;

  /// Stats counters (relaxed atomics: the reactor writes them, Stats()
  /// reads them from any thread).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> errors_sent_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> batches_dispatched_{0};
  std::atomic<uint64_t> dropped_disconnect_{0};

  /// Shared obs instrumentation (global registry; see DESIGN.md naming).
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* connections_gauge_;
  obs::Counter* shed_counter_;
  obs::Histogram* latency_hist_;
  /// This instance's own latency histogram (same buckets); Stats()
  /// percentiles read it.
  obs::Histogram instance_latency_hist_;

  /// The reactor; declared last so every member it reads outlives it.
  std::thread thread_;
};

}  // namespace qpp::net

#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "workload/query_log.h"

namespace qpp::net {

/// One reply from the server, success or typed failure. Transport and
/// protocol problems (connection refused, garbage frames, EOF mid-frame)
/// surface as non-OK Result instead; `error != kNone` means the server
/// itself declined the request (no model, deadline, draining, bad request).
struct ClientReply {
  uint64_t request_id = 0;
  ErrorCode error = ErrorCode::kNone;
  std::string error_message;
  double predicted_ms = 0.0;
  uint64_t model_version = 0;
};

/// Test-only interposition points for the client's socket calls. Null
/// members fall through to the real syscall. Set them only while no client
/// is doing IO (they are read without synchronization); used by the
/// fault-injection tests to force short writes / EINTR.
struct ClientIoHooks {
  ssize_t (*send)(int fd, const void* buf, size_t len, int flags) = nullptr;
  ssize_t (*sendmsg)(int fd, const msghdr* msg, int flags) = nullptr;
  ssize_t (*recv)(int fd, void* buf, size_t len, int flags) = nullptr;
};
void SetClientIoHooksForTest(ClientIoHooks hooks);

/// \brief Blocking TCP client for PredictionServer.
///
/// Three usage styles over one connection:
///   - Sync: Predict() sends one request and waits for its reply.
///   - Pipelined: Send() any number of requests, then Receive() replies in
///     order; the server preserves per-connection FIFO only for requests in
///     the same batch, so match replies to requests by request_id.
///   - Batched: SendBatch() pipelines N requests as N frames written by
///     one scatter-gather write (binary-encoded records); Receive() takes
///     their replies one frame at a time, like any pipelined ones.
///
/// Not thread-safe: one PredictionClient per thread.
class PredictionClient {
 public:
  PredictionClient() = default;
  ~PredictionClient();

  PredictionClient(const PredictionClient&) = delete;
  PredictionClient& operator=(const PredictionClient&) = delete;

  /// Connects to a numeric IPv4 address ("127.0.0.1").
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sync round trip: Send + wait for this request's reply.
  Result<ClientReply> Predict(const QueryRecord& record,
                              uint32_t deadline_us = 0);

  /// Sends one request without waiting; returns its request_id.
  Result<uint64_t> Send(const QueryRecord& record, uint32_t deadline_us = 0);

  /// Sends every record as its own request frame, all of them written by
  /// one scatter-gather write, without waiting; returns the request_ids in
  /// record order. Records travel in the compact binary encoding.
  Result<std::vector<uint64_t>> SendBatch(
      const std::vector<const QueryRecord*>& records,
      uint32_t deadline_us = 0);

  /// Blocks for the next reply (any request_id).
  Result<ClientReply> Receive();

 private:
  Status WriteAll(const std::string& bytes);
  /// Writes a scatter list fully, handling EINTR and partial sends; the
  /// entries are consumed/adjusted in place.
  Status WriteVecAll(std::vector<iovec>* iov);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
  /// Receive buffer, grown to the decoder's pending-frame hint so a large
  /// frame arrives in a few reads instead of 4 KiB slices.
  std::vector<char> rbuf_;
};

/// Connection-pooling load generator: `connections` threads each open one
/// PredictionClient and push `requests_per_connection` pipelined requests
/// (window-bounded, no deadline) drawn round-robin from `workload`.
struct LoadGenOptions {
  int connections = 1;
  int requests_per_connection = 100;
  /// Max unacknowledged requests per connection before reading a reply.
  int window = 16;
  /// Requests per send: 1 sends text frames one at a time through Send; > 1
  /// sends whole batches of min(batch, window, requests left) through
  /// SendBatch, each once it fits in the window.
  int batch = 1;
};

struct LoadGenReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  /// Typed server-side failures of any kind.
  uint64_t errors = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  /// Client-observed send -> reply latency quantiles, microseconds.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Runs the load generator against a serving endpoint. Fails on transport
/// errors (server unreachable, connection dropped mid-run); typed server
/// errors are counted in the report, not failures. `workload` must be
/// non-empty.
Result<LoadGenReport> RunLoadGenerator(const std::string& host, uint16_t port,
                                       const QueryLog& workload,
                                       const LoadGenOptions& options);

}  // namespace qpp::net

#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/stats.h"

namespace qpp::net {
namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Scatter-gather width per sendmsg call (IOV_MAX is far larger, but a
/// small bound keeps the per-call pin and retry cost predictable).
constexpr size_t kClientMaxIov = 64;

/// Read sizing bounds around the decoder's pending-frame hint.
constexpr size_t kMinReadBytes = 4096;
constexpr size_t kMaxReadBytes = 256 * 1024;

/// Test interposition (see SetClientIoHooksForTest): written only while no
/// client is mid-IO, read unsynchronized on the fast path.
ClientIoHooks g_io_hooks;

ssize_t IoSend(int fd, const void* buf, size_t len, int flags) {
  return g_io_hooks.send != nullptr ? g_io_hooks.send(fd, buf, len, flags)
                                    : ::send(fd, buf, len, flags);
}

ssize_t IoSendmsg(int fd, const msghdr* msg, int flags) {
  return g_io_hooks.sendmsg != nullptr ? g_io_hooks.sendmsg(fd, msg, flags)
                                       // qpp-lint: allow(net-unbounded-iovec): pass-through wrapper; WriteVecAll clamps msg_iovlen to kClientMaxIov
                                       : ::sendmsg(fd, msg, flags);
}

ssize_t IoRecv(int fd, void* buf, size_t len, int flags) {
  return g_io_hooks.recv != nullptr ? g_io_hooks.recv(fd, buf, len, flags)
                                    : ::recv(fd, buf, len, flags);
}

}  // namespace

void SetClientIoHooksForTest(ClientIoHooks hooks) { g_io_hooks = hooks; }

PredictionClient::~PredictionClient() { Close(); }

Status PredictionClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::Internal("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad IPv4 host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(Errno("connect"));
    Close();
    return st;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void PredictionClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status PredictionClient::WriteAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        IoSend(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // A 0 return on a nonzero-length send means no progress and no errno
      // to trust; retrying could spin forever.
      return Status::IOError("send made no progress (returned 0)");
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("send"));
  }
  return Status::OK();
}

Status PredictionClient::WriteVecAll(std::vector<iovec>* iov) {
  size_t idx = 0;
  while (idx < iov->size()) {
    msghdr msg{};
    msg.msg_iov = iov->data() + idx;
    // Bounded scatter list per call.
    msg.msg_iovlen = std::min(iov->size() - idx, kClientMaxIov);
    // sendmsg == scatter-gather writev, plus MSG_NOSIGNAL (a raw writev to
    // a closed peer would raise SIGPIPE).
    const ssize_t n = IoSendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Partial send: consume whole entries, then shrink the split one.
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0) {
        iovec& e = (*iov)[idx];
        if (advanced >= e.iov_len) {
          advanced -= e.iov_len;
          ++idx;
        } else {
          e.iov_base = static_cast<char*>(e.iov_base) + advanced;
          e.iov_len -= advanced;
          advanced = 0;
        }
      }
      continue;
    }
    if (n == 0) {
      return Status::IOError("sendmsg made no progress (returned 0)");
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("sendmsg"));
  }
  return Status::OK();
}

Result<uint64_t> PredictionClient::Send(const QueryRecord& record,
                                        uint32_t deadline_us) {
  if (fd_ < 0) return Status::Internal("client not connected");
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = next_request_id_++;
  frame.payload = EncodeRequestPayload(deadline_us, record);
  QPP_RETURN_NOT_OK(WriteAll(EncodeFrame(frame)));
  return frame.request_id;
}

Result<std::vector<uint64_t>> PredictionClient::SendBatch(
    const std::vector<const QueryRecord*>& records, uint32_t deadline_us) {
  if (fd_ < 0) return Status::Internal("client not connected");
  if (records.empty()) {
    return Status::InvalidArgument("SendBatch needs at least one record");
  }
  std::vector<uint64_t> ids;
  ids.reserve(records.size());
  // Encode every inner frame up front (header and payload as separate
  // buffers), then ship runs of them wrapped in container frames with one
  // scatter-gather write per run.
  std::vector<std::string> headers(records.size());
  std::vector<std::string> payloads(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const uint64_t id = next_request_id_++;
    ids.push_back(id);
    payloads[i] = EncodeRequestPayloadBinary(deadline_us, *records[i]);
    headers[i] =
        EncodeFrameHeader(kProtocolVersion, FrameType::kRequest, id,
                          static_cast<uint32_t>(payloads[i].size()));
  }
  size_t i = 0;
  while (i < records.size()) {
    size_t inner_bytes = 0;
    uint32_t count = 0;
    size_t j = i;
    while (j < records.size() && count < kMaxBatchFrames) {
      const size_t next_bytes =
          inner_bytes + kFrameHeaderBytes + payloads[j].size();
      if (kBatchCountBytes + next_bytes > kMaxPayloadBytes) break;
      inner_bytes = next_bytes;
      ++count;
      ++j;
    }
    if (count == 0) {
      // One record too large for any container: send it as a v1 frame.
      std::vector<iovec> iov(2);
      iov[0] = {headers[i].data(), headers[i].size()};
      iov[1] = {payloads[i].data(), payloads[i].size()};
      QPP_RETURN_NOT_OK(WriteVecAll(&iov));
      ++i;
      continue;
    }
    std::string batch_header = EncodeBatchHeader(count, inner_bytes);
    std::vector<iovec> iov;
    iov.reserve(1 + 2 * (j - i));
    iov.push_back({batch_header.data(), batch_header.size()});
    for (size_t k = i; k < j; ++k) {
      iov.push_back({headers[k].data(), headers[k].size()});
      if (!payloads[k].empty()) {
        iov.push_back({payloads[k].data(), payloads[k].size()});
      }
    }
    QPP_RETURN_NOT_OK(WriteVecAll(&iov));
    i = j;
  }
  return ids;
}

Result<ClientReply> PredictionClient::Receive() {
  if (fd_ < 0) return Status::Internal("client not connected");
  while (true) {
    if (auto frame = decoder_.NextView()) {
      ClientReply reply;
      reply.request_id = frame->request_id;
      if (frame->type == FrameType::kResponse) {
        QPP_ASSIGN_OR_RETURN(auto resp, DecodeResponsePayload(frame->payload));
        reply.predicted_ms = resp.predicted_ms;
        reply.model_version = resp.model_version;
        return reply;
      }
      if (frame->type == FrameType::kError) {
        QPP_ASSIGN_OR_RETURN(auto err, DecodeErrorPayload(frame->payload));
        reply.error = err.code;
        reply.error_message = std::move(err.message);
        return reply;
      }
      return Status::InvalidArgument(
          std::string("unexpected ") + FrameTypeName(frame->type) +
          " frame from server");
    }
    // Size the read to what the decoder knows is still missing, so a
    // batched (multi-KiB) response arrives in one or two reads instead of
    // fixed 4 KiB slices.
    const size_t hint = std::clamp(decoder_.PendingFrameBytes(),
                                   kMinReadBytes, kMaxReadBytes);
    if (rbuf_.size() < hint) rbuf_.resize(hint);
    const ssize_t n = IoRecv(fd_, rbuf_.data(), hint, 0);
    if (n > 0) {
      QPP_RETURN_NOT_OK(decoder_.Feed(rbuf_.data(), static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed connection" +
                             std::string(decoder_.buffered_bytes() > 0
                                             ? " mid-frame"
                                             : ""));
    }
    if (errno == EINTR) continue;
    return Status::IOError(Errno("recv"));
  }
}

Result<ClientReply> PredictionClient::Predict(const QueryRecord& record,
                                              uint32_t deadline_us) {
  QPP_ASSIGN_OR_RETURN(uint64_t id, Send(record, deadline_us));
  // Single-threaded sync use: the next reply is necessarily ours, but
  // verify the id to catch protocol bugs early.
  QPP_ASSIGN_OR_RETURN(ClientReply reply, Receive());
  if (reply.request_id != id) {
    return Status::Internal("reply id " + std::to_string(reply.request_id) +
                            " does not match request id " +
                            std::to_string(id));
  }
  return reply;
}

Result<LoadGenReport> RunLoadGenerator(const std::string& host, uint16_t port,
                                       const QueryLog& workload,
                                       const LoadGenOptions& options) {
  if (workload.queries.empty()) {
    return Status::InvalidArgument("load generator needs a non-empty workload");
  }
  if (options.connections < 1 || options.requests_per_connection < 1 ||
      options.window < 1 || options.batch < 1) {
    return Status::InvalidArgument(
        "connections, requests_per_connection, window and batch must be >= 1");
  }
  struct WorkerResult {
    Status status = Status::OK();
    uint64_t ok = 0;
    uint64_t overloaded = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t other_errors = 0;
    std::vector<double> latencies_us;
  };
  std::vector<WorkerResult> results(static_cast<size_t>(options.connections));
  const auto t0 = Clock::now();
  {
    // Plain threads, not the ThreadPool: workers block on socket IO for the
    // whole run, which would hold shared pool workers away from the
    // training and retrain tasks of the same process (tests, benches).
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(options.connections));
    for (int w = 0; w < options.connections; ++w) {
      workers.emplace_back([&, w] {
        WorkerResult& res = results[static_cast<size_t>(w)];
        PredictionClient client;
        res.status = client.Connect(host, port);
        if (!res.status.ok()) return;
        res.latencies_us.reserve(
            static_cast<size_t>(options.requests_per_connection));
        std::vector<Clock::time_point> sent_at;
        sent_at.reserve(static_cast<size_t>(options.requests_per_connection));
        int sent = 0, received = 0;
        // Offset each connection into the workload so concurrent workers
        // exercise different plan shapes.
        size_t next = static_cast<size_t>(w) % workload.queries.size();
        auto receive_one = [&] {
          auto reply = client.Receive();
          if (!reply.ok()) {
            res.status = reply.status();
            return false;
          }
          // request_id is 1-based and this worker owns the connection, so
          // it indexes sent_at directly.
          const size_t idx = static_cast<size_t>(reply->request_id - 1);
          if (idx < sent_at.size()) {
            res.latencies_us.push_back(
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - sent_at[idx])
                        .count()) /
                1e3);
          }
          ++received;
          switch (reply->error) {
            case ErrorCode::kNone: ++res.ok; break;
            case ErrorCode::kOverloaded: ++res.overloaded; break;
            case ErrorCode::kDeadlineExceeded: ++res.deadline_exceeded; break;
            default: ++res.other_errors;
          }
          return true;
        };
        std::vector<const QueryRecord*> chunk;
        while (received < options.requests_per_connection) {
          while (sent < options.requests_per_connection &&
                 sent - received < options.window) {
            const int room =
                std::min(options.requests_per_connection - sent,
                         options.window - (sent - received));
            const int take = std::min(options.batch, room);
            if (take <= 1) {
              const QueryRecord& record = workload.queries[next];
              next = (next + 1) % workload.queries.size();
              sent_at.push_back(Clock::now());
              auto id = client.Send(record, options.deadline_us);
              if (!id.ok()) {
                res.status = id.status();
                return;
              }
              ++sent;
              continue;
            }
            chunk.clear();
            for (int k = 0; k < take; ++k) {
              chunk.push_back(&workload.queries[next]);
              next = (next + 1) % workload.queries.size();
              sent_at.push_back(Clock::now());
            }
            auto ids = client.SendBatch(chunk, options.deadline_us);
            if (!ids.ok()) {
              res.status = ids.status();
              return;
            }
            sent += take;
          }
          if (!receive_one()) return;
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  const double wall_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - t0)
                              .count()) /
      1e3;

  LoadGenReport report;
  std::vector<double> all_latencies;
  for (const auto& res : results) {
    QPP_RETURN_NOT_OK(res.status);
    report.ok += res.ok;
    report.overloaded += res.overloaded;
    report.deadline_exceeded += res.deadline_exceeded;
    report.other_errors += res.other_errors;
    all_latencies.insert(all_latencies.end(), res.latencies_us.begin(),
                         res.latencies_us.end());
  }
  report.sent = static_cast<uint64_t>(options.connections) *
                static_cast<uint64_t>(options.requests_per_connection);
  report.wall_ms = wall_ms;
  report.qps = wall_ms > 0.0
                   ? static_cast<double>(report.sent) / (wall_ms / 1e3)
                   : 0.0;
  // Exact sample quantiles (interpolated), unlike the server's bucketed
  // histogram — the two sides are expected to differ slightly.
  report.p50_us = Percentile(all_latencies, 50);
  report.p95_us = Percentile(all_latencies, 95);
  report.p99_us = Percentile(all_latencies, 99);
  return report;
}

}  // namespace qpp::net

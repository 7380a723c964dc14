// Tests for the network serving subsystem (src/net/): wire-protocol
// encode/decode (including adversarial and byte-at-a-time inputs), the
// epoll reactor's batching/backpressure/deadline behavior over real TCP
// sockets, and graceful drain with zero dropped in-flight responses.
//
// Every server test binds an ephemeral loopback port. The suite runs in the
// TSan tier-1 pass, so it exercises the reactor against client threads,
// Stats() readers and Shutdown callers under a race detector.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workload/synthetic.h"

namespace qpp {
namespace {

using net::ClientReply;
using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::LoadGenOptions;
using net::PredictionClient;
using net::PredictionServer;
using net::ServerConfig;
using serve::ModelRegistry;
using serve::PredictionService;

PredictorConfig QuickConfig() {
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kOperatorLevel;
  cfg.hybrid.max_iterations = 3;
  cfg.hybrid.min_occurrences = 6;
  return cfg;
}

// ----------------------------- frame codec ----------------------------------

QueryRecord ProbeRecord() { return SyntheticServingLog(1).queries.front(); }

TEST(FrameTest, RequestRoundTripPreservesRecord) {
  const QueryRecord record = ProbeRecord();
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 7;
  frame.payload = net::EncodeRequestPayload(1234, record);
  const std::string wire = net::EncodeFrame(frame);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + frame.payload.size());

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()).ok());
  auto decoded = decoder.Next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kRequest);
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_FALSE(decoder.Next().has_value());

  auto req = net::DecodeRequestPayload(decoded->payload);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->deadline_us, 1234u);
  EXPECT_EQ(req->record.template_id, record.template_id);
  EXPECT_EQ(req->record.latency_ms, record.latency_ms);
  ASSERT_EQ(req->record.ops.size(), record.ops.size());
  for (size_t i = 0; i < record.ops.size(); ++i) {
    EXPECT_EQ(req->record.ops[i].structural_key,
              record.ops[i].structural_key);
    EXPECT_EQ(req->record.ops[i].est.total_cost,
              record.ops[i].est.total_cost);
  }
}

TEST(FrameTest, ResponseAndErrorPayloadsRoundTrip) {
  const std::string resp_payload =
      net::EncodeResponsePayload(41.5e-3, 9);
  auto resp = net::DecodeResponsePayload(resp_payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->predicted_ms, 41.5e-3);  // bit-exact through the wire
  EXPECT_EQ(resp->model_version, 9u);
  EXPECT_FALSE(net::DecodeResponsePayload("short").ok());

  const std::string err_payload =
      net::EncodeErrorPayload(ErrorCode::kNoModel, "no model yet");
  auto err = net::DecodeErrorPayload(err_payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrorCode::kNoModel);
  EXPECT_EQ(err->message, "no model yet");
  EXPECT_FALSE(net::DecodeErrorPayload("").ok());
}

TEST(FrameTest, ByteAtATimeFeedDecodesPipelinedFrames) {
  const QueryRecord record = ProbeRecord();
  std::string wire;
  for (uint64_t id = 1; id <= 3; ++id) {
    Frame f;
    f.type = FrameType::kRequest;
    f.request_id = id;
    f.payload = net::EncodeRequestPayload(0, record);
    wire += net::EncodeFrame(f);
  }
  FrameDecoder decoder;
  std::vector<uint64_t> ids;
  for (char byte : wire) {
    ASSERT_TRUE(decoder.Feed(&byte, 1).ok());
    while (auto f = decoder.Next()) ids.push_back(f->request_id);
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, FrontCompactionIsAmortizedLinear) {
  // Regression: the old decoder erased the consumed prefix on every Feed,
  // an O(buffered x frames) memmove under byte-at-a-time pipelining. The
  // offset-windowed decoder must (a) produce identical output and (b) move
  // at most as many bytes as were fed, total, no matter how reads fragment.
  constexpr uint64_t kFrames = 10000;
  std::string wire;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    Frame f;
    f.type = FrameType::kRequest;
    f.request_id = id;
    f.payload = "p";  // tiny frame: worst case for per-feed compaction
    wire += net::EncodeFrame(f);
  }
  FrameDecoder decoder;
  std::vector<uint64_t> ids;
  ids.reserve(kFrames);
  for (char byte : wire) {
    ASSERT_TRUE(decoder.Feed(&byte, 1).ok());
    while (auto f = decoder.Next()) ids.push_back(f->request_id);
  }
  ASSERT_EQ(ids.size(), kFrames);
  for (uint64_t id = 1; id <= kFrames; ++id) EXPECT_EQ(ids[id - 1], id);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  // The quadratic decoder would have moved ~ frames*buffered/2 bytes
  // (hundreds of MB here); amortized compaction is capped by total input.
  EXPECT_LE(decoder.compaction_bytes_moved(), wire.size());

  // Un-drained variant: nothing is ever released, so nothing may move.
  FrameDecoder hoarder;
  for (char byte : wire) {
    ASSERT_TRUE(hoarder.Feed(&byte, 1).ok());
  }
  EXPECT_EQ(hoarder.compaction_bytes_moved(), 0u);
  uint64_t popped = 0;
  while (auto f = hoarder.Next()) {
    ++popped;
    EXPECT_EQ(f->request_id, popped);
  }
  EXPECT_EQ(popped, kFrames);
}

TEST(FrameTest, ErrorMessageTruncationIsMarked) {
  // At exactly the cap: carried verbatim, no truncation mark.
  const std::string exact(net::kMaxErrorMessageBytes, 'e');
  const std::string exact_payload =
      net::EncodeErrorPayload(ErrorCode::kInternal, exact);
  ASSERT_EQ(exact_payload.size(), net::kMaxPayloadBytes);
  auto exact_err = net::DecodeErrorPayload(exact_payload);
  ASSERT_TRUE(exact_err.ok());
  EXPECT_EQ(exact_err->message, exact);
  // The frame stays encodable at the boundary.
  Frame f;
  f.type = FrameType::kError;
  f.payload = exact_payload;
  EXPECT_FALSE(net::EncodeFrame(f).empty());

  // One byte over: clamped within the cap, with a visible ellipsis so the
  // cut diagnostic can't be mistaken for a complete one.
  const std::string over(net::kMaxErrorMessageBytes + 1, 'e');
  const std::string over_payload =
      net::EncodeErrorPayload(ErrorCode::kInternal, over);
  ASSERT_EQ(over_payload.size(), net::kMaxPayloadBytes);
  auto over_err = net::DecodeErrorPayload(over_payload);
  ASSERT_TRUE(over_err.ok());
  EXPECT_EQ(over_err->message.size(), net::kMaxErrorMessageBytes);
  const std::string mark(net::kErrorTruncationMark);
  ASSERT_GE(over_err->message.size(), mark.size());
  EXPECT_EQ(over_err->message.substr(over_err->message.size() - mark.size()),
            mark);
  EXPECT_EQ(over_err->message.substr(0, 16), std::string(16, 'e'));
}

TEST(FrameTest, TruncatedHeaderIsJustIncomplete) {
  const std::string wire = net::EncodeFrame(Frame{});
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), net::kFrameHeaderBytes - 1).ok());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FrameTest, HalfAFrameReportsTheBytesStillMissing) {
  Frame f;
  f.type = FrameType::kRequest;
  f.request_id = 3;
  f.payload = net::EncodeRequestPayloadBinary(0, ProbeRecord());
  const std::string wire = net::EncodeFrame(f);
  FrameDecoder decoder;
  // Half a header: the rest of the header is missing.
  ASSERT_TRUE(decoder.Feed(wire.data(), 8).ok());
  EXPECT_EQ(decoder.PendingFrameBytes(), net::kFrameHeaderBytes - 8);
  // Half the frame: the decoder reports exactly what is still missing.
  const size_t half = wire.size() / 2;
  ASSERT_GT(half, net::kFrameHeaderBytes);
  ASSERT_TRUE(decoder.Feed(wire.data() + 8, half - 8).ok());
  EXPECT_FALSE(decoder.NextView().has_value());
  EXPECT_EQ(decoder.PendingFrameBytes(), wire.size() - half);
  ASSERT_TRUE(decoder.Feed(wire.data() + half, wire.size() - half).ok());
  EXPECT_EQ(decoder.PendingFrameBytes(), 0u);
  auto view = decoder.NextView();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->request_id, 3u);
  EXPECT_EQ(view->payload, f.payload);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, AdversarialHeadersPoisonTheDecoder) {
  const std::string good = net::EncodeFrame(Frame{});
  struct Case {
    const char* name;
    size_t offset;
    char value;
  };
  // One corrupted header byte each: magic, version, type, reserved. The
  // retired batch container's version 2 and type 4 are refused like any
  // other unknown value.
  const Case cases[] = {
      {"bad magic", 0, 'X'},
      {"unsupported version", 4, 9},
      {"retired version 2", 4, 2},
      {"unknown type", 5, 42},
      {"retired type 4", 5, 4},
      {"reserved bits set", 6, 1},
  };
  for (const Case& c : cases) {
    std::string wire = good;
    wire[c.offset] = c.value;
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size()).ok()) << c.name;
    EXPECT_TRUE(decoder.poisoned()) << c.name;
    EXPECT_FALSE(decoder.Next().has_value()) << c.name;
    // Poisoned for good: even pristine bytes are refused afterwards.
    EXPECT_FALSE(decoder.Feed(good.data(), good.size()).ok()) << c.name;
  }
}

TEST(FrameTest, OversizedAndNegativeLengthPrefixesAreRejectedEagerly) {
  for (uint32_t evil_len :
       {net::kMaxPayloadBytes + 1, 0x80000000u, 0xffffffffu}) {
    std::string wire = net::EncodeFrame(Frame{});
    for (int i = 0; i < 4; ++i) {
      wire[16 + static_cast<size_t>(i)] =
          static_cast<char>((evil_len >> (8 * i)) & 0xff);
    }
    // Header only: the decoder must reject before any payload arrives
    // (it would otherwise buffer gigabytes on a 4-byte lie).
    FrameDecoder decoder;
    Status st =
        decoder.Feed(wire.data(), net::kFrameHeaderBytes);
    EXPECT_FALSE(st.ok()) << evil_len;
    EXPECT_NE(st.message().find("payload length"), std::string::npos);
  }
}

TEST(FrameTest, GarbagePayloadFailsDecodeNotFraming) {
  Frame f;
  f.type = FrameType::kRequest;
  f.request_id = 5;
  f.payload = "\x01\x02\x03\x04 not a query record at all";
  const std::string wire = net::EncodeFrame(f);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(net::DecodeRequestPayload(frame->payload).ok());
}

// ----------------------------- server fixture -------------------------------

/// Blocking raw TCP connection for adversarial tests that must write bytes
/// no well-behaved client would.
class RawConn {
 public:
  ~RawConn() { Close(); }

  /// `rcvbuf` > 0 sets SO_RCVBUF before connecting, so the window the
  /// server sees is small from the start.
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0 && ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                                   sizeof(rcvbuf)) != 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool WriteAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until EOF; returns everything received.
  std::string ReadToEof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<size_t>(n));
    }
  }

  int fd() const { return fd_; }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerConfig config, bool publish_model = true) {
    if (publish_model) {
      auto predictor =
          std::make_shared<QueryPerformancePredictor>(QuickConfig());
      ASSERT_TRUE(predictor->Train(SyntheticServingLog(60)).ok());
      registry_.Publish(std::move(predictor), "net-test");
    }
    service_ = std::make_unique<PredictionService>(&registry_);
    server_ = std::make_unique<PredictionServer>(service_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  /// Parses a decoded error frame; fails the test on a malformed payload.
  static ErrorCode ErrorCodeOf(const Frame& frame) {
    EXPECT_EQ(frame.type, FrameType::kError);
    auto err = net::DecodeErrorPayload(frame.payload);
    EXPECT_TRUE(err.ok());
    return err.ok() ? err->code : ErrorCode::kNone;
  }

  ModelRegistry registry_;
  std::unique_ptr<PredictionService> service_;
  std::unique_ptr<PredictionServer> server_;
  QueryLog workload_ = SyntheticServingLog(24, 1.0, 7);
};

// --------------------------- end-to-end behavior ----------------------------

TEST_F(NetServerTest, SyncRoundTripMatchesLocalPrediction) {
  StartServer(ServerConfig{});
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const QueryRecord& q : workload_.queries) {
    auto reply = client.Predict(q);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
    auto local = service_->Predict(q);
    ASSERT_TRUE(local.ok());
    // The record round-trips at full precision, so the remote prediction is
    // bit-identical to a local one against the same model version.
    EXPECT_EQ(reply->predicted_ms, local->predicted_ms);
    EXPECT_EQ(reply->model_version, 1u);
  }
  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, workload_.queries.size());
  EXPECT_EQ(stats.responses_sent, workload_.queries.size());
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.dropped_disconnect, 0u);
}

/// `q` under a new Sort root: a plan that no synthetic training query has,
/// over a subtree that the training log does contain.
QueryRecord UnderNewSortRoot(QueryRecord q) {
  OperatorRecord root = q.ops.front();
  root.node_id = 100;
  root.parent_id = -1;
  root.left_child = q.ops.front().node_id;
  root.right_child = -1;
  root.op = PlanOp::kSort;
  root.relation.clear();
  root.est.startup_cost = root.est.total_cost;
  root.est.total_cost *= 1.2;
  root.actual.run_time_ms *= 1.1;
  q.ops.front().parent_id = root.node_id;
  q.ops.insert(q.ops.begin(), root);
  q.latency_ms = root.actual.run_time_ms;
  RecomputeStructuralKeys(&q);
  return q;
}

TEST_F(NetServerTest, OnlineBundleServesUnseenPlansBitIdentically) {
  // A kOnline predictor builds a sub-plan model the first time it sees a
  // structure; served over the wire, that build runs on the reactor.
  PredictorConfig cfg = QuickConfig();
  cfg.method = PredictionMethod::kOnline;
  QueryPerformancePredictor trained(cfg);
  ASSERT_TRUE(trained.Train(SyntheticServingLog(60)).ok());
  const std::string path = ::testing::TempDir() + "/net_online.qppb";
  ASSERT_TRUE(serve::SaveModelBundle(trained, path).ok());
  auto served = serve::LoadModelBundle(path);
  auto local = serve::LoadModelBundle(path);
  std::remove(path.c_str());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  registry_.Publish(
      std::make_shared<const QueryPerformancePredictor>(std::move(*served)),
      "online bundle");
  StartServer(ServerConfig{}, /*publish_model=*/false);

  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Both copies see the probes in the same order, so they build the same
  // models at the same requests.
  double longest_us = 0.0;
  for (const QueryRecord& base : workload_.queries) {
    const QueryRecord q = UnderNewSortRoot(base);
    const auto t0 = std::chrono::steady_clock::now();
    auto reply = client.Predict(q);
    longest_us = std::max(
        longest_us, std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
    auto want = local->PredictLatencyMs(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(reply->predicted_ms, *want);
  }
  // The longest reply is the worst stall a first-sight build puts on the
  // reactor (DESIGN.md, "Network serving").
  std::printf("[ stall    ] longest kOnline reply %.0f us over %zu probes\n",
              longest_us, workload_.queries.size());
}

TEST_F(NetServerTest, TwoServersKeepIndependentLatencyPercentiles) {
  StartServer(ServerConfig{});
  // A second server in the same process, over the same service, that
  // serves nothing.
  PredictionServer idle(service_.get(), ServerConfig{});
  ASSERT_TRUE(idle.Start().ok());
  obs::Histogram* shared = obs::MetricsRegistry::Global()->GetHistogram(
      "net.request.latency_us", {});
  ASSERT_NE(shared, nullptr);
  const uint64_t shared_before = shared->Count();

  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const QueryRecord& q : workload_.queries) {
    auto reply = client.Predict(q);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
  }
  const net::ServerStats busy = server_->Stats();
  EXPECT_EQ(busy.responses_sent, workload_.queries.size());
  EXPECT_GT(busy.p50_latency_us, 0.0);

  // The idle server answered nothing: its percentiles stay zero although
  // the busy one's requests flowed through the process-wide histogram.
  const net::ServerStats quiet = idle.Stats();
  EXPECT_EQ(quiet.requests_received, 0u);
  EXPECT_DOUBLE_EQ(quiet.p50_latency_us, 0.0);
  EXPECT_DOUBLE_EQ(quiet.p95_latency_us, 0.0);
  EXPECT_DOUBLE_EQ(quiet.p99_latency_us, 0.0);

  // The shared histogram still aggregates across servers.
  EXPECT_EQ(shared->Count() - shared_before, workload_.queries.size());
  idle.Shutdown();
}

TEST_F(NetServerTest, PipelinedRequestsAllAnsweredAcrossBatches) {
  ServerConfig config;
  config.max_batch = 4;
  config.max_delay_us = 1000;
  StartServer(config);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  std::vector<uint64_t> sent_ids;
  for (const QueryRecord& q : workload_.queries) {
    auto id = client.Send(q);
    ASSERT_TRUE(id.ok());
    sent_ids.push_back(*id);
  }
  std::vector<uint64_t> got_ids;
  for (size_t i = 0; i < sent_ids.size(); ++i) {
    auto reply = client.Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->error, ErrorCode::kNone);
    got_ids.push_back(reply->request_id);
  }
  std::sort(got_ids.begin(), got_ids.end());
  EXPECT_EQ(got_ids, sent_ids);
  EXPECT_GE(server_->Stats().batches_dispatched, 2u);
}

TEST_F(NetServerTest, NoPublishedModelYieldsTypedNoModelError) {
  StartServer(ServerConfig{}, /*publish_model=*/false);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Predict(workload_.queries.front());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ErrorCode::kNoModel);
  EXPECT_NE(reply->error_message.find("no model"), std::string::npos);

  // Pipelined requests share a batch; each gets the batch's typed error.
  constexpr uint64_t kPipelined = 6;
  for (uint64_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.Send(workload_.queries[i]).ok());
  }
  for (uint64_t i = 0; i < kPipelined; ++i) {
    auto r = client.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->error, ErrorCode::kNoModel) << r->error_message;
  }
  // The service counts each request and its error once.
  const serve::ServiceStats served = service_->Snapshot();
  EXPECT_EQ(served.requests, kPipelined + 1);
  EXPECT_EQ(served.errors, kPipelined + 1);
}

TEST_F(NetServerTest, SlowReaderStopsBeingReadUntilOutboxDrains) {
  ServerConfig config;
  config.max_outbox_bytes = 4096;
  StartServer(config);

  // A client that writes without reading. Its small receive buffer backs
  // the replies up into the server's outbox. RawConn closes the socket on
  // every exit, so a failed assertion cannot leave the server's drain
  // waiting on an outbox nobody reads.
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port(), /*rcvbuf=*/4096));
  const int fd = conn.fd();
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);

  std::vector<std::string> payloads;
  for (const QueryRecord& q : workload_.queries) {
    payloads.push_back(net::EncodeRequestPayload(0, q));
  }
  auto make_frame = [&payloads](uint64_t id) {
    const std::string& payload = payloads[id % payloads.size()];
    return net::EncodeFrameHeader(net::kProtocolVersion, FrameType::kRequest,
                                  id, static_cast<uint32_t>(payload.size())) +
           payload;
  };

  // Write whole frames until none can be written for 300 ms. A server that
  // never stops reading never stalls the client; the cap turns that into a
  // failure instead of a hang.
  constexpr uint64_t kMaxFrames = 500000;
  uint64_t sent = 0;  // whole frames written; ids are 1..sent
  std::string frame;
  size_t off = 0;
  while (sent < kMaxFrames) {
    if (off == frame.size()) {
      frame = make_frame(sent + 1);
      off = 0;
    }
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      if (off == frame.size()) ++sent;
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << strerror(errno);
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 300) == 0) break;
  }
  ASSERT_LT(sent, kMaxFrames) << "the server never stopped reading";
  EXPECT_LT(server_->Stats().requests_received, sent);

  // Read every reply, finishing the partly written frame on the way: the
  // server takes the rest of it only once its outbox has drained.
  const uint64_t expected = off > 0 ? sent + 1 : sent;
  std::vector<int> replies(expected + 1, 0);
  uint64_t received = 0;
  FrameDecoder decoder;
  char buf[64 * 1024];
  while (received < expected) {
    const bool writing = off > 0 && off < frame.size();
    pollfd ready{fd, static_cast<short>(POLLIN | (writing ? POLLOUT : 0)), 0};
    ASSERT_EQ(::poll(&ready, 1, 10000), 1) << "no progress for 10 s";
    if (writing && (ready.revents & POLLOUT) != 0) {
      const ssize_t n =
          ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n > 0) off += static_cast<size_t>(n);
    }
    if ((ready.revents & POLLIN) == 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    ASSERT_GT(n, 0) << "server closed the connection";
    ASSERT_TRUE(decoder.Feed(buf, static_cast<size_t>(n)).ok());
    while (auto reply = decoder.Next()) {
      ASSERT_GE(reply->request_id, 1u);
      ASSERT_LE(reply->request_id, expected);
      ASSERT_EQ(reply->type, FrameType::kResponse);
      ASSERT_EQ(++replies[reply->request_id], 1)
          << "request " << reply->request_id << " answered twice";
      ++received;
    }
  }
  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.responses_sent, expected);
  EXPECT_EQ(stats.errors_sent, 0u);
  EXPECT_EQ(stats.dropped_disconnect, 0u);
}

TEST_F(NetServerTest, FullSocketIsAnsweredNotShed) {
  StartServer(ServerConfig{});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  const int fd = conn.fd();

  // A sender that keeps its socket full: every frame goes out in one
  // blocking write, so the server always finds more bytes to read. The
  // server predicts each batch as it fills, so every request is answered
  // with a prediction.
  constexpr uint64_t kFrames = 8192;
  std::vector<std::string> payloads;
  for (const QueryRecord& q : workload_.queries) {
    payloads.push_back(net::EncodeRequestPayload(0, q));
  }
  std::string stream;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    const std::string& payload = payloads[id % payloads.size()];
    stream += net::EncodeFrameHeader(net::kProtocolVersion,
                                     FrameType::kRequest, id,
                                     static_cast<uint32_t>(payload.size()));
    stream += payload;
  }

  // The reader drains replies meanwhile; it gives up (and unblocks the
  // sender) after 10 s without a byte.
  std::vector<int> responses(kFrames + 1, 0);
  uint64_t received = 0, errors = 0, bad_ids = 0;
  std::thread reader([&] {
    FrameDecoder decoder;
    std::vector<char> buf(64 * 1024);
    while (received < kFrames) {
      pollfd ready{fd, POLLIN, 0};
      if (::poll(&ready, 1, 10000) != 1) break;
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n <= 0 || !decoder.Feed(buf.data(), static_cast<size_t>(n)).ok()) {
        break;
      }
      while (auto reply = decoder.Next()) {
        ++received;
        if (reply->request_id < 1 || reply->request_id > kFrames) {
          ++bad_ids;
        } else if (reply->type != FrameType::kResponse) {
          ++errors;
        } else {
          ++responses[reply->request_id];
        }
      }
    }
    if (received < kFrames) ::shutdown(fd, SHUT_RDWR);
  });
  const bool wrote = conn.WriteAll(stream);
  reader.join();
  ASSERT_TRUE(wrote);
  ASSERT_EQ(received, kFrames);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(bad_ids, 0u);
  for (uint64_t id = 1; id <= kFrames; ++id) {
    ASSERT_EQ(responses[id], 1) << "request " << id;
  }
  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.shed_overload, 0u);
  EXPECT_EQ(stats.requests_received, kFrames);
  EXPECT_EQ(stats.responses_sent, kFrames);
  EXPECT_EQ(stats.errors_sent, 0u);
}

TEST_F(NetServerTest, ExpiredDeadlinesGetTypedErrorsNotPredictions) {
  ServerConfig config;
  // Hold the batch well past the request deadlines.
  config.max_batch = 64;
  config.max_delay_us = 50000;
  StartServer(config);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send(workload_.queries.front(), /*deadline_us=*/500)
                    .ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client.Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->error, ErrorCode::kDeadlineExceeded)
        << reply->error_message;
  }
  EXPECT_EQ(server_->Stats().shed_deadline,
            static_cast<uint64_t>(kRequests));
}

TEST_F(NetServerTest, GracefulDrainDeliversEveryInFlightResponse) {
  ServerConfig config;
  // Big batch + long delay: all in-flight requests are still queued in the
  // micro-batch when Shutdown lands, so drain itself must flush them.
  config.max_batch = 64;
  config.max_delay_us = 500000;
  StartServer(config);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  constexpr uint64_t kInFlight = 16;
  for (uint64_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client.Send(workload_.queries[static_cast<size_t>(i) %
                                              workload_.queries.size()])
                    .ok());
  }
  // Wait until the server has admitted all of them, then pull the plug.
  while (server_->Stats().requests_received < kInFlight) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown();
  EXPECT_FALSE(server_->running());

  // Zero dropped responses: every admitted request yields a real
  // prediction, delivered before the server closed the connection.
  for (uint64_t i = 0; i < kInFlight; ++i) {
    auto reply = client.Receive();
    ASSERT_TRUE(reply.ok()) << "response " << i
                            << " dropped: " << reply.status().ToString();
    EXPECT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
  }
  // ...and then EOF, cleanly.
  auto eof = client.Receive();
  ASSERT_FALSE(eof.ok());

  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, kInFlight);
  EXPECT_EQ(stats.responses_sent, kInFlight);
  EXPECT_EQ(stats.dropped_disconnect, 0u);
}

TEST_F(NetServerTest, RequestsDuringDrainGetShuttingDown) {
  ServerConfig config;
  config.max_batch = 64;
  config.max_delay_us = 200000;
  StartServer(config);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Send(workload_.queries.front()).ok());
  while (server_->Stats().requests_received < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Race a second request against the drain. Depending on arrival order it
  // is either served (admitted pre-drain) or refused with kShuttingDown —
  // both legal; what may not happen is a hang, a drop, or a crash.
  std::thread closer([&] { server_->Shutdown(); });
  auto id2 = client.Send(workload_.queries.front());
  int replies = 0;
  while (true) {
    auto reply = client.Receive();
    if (!reply.ok()) break;  // EOF after drain
    ++replies;
    EXPECT_TRUE(reply->error == ErrorCode::kNone ||
                reply->error == ErrorCode::kShuttingDown)
        << reply->error_message;
  }
  closer.join();
  EXPECT_GE(replies, 1);
  // The pre-drain request was definitely answered.
  EXPECT_GE(server_->Stats().responses_sent, 1u);
  (void)id2;
}

// ------------------------- adversarial over TCP -----------------------------

TEST_F(NetServerTest, GarbageBytesGetTypedErrorThenClose) {
  StartServer(ServerConfig{});
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  ASSERT_TRUE(raw.WriteAll("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"));
  const std::string bytes = raw.ReadToEof();  // server closes after reply

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(ErrorCodeOf(*frame), ErrorCode::kBadRequest);
  EXPECT_GE(server_->Stats().frame_errors, 1u);
}

TEST_F(NetServerTest, AdversarialHeadersOverTcpNeverCrashOrLeakSlots) {
  ServerConfig config;
  config.max_connections = 4;
  StartServer(config);
  const std::string good = net::EncodeFrame(Frame{});

  struct Case {
    const char* name;
    size_t offset;
    char value;
  };
  const Case cases[] = {
      {"bad magic", 0, '!'},
      {"unknown version", 4, 9},
      {"unknown type", 5, 99},
      {"reserved bits", 6, 1},
      {"oversized length", 19, 0x7f},  // top byte of payload_len
  };
  // Run MORE adversarial connections than max_connections: if a violation
  // leaked its slot, the later iterations could not connect at all.
  for (int round = 0; round < 3; ++round) {
    for (const Case& c : cases) {
      std::string wire = good;
      wire[c.offset] = c.value;
      RawConn raw;
      ASSERT_TRUE(raw.Connect(server_->port())) << c.name;
      ASSERT_TRUE(raw.WriteAll(wire)) << c.name;
      const std::string bytes = raw.ReadToEof();
      FrameDecoder decoder;
      ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok()) << c.name;
      auto frame = decoder.Next();
      ASSERT_TRUE(frame.has_value()) << c.name;
      EXPECT_EQ(ErrorCodeOf(*frame), ErrorCode::kBadRequest) << c.name;
    }
  }
  // The server is still fully functional afterwards.
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Predict(workload_.queries.front());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->error, ErrorCode::kNone);
}

TEST_F(NetServerTest, TruncatedHeaderThenEofClosesCleanly) {
  StartServer(ServerConfig{});
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    const std::string good = net::EncodeFrame(Frame{});
    ASSERT_TRUE(raw.WriteAll(good.substr(0, 10)));
    raw.ShutdownWrite();
    // No reply owed (no complete frame arrived); the server just closes.
    EXPECT_EQ(raw.ReadToEof(), "");
  }
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Predict(workload_.queries.front());
  ASSERT_TRUE(reply.ok());
}

TEST_F(NetServerTest, ByteAtATimeRequestOverTcpIsServed) {
  StartServer(ServerConfig{});
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 77;
  frame.payload = net::EncodeRequestPayload(0, workload_.queries.front());
  const std::string wire = net::EncodeFrame(frame);

  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  for (char byte : wire) {
    ASSERT_TRUE(raw.WriteAll(std::string(1, byte)));
  }
  raw.ShutdownWrite();
  const std::string bytes = raw.ReadToEof();
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  auto reply = decoder.Next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kResponse);
  EXPECT_EQ(reply->request_id, 77u);
  auto resp = net::DecodeResponsePayload(reply->payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp->predicted_ms, 0.0);
}

TEST_F(NetServerTest, UnparseablePayloadKeepsConnectionUsable) {
  StartServer(ServerConfig{});
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));

  Frame bad;
  bad.type = FrameType::kRequest;
  bad.request_id = 1;
  bad.payload = net::EncodeRequestPayload(0, workload_.queries.front());
  // Corrupt the record text, not the framing.
  bad.payload[10] = '~';
  Frame good;
  good.type = FrameType::kRequest;
  good.request_id = 2;
  good.payload = net::EncodeRequestPayload(0, workload_.queries.front());
  ASSERT_TRUE(raw.WriteAll(net::EncodeFrame(bad) + net::EncodeFrame(good)));
  raw.ShutdownWrite();

  const std::string bytes = raw.ReadToEof();
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  auto first = decoder.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request_id, 1u);
  EXPECT_EQ(ErrorCodeOf(*first), ErrorCode::kBadRequest);
  // The framing stayed in sync: the next request on the same connection is
  // served normally.
  auto second = decoder.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->type, FrameType::kResponse);
  EXPECT_EQ(server_->Stats().parse_errors, 1u);
}

TEST_F(NetServerTest, ConnectionCapRejectsAndRecoversSlots) {
  ServerConfig config;
  config.max_connections = 2;
  StartServer(config);

  auto occupied = std::make_unique<RawConn>();
  RawConn second;
  ASSERT_TRUE(occupied->Connect(server_->port()));
  ASSERT_TRUE(second.Connect(server_->port()));
  // Nudge the reactor so both registrations happen before the probe.
  while (server_->Stats().connections_accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Third connection: TCP-accepted (so connect succeeds) then immediately
  // closed by the server — the client observes EOF without any frame.
  RawConn rejected;
  ASSERT_TRUE(rejected.Connect(server_->port()));
  EXPECT_EQ(rejected.ReadToEof(), "");
  EXPECT_GE(server_->Stats().connections_rejected, 1u);

  // Free one slot; the server notices (EOF) and a new connection succeeds.
  occupied.reset();
  PredictionClient client;
  Status connected = Status::Internal("never tried");
  for (int attempt = 0; attempt < 200; ++attempt) {
    connected = client.Connect("127.0.0.1", server_->port());
    if (connected.ok()) {
      auto reply = client.Predict(workload_.queries.front());
      if (reply.ok() && reply->error == ErrorCode::kNone) break;
      client.Close();
      connected = Status::Internal("rejected");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(connected.ok()) << "slot was never recovered";
}

// ----------------------- load generator + metrics ---------------------------

TEST_F(NetServerTest, LoadGeneratorDrivesConcurrentConnections) {
  ServerConfig config;
  config.max_batch = 8;
  config.max_delay_us = 500;
  StartServer(config);

  LoadGenOptions options;
  options.connections = 4;
  options.requests_per_connection = 50;
  options.window = 8;
  auto report =
      net::RunLoadGenerator("127.0.0.1", server_->port(), workload_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sent, 200u);
  EXPECT_EQ(report->ok, 200u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_GT(report->qps, 0.0);
  EXPECT_GT(report->p50_us, 0.0);
  EXPECT_LE(report->p50_us, report->p99_us);

  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, 200u);
  EXPECT_EQ(stats.responses_sent, 200u);
  EXPECT_GT(stats.p50_latency_us, 0.0);

  // The obs instrumentation saw the traffic end to end.
  obs::Histogram* hist = obs::MetricsRegistry::Global()->GetHistogram(
      "net.request.latency_us", {});
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->Count(), 200u);
}

// ------------------------- batched sends over TCP ----------------------------

TEST_F(NetServerTest, BatchedClientRoundTripMatchesLocalPrediction) {
  StartServer(ServerConfig{});
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  std::vector<const QueryRecord*> records;
  for (const QueryRecord& q : workload_.queries) records.push_back(&q);
  auto ids = client.SendBatch(records);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), workload_.queries.size());

  std::map<uint64_t, double> predicted;
  for (size_t i = 0; i < ids->size(); ++i) {
    auto reply = client.Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
    predicted[reply->request_id] = reply->predicted_ms;
  }
  for (size_t i = 0; i < records.size(); ++i) {
    auto local = service_->Predict(*records[i]);
    ASSERT_TRUE(local.ok());
    // The binary record encoding ships IEEE-754 bit patterns, so the remote
    // prediction is bit-identical to a local one, same as the text path.
    ASSERT_TRUE(predicted.count((*ids)[i]));
    EXPECT_EQ(predicted[(*ids)[i]], local->predicted_ms);
  }
  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, workload_.queries.size());
  EXPECT_EQ(stats.responses_sent, workload_.queries.size());
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST_F(NetServerTest, V1AndV2RequestsInterleaveOnOneConnection) {
  ServerConfig config;
  config.max_batch = 4;
  config.max_delay_us = 500;
  StartServer(config);
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // A text frame, then a binary batch, then another text frame — one
  // connection.
  auto id1 = client.Send(workload_.queries[0]);
  ASSERT_TRUE(id1.ok());
  std::vector<const QueryRecord*> mid = {&workload_.queries[1],
                                         &workload_.queries[2]};
  auto ids = client.SendBatch(mid);
  ASSERT_TRUE(ids.ok());
  auto id4 = client.Send(workload_.queries[3]);
  ASSERT_TRUE(id4.ok());

  std::set<uint64_t> want = {*id1, (*ids)[0], (*ids)[1], *id4};
  std::set<uint64_t> got;
  for (size_t i = 0; i < want.size(); ++i) {
    auto reply = client.Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
    got.insert(reply->request_id);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(server_->Stats().parse_errors, 0u);
}

// ------------------------- batched load + drain ------------------------------

/// Installs client IO hooks for one scope (they are process-wide).
struct ScopedIoHooks {
  explicit ScopedIoHooks(net::ClientIoHooks hooks) {
    net::SetClientIoHooksForTest(hooks);
  }
  ~ScopedIoHooks() { net::SetClientIoHooksForTest({}); }
};

/// Client writes by kind: `send` carries one frame, `sendmsg` a batch.
std::atomic<int> g_single_sends{0};
std::atomic<int> g_batch_sends{0};

ssize_t CountingSend(int fd, const void* buf, size_t len, int flags) {
  g_single_sends.fetch_add(1, std::memory_order_relaxed);
  return ::send(fd, buf, len, flags);
}

ssize_t CountingSendmsg(int fd, const msghdr* msg, int flags) {
  g_batch_sends.fetch_add(1, std::memory_order_relaxed);
  return ::sendmsg(fd, msg, flags);
}

TEST_F(NetServerTest, ServesBatchedLoadAcrossConnections) {
  ServerConfig config;
  config.max_batch = 8;
  config.max_delay_us = 500;
  StartServer(config);

  LoadGenOptions options;
  options.connections = 4;
  options.requests_per_connection = 50;
  options.window = 16;
  options.batch = 8;  // SendBatch path
  g_single_sends = 0;
  g_batch_sends = 0;
  ScopedIoHooks hooks({CountingSend, CountingSendmsg, nullptr});
  auto report =
      net::RunLoadGenerator("127.0.0.1", server_->port(), workload_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sent, 200u);
  EXPECT_EQ(report->ok, 200u);
  EXPECT_EQ(report->errors, 0u);
  // Every send is a whole batch, not only the ones that fill the first
  // window: 50 requests per connection in batches of at most 8 take at
  // least 7 writes each, and no request goes out alone through Send.
  EXPECT_EQ(g_single_sends.load(), 0);
  EXPECT_GE(g_batch_sends.load(), 4 * 7);

  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, 200u);
  EXPECT_EQ(stats.responses_sent, 200u);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.dropped_disconnect, 0u);
}

TEST_F(NetServerTest, ContainerDrainDeliversEveryInFlightResponse) {
  ServerConfig config;
  // All in-flight batched requests still queued in the micro-batch when
  // Shutdown lands: the drain itself must flush them.
  config.max_batch = 64;
  config.max_delay_us = 500000;
  StartServer(config);

  constexpr uint64_t kPerClient = 8;
  PredictionClient clients[3];
  for (auto& c : clients) {
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    std::vector<const QueryRecord*> records;
    for (uint64_t i = 0; i < kPerClient; ++i) {
      records.push_back(&workload_.queries[static_cast<size_t>(i)]);
    }
    ASSERT_TRUE(c.SendBatch(records).ok());
  }
  const uint64_t total = kPerClient * 3;
  while (server_->Stats().requests_received < total) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown();
  EXPECT_FALSE(server_->running());

  // Zero-drop drain: every admitted request from every client is answered.
  for (auto& c : clients) {
    for (uint64_t i = 0; i < kPerClient; ++i) {
      auto reply = c.Receive();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
    }
    auto eof = c.Receive();
    EXPECT_FALSE(eof.ok());
  }
  const net::ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.requests_received, total);
  EXPECT_EQ(stats.responses_sent, total);
  EXPECT_EQ(stats.dropped_disconnect, 0u);
}

// ------------------------------ start-up paths -------------------------------

/// Open descriptors among the lowest 1024: the kernel hands out the lowest
/// free number, so a socket leaked by a failed Start lands in that range.
int OpenDescriptorCount() {
  int open = 0;
  for (int fd = 0; fd < 1024; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) ++open;
  }
  return open;
}

TEST_F(NetServerTest, FailedStartsLeakNoDescriptorsAndRestartIsRefused) {
  StartServer(ServerConfig{});

  // Shutdown of a server that never started returns at once.
  PredictionServer never(service_.get(), ServerConfig{});
  never.Shutdown();
  EXPECT_FALSE(never.running());

  const int open_before = OpenDescriptorCount();
  ServerConfig bad_host;
  bad_host.host = "not-an-ipv4-address";
  PredictionServer bad(service_.get(), bad_host);
  Status st = bad.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(bad.port(), 0);
  EXPECT_FALSE(bad.running());
  EXPECT_EQ(OpenDescriptorCount(), open_before);

  // The micro-batch is the only request queue, so its size is bounded.
  ServerConfig huge_batch;
  huge_batch.max_batch = net::kMaxBatch + 1;
  PredictionServer oversized(service_.get(), huge_batch);
  st = oversized.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(oversized.port(), 0);
  EXPECT_FALSE(oversized.running());
  EXPECT_EQ(OpenDescriptorCount(), open_before);

  // The running server holds this port, so binding it again fails.
  ServerConfig taken;
  taken.port = server_->port();
  PredictionServer clash(service_.get(), taken);
  st = clash.Start();
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_EQ(clash.port(), 0);
  EXPECT_FALSE(clash.running());
  EXPECT_EQ(OpenDescriptorCount(), open_before);

  // A second Start on the running server is refused and changes nothing.
  EXPECT_EQ(server_->Start().code(), StatusCode::kInternal);
  EXPECT_TRUE(server_->running());
  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Predict(workload_.queries.front());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
}

// --------------------------- client fault injection --------------------------

std::atomic<int> g_io_call{0};

ssize_t ShortSend(int fd, const void* buf, size_t len, int flags) {
  if (g_io_call.fetch_add(1, std::memory_order_relaxed) % 3 == 2) {
    errno = EINTR;
    return -1;
  }
  return ::send(fd, buf, std::min<size_t>(len, 3), flags);
}

ssize_t ShortSendmsg(int fd, const msghdr* msg, int flags) {
  if (g_io_call.fetch_add(1, std::memory_order_relaxed) % 3 == 2) {
    errno = EINTR;
    return -1;
  }
  // At most 3 bytes of the first non-empty iovec entry: forces the client
  // to re-slice its scatter list across hundreds of partial sends.
  for (size_t i = 0; i < msg->msg_iovlen; ++i) {
    if (msg->msg_iov[i].iov_len > 0) {
      return ::send(fd, msg->msg_iov[i].iov_base,
                    std::min<size_t>(msg->msg_iov[i].iov_len, 3), flags);
    }
  }
  return 0;
}

ssize_t ShortRecv(int fd, void* buf, size_t len, int flags) {
  return ::recv(fd, buf, std::min<size_t>(len, 2), flags);
}

TEST_F(NetServerTest, ClientSurvivesShortWritesAndEintr) {
  StartServer(ServerConfig{});
  ScopedIoHooks hooks({ShortSend, ShortSendmsg, ShortRecv});

  PredictionClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Sync path: WriteAll must survive 3-byte sends and periodic EINTR.
  auto reply = client.Predict(workload_.queries.front());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->error, ErrorCode::kNone) << reply->error_message;
  auto local = service_->Predict(workload_.queries.front());
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(reply->predicted_ms, local->predicted_ms);

  // Batched path: WriteVecAll must re-slice the iovec list across partial
  // sends without corrupting framing.
  std::vector<const QueryRecord*> records = {
      &workload_.queries[0], &workload_.queries[1], &workload_.queries[2]};
  auto ids = client.SendBatch(records);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  for (size_t i = 0; i < records.size(); ++i) {
    auto r = client.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->error, ErrorCode::kNone) << r->error_message;
  }
  EXPECT_EQ(server_->Stats().frame_errors, 0u);
}

}  // namespace
}  // namespace qpp

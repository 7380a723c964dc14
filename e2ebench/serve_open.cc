// serve_open: the *serve* pipeline under an open loop. A hybrid model
// trained on the fixed-label corpus is bundled, reloaded, published and
// served by a PredictionServer (default ServerConfig) on loopback. One
// generator thread sends v1 text request frames over two non-blocking
// connections on a seeded Poisson schedule, climbing a ladder of fixed
// rates from light load to past saturation, and times every request from
// when it was due.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/stats.h"
#include "fixture.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "serve/service.h"
#include "spans.h"

namespace e2e {
namespace {

/// The ladder: offered rate (requests/s) and share of the run. The light
/// rung comes first; the 3k rung is the reference for throughput and the
/// bounded latency (busy enough that batches fill without waiting on the
/// reactor's flush timer); both run for several one-second windows. Every
/// rung but the last stays far enough below one reactor's capacity that an
/// 80 ms stall of the machine cannot fill the admission caps; the last is
/// past saturation and exercises shedding.
struct Rung {
  double rate;
  double share;
};
constexpr Rung kLadder[] = {
    {1500, 0.35}, {2500, 0.15}, {3000, 0.35}, {60000, 0.15}};
constexpr size_t kLightRung = 0;
constexpr size_t kReferenceRung = 2;
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
/// Latency limit for max_rate_at_slo.
constexpr double kSloUs = 1000.0;
/// Unsent bytes a connection may hold before the generator refuses new
/// requests on it (counted as client-side drops), which bounds memory when
/// the server stops reading.
constexpr size_t kMaxUnsentBytes = 256 * 1024;
constexpr int kConnections = 2;

/// Everything one serving instance needs, torn down in reverse order.
struct ServeStack {
  qpp::serve::ModelRegistry registry;
  std::unique_ptr<qpp::serve::PredictionService> service;
  std::unique_ptr<qpp::net::PredictionServer> server;
  std::shared_ptr<const qpp::QueryPerformancePredictor> predictor;
  int fds[kConnections] = {-1, -1};

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    if (server != nullptr) server->Shutdown();
  }
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking one-request round trip on a fresh connection: the probe that
/// proves a started server answers.
bool FirstReply(int fd, const std::string& payload) {
  qpp::net::Frame frame;
  frame.type = qpp::net::FrameType::kRequest;
  frame.request_id = 1;
  frame.payload = payload;
  const std::string bytes = qpp::net::EncodeFrame(frame);
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(bytes.size())) {
    return false;
  }
  qpp::net::FrameDecoder decoder;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    if (!decoder.Feed(buf, static_cast<size_t>(n)).ok()) return false;
    if (auto f = decoder.Next()) {
      return f->type == qpp::net::FrameType::kResponse;
    }
  }
}

/// Trains, bundles, reloads, publishes and starts one serving instance,
/// then connects the generator's sockets. `cold_start_ms` is bundle load
/// to first answered request.
std::unique_ptr<ServeStack> StartStack(const qpp::QueryLog& log,
                                       const std::string& bundle,
                                       const std::string& probe_payload,
                                       double* cold_start_ms) {
  auto stack = std::make_unique<ServeStack>();
  auto trained = TrainPredictor(qpp::PredictionMethod::kHybrid, log,
                                "qpp.train.hybrid");
  CheckSetup(trained.status(), "train hybrid");
  {
    ScopedSpan span(Layer::kServe, "serve.bundle_save");
    CheckSetup(qpp::serve::SaveModelBundle(**trained, bundle), "save bundle");
  }
  const int64_t t0 = NowNs();
  auto loaded = [&] {
    ScopedSpan span(Layer::kServe, "serve.bundle_load");
    return qpp::serve::LoadModelBundle(bundle);
  }();
  CheckSetup(loaded.status(), "load bundle");
  {
    ScopedSpan span(Layer::kServe, "serve.publish");
    stack->predictor = std::make_shared<const qpp::QueryPerformancePredictor>(
        std::move(*loaded));
    stack->registry.Publish(stack->predictor, bundle);
    stack->service =
        std::make_unique<qpp::serve::PredictionService>(&stack->registry);
  }
  {
    ScopedSpan span(Layer::kNet, "net.server_start");
    stack->server = std::make_unique<qpp::net::PredictionServer>(
        stack->service.get(), qpp::net::ServerConfig{});
    CheckSetup(stack->server->Start(), "server start");
    for (int& fd : stack->fds) {
      fd = ConnectLoopback(stack->server->port());
      if (fd < 0) CheckSetup(qpp::Status::IOError("connect"), "connect");
    }
    if (!FirstReply(stack->fds[0], probe_payload)) {
      CheckSetup(qpp::Status::IOError("no reply"), "first request");
    }
  }
  *cold_start_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return stack;
}

/// One request of the schedule.
struct Request {
  int64_t due_ns = 0;
  uint32_t record = 0;
  uint8_t rung = 0;
  bool answered = false;
};

/// Latencies and CPU are also kept per window of about a second, and the
/// headline figures are medians over windows, so one stall of the shared
/// machine moves one window, not the run.
struct RungStats {
  double seconds = 0.0;
  int64_t start_ns = 0;
  int64_t window_ns = 0;
  uint64_t due = 0;
  /// Due requests the generator could not even queue (connection full).
  uint64_t dropped = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t other_errors = 0;
  uint64_t mismatches = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  uint64_t backlog_mid = 0;
  uint64_t backlog_end = 0;
  std::vector<std::vector<double>> window_latency_us;
  /// OK replies per server CPU second, per window.
  std::vector<double> window_ok_per_cpu_s;
  /// CPU seconds the process spent outside the generator thread: the
  /// server's reactor and prediction pool.
  double server_cpu_s = 0.0;
};

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU time of every thread but the calling (generator) one: the server's
/// reactor and prediction pool.
double ServerCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/// Median over windows of a per-window quantile.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Median(per_window);
}

/// A non-blocking connection with its pending output and reply decoder.
struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  qpp::net::FrameDecoder decoder;
};

/// Open-loop load generator: one thread, kConnections sockets, a seeded
/// Poisson schedule per rung. Requests are timed from when they were due,
/// so a stall anywhere shows as latency of everything queued behind it.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(const ServeStack& stack,
                    const std::vector<std::string>& payloads,
                    const std::vector<double>& expected, uint64_t seed,
                    double seconds)
      : payloads_(payloads), expected_(expected), rng_(seed), rungs_(kRungs) {
    for (int i = 0; i < kConnections; ++i) conns_[i].fd = stack.fds[i];
    // Size every buffer for the whole schedule up front (with headroom for
    // Poisson bursts), so no reallocation lands inside a timed rung.
    double total = 0.0;
    for (size_t i = 0; i < kRungs; ++i) {
      rungs_[i].seconds = seconds * kLadder[i].share;
      const auto windows =
          std::max<size_t>(1, static_cast<size_t>(rungs_[i].seconds + 0.5));
      rungs_[i].window_ns =
          static_cast<int64_t>(rungs_[i].seconds * 1e9) /
          static_cast<int64_t>(windows);
      rungs_[i].window_latency_us.resize(windows);
      const auto n =
          static_cast<size_t>(kLadder[i].rate * rungs_[i].seconds * 1.2 + 64);
      rungs_[i].latency_us.reserve(n);
      rungs_[i].lateness_us.reserve(n);
      total += static_cast<double>(n);
    }
    requests_.reserve(static_cast<size_t>(total));
    requests_.push_back({});  // request id 0 is the set-up probe
  }

  /// Runs the whole ladder, then drains outstanding replies.
  bool Run() {
    for (Conn& c : conns_) {
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    int64_t rung_start = NowNs();
    next_due_ = rung_start;
    for (size_t rung = 0; rung < kRungs; ++rung) {
      // Memory while serving below saturation; the overload rung's
      // buffering is reported on its own.
      if (rung + 1 == kRungs) peak_rss_mb_ = PeakRssMb();
      RungStats& r = rungs_[rung];
      r.start_ns = rung_start;
      const int64_t rung_end =
          rung_start + r.window_ns * static_cast<int64_t>(
                                         r.window_latency_us.size());
      const int64_t rung_mid = rung_start + (rung_end - rung_start) / 2;
      const double cpu0 = ServerCpuSeconds();
      double window_cpu0 = cpu0;
      uint64_t window_ok0 = 0;
      int64_t window_end = rung_start + r.window_ns;
      bool mid_sampled = false;
      for (int64_t now = NowNs(); now < rung_end; now = NowNs()) {
        if (!mid_sampled && now >= rung_mid) {
          r.backlog_mid = Backlog();
          mid_sampled = true;
        }
        if (now >= window_end) {
          const double cpu = ServerCpuSeconds();
          r.window_ok_per_cpu_s.push_back(
              static_cast<double>(r.ok - window_ok0) / (cpu - window_cpu0));
          window_cpu0 = cpu;
          window_ok0 = r.ok;
          window_end += r.window_ns;
        }
        if (next_due_ <= now) {
          ScopedSpan span(Layer::kNet, "net.encode", requests_.size());
          while (next_due_ <= now) {
            Enqueue(static_cast<uint8_t>(rung), now);
            next_due_ += static_cast<int64_t>(
                rng_.Exponential(kLadder[rung].rate) * 1e9);
          }
        }
        if (!Pump(std::min(next_due_, rung_end))) return false;
      }
      r.backlog_end = Backlog();
      const double cpu = ServerCpuSeconds();
      r.window_ok_per_cpu_s.push_back(static_cast<double>(r.ok - window_ok0) /
                                      (cpu - window_cpu0));
      r.server_cpu_s = cpu - cpu0;
      rung_start = rung_end;
      next_due_ = std::max(next_due_, rung_end);
    }
    // Drain: every request that went out must be answered.
    const int64_t drain_deadline = NowNs() + 5000000000LL;
    while (Backlog() > 0 && NowNs() < drain_deadline) {
      if (!Pump(NowNs() + 1000000)) return false;
    }
    return true;
  }

  const std::vector<RungStats>& rungs() const { return rungs_; }
  double peak_rss_before_overload_mb() const { return peak_rss_mb_; }
  uint64_t unanswered() const { return Backlog(); }

 private:
  uint64_t Backlog() const { return sent_ - answered_; }

  void Enqueue(uint8_t rung, int64_t now) {
    RungStats& r = rungs_[rung];
    ++r.due;
    r.lateness_us.push_back(static_cast<double>(now - next_due_) / 1e3);
    const auto record = static_cast<uint32_t>(
        rng_.UniformInt(0, static_cast<int64_t>(payloads_.size()) - 1));
    const uint64_t id = requests_.size();
    Conn& c = conns_[id % kConnections];
    if (c.out.size() - c.out_off > kMaxUnsentBytes) {
      ++r.dropped;
      return;
    }
    requests_.push_back({next_due_, record, rung, false});
    ++sent_;
    const std::string& payload = payloads_[record];
    c.out += qpp::net::EncodeFrameHeader(
        qpp::net::kProtocolVersion, qpp::net::FrameType::kRequest, id,
        static_cast<uint32_t>(payload.size()));
    c.out += payload;
  }

  /// Writes pending output, waits for input until `until_ns`, and handles
  /// every reply that arrived.
  bool Pump(int64_t until_ns) {
    {
      ScopedSpan span(Layer::kNet, "net.send");
      for (Conn& c : conns_) {
        if (!Flush(&c)) return false;
      }
    }
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int64_t wait_ns = std::max<int64_t>(0, until_ns - NowNs());
    int ready = 0;
    {
      ScopedSpan span(Layer::kIdle, "idle.poll");
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      ready = ::ppoll(fds, kConnections, &ts, nullptr);
    }
    if (ready < 0) return errno == EINTR;
    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLERR | POLLHUP)) != 0) return false;
      if ((fds[i].revents & POLLIN) != 0 && !Receive(&conns_[i])) {
        return false;
      }
    }
    return true;
  }

  static bool Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    } else if (c->out_off > (1u << 16)) {
      c->out.erase(0, c->out_off);
      c->out_off = 0;
    }
    return true;
  }

  bool Receive(Conn* c) {
    char buf[1 << 16];
    while (true) {
      ssize_t n = 0;
      {
        ScopedSpan span(Layer::kNet, "net.recv");
        n = ::recv(c->fd, buf, sizeof(buf), 0);
      }
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      const int64_t now = NowNs();
      ScopedSpan span(Layer::kNet, "net.decode_reply");
      if (!c->decoder.Feed(buf, static_cast<size_t>(n)).ok()) return false;
      while (auto frame = c->decoder.NextView()) {
        if (!HandleReply(*frame, now)) return false;
      }
    }
  }

  bool HandleReply(const qpp::net::FrameView& frame, int64_t now) {
    if (frame.request_id == 0 || frame.request_id >= requests_.size()) {
      return false;
    }
    Request& req = requests_[frame.request_id];
    if (req.answered) return false;
    req.answered = true;
    ++answered_;
    RungStats& r = rungs_[req.rung];
    if (frame.type == qpp::net::FrameType::kResponse) {
      auto reply = qpp::net::DecodeResponsePayload(frame.payload);
      if (!reply.ok() || reply->model_version != 1 ||
          !SameBits(reply->predicted_ms, expected_[req.record])) {
        ++r.mismatches;
        return true;
      }
      ++r.ok;
      const double latency_us = static_cast<double>(now - req.due_ns) / 1e3;
      r.latency_us.push_back(latency_us);
      const auto w = static_cast<size_t>((req.due_ns - r.start_ns) /
                                         r.window_ns);
      r.window_latency_us[std::min(w, r.window_latency_us.size() - 1)]
          .push_back(latency_us);
      return true;
    }
    auto err = qpp::net::DecodeErrorPayload(frame.payload);
    if (err.ok() && err->code == qpp::net::ErrorCode::kOverloaded) {
      ++r.shed;
    } else {
      ++r.other_errors;
    }
    return true;
  }

  const std::vector<std::string>& payloads_;
  const std::vector<double>& expected_;
  qpp::Rng rng_;
  Conn conns_[kConnections];
  /// Indexed by request id; entry 0 is unused.
  std::vector<Request> requests_;
  uint64_t sent_ = 0;
  uint64_t answered_ = 0;
  int64_t next_due_ = 0;
  std::vector<RungStats> rungs_;
  double peak_rss_mb_ = 0.0;
};

std::string RungLine(size_t i, const RungStats& r, bool growing) {
  const double tail = TailQuantileLevel(r.latency_us.size());
  char line[400];
  std::snprintf(
      line, sizeof(line),
      "rung %zu: offered %.0f/s (schedule %.0f/s) achieved %.0f/s | ok %llu "
      "shed %llu dropped %llu errors %llu | p50 %.0f us %s %.0f us (n=%zu) "
      "| lateness p99 %.0f us | backlog mid %llu end %llu%s | server cpu "
      "%.3f s",
      i, static_cast<double>(r.due) / r.seconds, kLadder[i].rate,
      static_cast<double>(r.ok) / r.seconds,
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.dropped),
      static_cast<unsigned long long>(r.other_errors + r.mismatches),
      Quantile(r.latency_us, 0.5), QuantileLabel(tail).c_str(),
      Quantile(r.latency_us, tail), r.latency_us.size(),
      Quantile(r.lateness_us, 0.99),
      static_cast<unsigned long long>(r.backlog_mid),
      static_cast<unsigned long long>(r.backlog_end),
      growing ? " GROWING" : "", r.server_cpu_s);
  return line;
}

}  // namespace

int RunServeOpen(const Options& opt, Report* rep) {
  auto log = LoadPinnedCorpus(opt.corpus_path);
  CheckSetup(log.status(), "fixed-label corpus");
  const std::string bundle = opt.out_dir + "/serve_open.bundle";

  // Wire payloads exactly as PredictionClient::Send encodes them, and the
  // answer each must get: the model's prediction on the record as the
  // server will parse it.
  std::vector<std::string> payloads;
  std::vector<qpp::QueryRecord> parsed;
  for (const auto& q : log->queries) {
    payloads.push_back(qpp::net::EncodeRequestPayload(0, q));
    auto p = qpp::ParseQueryRecord(qpp::SerializeQueryRecord(q), "<corpus>");
    CheckSetup(p.status(), "corpus record round trip");
    parsed.push_back(std::move(*p));
  }

  std::vector<double> setup_s;
  std::vector<double> cold_start_ms;
  std::unique_ptr<ServeStack> stack;
  {
    ScopedSpan root(Layer::kBench, "setup");
    for (int i = 0; i < (opt.tiny ? 1 : 5); ++i) {
      stack.reset();
      const int64_t t0 = NowNs();
      double cold = 0.0;
      stack = StartStack(*log, bundle, payloads[0], &cold);
      setup_s.push_back(SecondsSince(t0));
      cold_start_ms.push_back(cold);
    }
  }

  ScopedSpan root(Layer::kBench, "run");
  std::vector<double> expected;
  double err_sum = 0.0;
  for (size_t i = 0; i < parsed.size(); ++i) {
    auto p = [&] {
      ScopedSpan span(Layer::kQpp, "qpp.predict");
      return stack->predictor->PredictLatencyMs(parsed[i]);
    }();
    CheckSetup(p.status(), "in-process prediction");
    expected.push_back(*p);
    err_sum += qpp::RelativeError(log->queries[i].latency_ms, *p).value_or(0);
  }
  for (const std::string& payload : payloads) {
    ScopedSpan span(Layer::kNet, "net.decode");
    rep->Check(qpp::net::DecodeRequestPayload(payload).ok(),
               "request payload does not decode");
  }

  qpp::obs::MetricsRegistry::Global()->ResetAllValues();
  stack->service->ResetStats();
  const qpp::net::ServerStats before = stack->server->Stats();
  OpenLoopGenerator gen(*stack, payloads, expected, opt.seed,
                        opt.tiny ? 0.5 : opt.seconds);
  rep->Check(gen.Run(), "generator connection failed");
  rep->Check(gen.unanswered() == 0,
             std::to_string(gen.unanswered()) + " requests never answered");
  const qpp::net::ServerStats after = stack->server->Stats();
  const qpp::serve::ServiceStats service = stack->service->Snapshot();

  double max_rate_at_slo = 0.0;
  std::vector<double> lateness;
  const std::vector<RungStats>& rungs = gen.rungs();
  for (size_t i = 0; i < kRungs; ++i) {
    const RungStats& r = rungs[i];
    const bool overload = i + 1 == kRungs;
    rep->Check(r.mismatches == 0, "reply differs from in-process prediction");
    // Below saturation every due request must be answered OK; the overload
    // rung is meant to refuse work, and its refusals show in its goodput.
    const uint64_t refused = r.shed + r.dropped;
    rep->Count(overload ? r.due - refused : r.due,
               r.other_errors + r.mismatches + (overload ? 0 : refused));
    const double offered = static_cast<double>(r.due) / r.seconds;
    const double achieved = static_cast<double>(r.ok) / r.seconds;
    const bool growing = r.backlog_end > 2 * r.backlog_mid + 64;
    if (Quantile(r.latency_us, 0.99) <= kSloUs && achieved >= 0.98 * offered &&
        !growing && r.ok == r.due) {
      max_rate_at_slo = std::max(max_rate_at_slo, kLadder[i].rate);
    }
    if (!overload) {
      lateness.insert(lateness.end(), r.lateness_us.begin(),
                      r.lateness_us.end());
    }
    rep->Note(RungLine(i, r, growing));
  }
  const RungStats& light = rungs[kLightRung];
  rep->Note("peak RSS " + std::to_string(PeakRssMb()) +
            " MB after the overload rung, " +
            std::to_string(gen.peak_rss_before_overload_mb()) +
            " MB before it");
  const RungStats& top = rungs.back();

  rep->Metric("setup_s", Median(setup_s), "s");
  rep->Metric("serve.peak_rss_mb", gen.peak_rss_before_overload_mb(), "MB");
  rep->Metric("serve.cold_start_ms", Median(cold_start_ms), "ms");
  rep->Metric("serve.p50_us", WindowedQuantile(light.window_latency_us, 0.5),
              "us");
  rep->Metric("serve.p99_us", WindowedQuantile(light.window_latency_us, 0.99),
              "us");
  rep->Metric("serve.ref_p50_us",
              WindowedQuantile(rungs[kReferenceRung].window_latency_us, 0.5),
              "us");
  rep->Metric("serve.requests_per_cpu_s",
              Median(rungs[kReferenceRung].window_ok_per_cpu_s),
              "req/cpu_s");
  rep->Metric("serve.max_rate_at_slo", max_rate_at_slo, "req/s");
  rep->Metric("serve.overload_goodput",
              static_cast<double>(top.ok) / top.seconds, "req/s");
  rep->Metric("serve.lateness_p99_us", Quantile(lateness, 0.99), "us");
  rep->Metric("serve.served_mre",
              err_sum / static_cast<double>(expected.size()), "ratio");
  rep->Note("light rung p50/p99: median over " +
            std::to_string(light.window_latency_us.size()) +
            " one-second windows of " +
            std::to_string(light.latency_us.size()) +
            " samples; SLO p99 <= 1000 us; generator lateness p99 over " +
            std::to_string(lateness.size()) + " sends below saturation");

  const double received =
      static_cast<double>(after.requests_received - before.requests_received);
  const double batches = static_cast<double>(after.batches_dispatched -
                                             before.batches_dispatched);
  rep->LayerMetric("serve.predict_p50_us", service.p50_latency_us, "us");
  rep->LayerMetric("net.server_p99_us", after.p99_latency_us, "us");
  rep->LayerMetric("net.batch_mean", batches > 0 ? received / batches : 0.0,
                   "requests");
  rep->LayerMetric(
      "net.shed_overload",
      static_cast<double>(after.shed_overload - before.shed_overload),
      "count");
  return 0;
}

}  // namespace e2e

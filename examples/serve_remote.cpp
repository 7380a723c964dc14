// Remote prediction serving (the paper's Section 1 deployment story): a
// resource manager in another process asks "how long will this query run?"
// over TCP before admitting it.
//
// This example stands up the whole serving stack in one process:
//   1. trains a predictor on the synthetic serving workload and publishes
//      it to a ModelRegistry,
//   2. starts PredictionServer (epoll reactor + adaptive micro-batching)
//      on an ephemeral loopback port,
//   3. round-trips single sync predictions through PredictionClient,
//   4. drives the server with the pipelined multi-connection load
//      generator, and
//   5. shuts down gracefully (drain: every in-flight request answered).
//
// Run with no arguments; pass `--port N` to bind a fixed port instead of an
// ephemeral one (used by the CI smoke test).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "qpp/predictor.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workload/synthetic.h"

using namespace qpp;

int main(int argc, char** argv) {
  uint16_t port = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<uint16_t>(std::atoi(argv[i + 1]));
    }
  }

  // 1. Train and publish a model.
  std::printf("Training operator-level model on the serving workload...\n");
  const QueryLog log = SyntheticServingLog(120);
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kOperatorLevel;
  auto predictor = std::make_shared<QueryPerformancePredictor>(cfg);
  if (!predictor->Train(log).ok()) return 1;
  serve::ModelRegistry registry;
  registry.Publish(std::move(predictor), "serve-remote-example");
  serve::PredictionService service(&registry);

  // 2. Serve it over TCP.
  net::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.max_batch = 16;
  server_cfg.max_delay_us = 200;
  net::PredictionServer server(&service, server_cfg);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("PredictionServer listening on 127.0.0.1:%u\n", server.port());

  // 3. A few sync round trips, as an admission controller would issue them.
  net::PredictionClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
  std::printf("\nSync predictions over the wire:\n");
  std::printf("%-10s %-12s %-12s %s\n", "template", "actual_ms",
              "predicted", "model_version");
  for (size_t i = 0; i < 5; ++i) {
    const QueryRecord& q = log.queries[i];
    auto reply = client.Predict(q);
    if (!reply.ok()) {
      std::fprintf(stderr, "predict failed: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10d %-12.2f %-12.2f v%llu\n", q.template_id, q.latency_ms,
                reply->predicted_ms,
                static_cast<unsigned long long>(reply->model_version));
  }
  client.Close();

  // 4. Pipelined load across a small connection pool.
  net::LoadGenOptions load;
  load.connections = 4;
  load.requests_per_connection = 100;
  load.window = 16;
  auto report = net::RunLoadGenerator("127.0.0.1", server.port(), log, load);
  if (!report.ok()) {
    std::fprintf(stderr, "load generator failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nLoad generator: %llu requests on %d connections\n",
              static_cast<unsigned long long>(report->sent),
              load.connections);
  std::printf("  throughput  %.0f predictions/s\n", report->qps);
  std::printf("  latency     p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
              report->p50_us, report->p95_us, report->p99_us);
  std::printf("  outcomes    %llu ok, %llu errors\n",
              static_cast<unsigned long long>(report->ok),
              static_cast<unsigned long long>(report->errors));

  // 5. Graceful drain, then show the server-side accounting.
  server.Shutdown();
  const net::ServerStats stats = server.Stats();
  std::printf("\nServer stats after drain:\n");
  std::printf("  accepted %llu connections, served %llu requests "
              "(%llu batches)\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.batches_dispatched));
  std::printf("  shed %llu (deadline), dropped %llu\n",
              static_cast<unsigned long long>(stats.shed_deadline),
              static_cast<unsigned long long>(stats.dropped_disconnect));
  std::printf("  server-side latency p50 %.0f us, p99 %.0f us\n",
              stats.p50_latency_us, stats.p99_latency_us);
  std::printf("\nserve_remote: OK\n");
  return 0;
}

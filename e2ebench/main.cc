// qpp_e2ebench: runs one benchmark workload and prints, as its last line,
// one JSON object with every metric it measured. run.py builds this binary,
// maps the metrics onto BENCHMARK.json and checks them.
//
//   qpp_e2ebench --workload train_tpch|serve_open|learn_mixed --seed N
//                --seconds S [--trace 0|1] [--tiny] [--out-dir DIR]
//                [--corpus PATH]
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fixture.h"
#include "spans.h"

namespace e2e {
namespace {

enum class Stat { kP50, kTotal };

/// Per-layer metrics read off the benchmark's own spans.
struct SpanMetric {
  const char* span;
  const char* metric;
  Stat stat;
  bool micros;  // report in us instead of ms
};

constexpr SpanMetric kSpanMetrics[] = {
    {"tpch.dbgen", "tpch.dbgen_ms", Stat::kP50, false},
    {"catalog.analyze", "catalog.analyze_ms", Stat::kP50, false},
    {"optimizer.plan", "optimizer.plan_ms", Stat::kP50, false},
    {"optimizer.plan", "optimizer.plan_total_ms", Stat::kTotal, false},
    {"optimizer.plan_learned", "optimizer.plan_learned_ms", Stat::kP50,
     false},
    {"exec.execute", "exec.execute_ms", Stat::kP50, false},
    {"exec.execute", "exec.execute_total_ms", Stat::kTotal, false},
    {"workload.record", "workload.record_ms", Stat::kP50, false},
    {"qpp.features", "qpp.features_ms", Stat::kTotal, false},
    {"qpp.train.plan", "qpp.train_ms.plan", Stat::kP50, false},
    {"qpp.train.operator", "qpp.train_ms.operator", Stat::kP50, false},
    {"qpp.train.hybrid", "qpp.train_ms.hybrid", Stat::kP50, false},
    {"qpp.predict", "qpp.predict_us", Stat::kP50, true},
    {"ml.cv", "ml.cv_ms", Stat::kTotal, false},
    {"serve.bundle_save", "serve.bundle_save_ms", Stat::kP50, false},
    {"serve.bundle_load", "serve.bundle_load_ms", Stat::kP50, false},
    {"serve.observe", "serve.observe_us", Stat::kP50, true},
    {"net.decode", "net.decode_us", Stat::kP50, true},
    {"card.harvest", "card.harvest_us", Stat::kP50, true},
    {"kde.harvest", "kde.harvest_us", Stat::kP50, true},
};

void AddTraceMetrics(const Options& opt, Report* rep) {
  const Tracer& tracer = Tracer::Get();
  for (const SpanMetric& m : kSpanMetrics) {
    const std::vector<double> ms = tracer.Durations(m.span);
    if (ms.empty()) continue;
    double v = 0.0;
    if (m.stat == Stat::kP50) {
      v = Quantile(ms, 0.5);
    } else {
      for (double d : ms) v += d;
    }
    rep->LayerMetric(m.metric, m.micros ? v * 1e3 : v, m.micros ? "us" : "ms");
  }
  double root_ms = 0.0;
  const std::vector<LayerRow> rows = tracer.LayerTable(&root_ms);
  double self_sum = 0.0;
  for (int i = 0; i < kNumLayers; ++i) {
    const LayerRow& row = rows[static_cast<size_t>(i)];
    const std::string layer = LayerName(static_cast<Layer>(i));
    self_sum += row.self_ms;
    rep->LayerMetric(layer + ".self_ms", row.self_ms, "ms");
    rep->LayerMetric(layer + ".calls", static_cast<double>(row.count),
                     "count");
    rep->LayerMetric(layer + ".share",
                     root_ms > 0 ? row.self_ms / root_ms : 0.0, "ratio");
  }
  rep->LayerMetric("trace.wall_ms", root_ms, "ms");
  rep->LayerMetric("trace.self_sum_ms", self_sum, "ms");
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".tsv";
  rep->Check(tracer.WriteTsv(path), "cannot write spans to " + path);
  rep->Note("spans written to " + path);
}

int Usage() {
  std::fprintf(stderr,
               "usage: qpp_e2ebench --workload train_tpch|serve_open|"
               "learn_mixed --seed N --seconds S [--trace 0|1] [--tiny] "
               "[--out-dir DIR] [--corpus PATH]\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--corpus" && has_value) {
      opt.corpus_path = argv[++i];
    } else {
      return e2e::Usage();
    }
  }
  int (*run)(const e2e::Options&, e2e::Report*) = nullptr;
  if (opt.workload == "train_tpch") run = e2e::RunTrainTpch;
  if (opt.workload == "serve_open") run = e2e::RunServeOpen;
  if (opt.workload == "learn_mixed") run = e2e::RunLearnMixed;
  if (run == nullptr || opt.seconds <= 0) return e2e::Usage();
  ::mkdir(opt.out_dir.c_str(), 0755);

  if (opt.trace) e2e::Tracer::Get().Enable();
  e2e::Report rep;
  const int rc = run(opt, &rep);
  if (rc != 0) return rc;
  rep.Metric("peak_rss_mb", e2e::PeakRssMb(), "MB");
  rep.Metric("fail_ratio",
             rep.attempted() > 0 ? static_cast<double>(rep.failed()) /
                                       static_cast<double>(rep.attempted())
                                 : 0.0,
             "ratio");
  if (opt.trace) e2e::AddTraceMetrics(opt, &rep);
  std::printf("%s\n", rep.ToJson(opt.workload).c_str());
  return 0;
}

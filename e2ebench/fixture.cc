#include "fixture.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "spans.h"
#include "tpch/dbgen.h"

namespace e2e {
namespace {

/// FNV-1a 64 of e2ebench/corpus/tpch_sf0.01_q30_op14.log (420 queries of
/// the 14 operator-level templates at SF 0.01). The fit phases of every
/// workload train on these exact labels, so answers repeat run to run.
constexpr uint64_t kCorpusChecksum = 0xe2de7a685ad58cd9ull;

}  // namespace

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

void CheckSetup(const qpp::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "set-up failed (%s): %s\n", what,
               st.ToString().c_str());
  std::exit(2);
}

std::unique_ptr<qpp::Database> BuildTpchDatabase() {
  qpp::tpch::DbgenConfig cfg;
  cfg.scale_factor = kScaleFactor;
  auto db = std::make_unique<qpp::Database>();
  auto tables = [&cfg] {
    ScopedSpan span(Layer::kTpch, "tpch.dbgen");
    return qpp::tpch::Dbgen(cfg).Generate();
  }();
  CheckSetup(tables.status(), "dbgen");
  ScopedSpan span(Layer::kCatalog, "catalog.analyze");
  CheckSetup(db->AdoptTables(std::move(*tables)), "adopt tables");
  CheckSetup(db->AnalyzeAll(), "analyze");
  return db;
}

qpp::Result<qpp::QueryLog> LoadPinnedCorpus(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return qpp::Status::IOError("cannot open corpus " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string text = bytes.str();
  const uint64_t sum = qpp::Fnv1a64(text);
  if (sum != kCorpusChecksum) {
    return qpp::Status::InvalidArgument(
        "corpus " + path + " changed: checksum " + qpp::ChecksumHex(sum) +
        ", pinned " + qpp::ChecksumHex(kCorpusChecksum));
  }
  std::istringstream stream(text);
  ScopedSpan span(Layer::kWorkload, "workload.load_log");
  return qpp::QueryLog::LoadFromStream(stream, path);
}

qpp::Result<std::shared_ptr<qpp::QueryPerformancePredictor>> TrainPredictor(
    qpp::PredictionMethod method, const qpp::QueryLog& log,
    const char* span_name) {
  qpp::PredictorConfig cfg;
  cfg.method = method;
  auto predictor = std::make_shared<qpp::QueryPerformancePredictor>(cfg);
  ScopedSpan span(Layer::kQpp, span_name);
  QPP_RETURN_NOT_OK(predictor->Train(log));
  return predictor;
}

void CountEstimateSources(const qpp::PlanNode& node, uint64_t* learned,
                          uint64_t* total) {
  ++*total;
  if (std::strcmp(node.est_source, "hist") != 0) ++*learned;
  for (size_t i = 0; i < node.num_children(); ++i) {
    CountEstimateSources(*node.child(i), learned, total);
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace e2e

// Tests for the prediction serving subsystem (src/serve/): checksummed
// model persistence, RCU-style registry hot-swap under concurrent load,
// the prediction service's stats, and the feedback/retrain loop.
//
// Everything here runs on a fast synthetic workload (no TPC-H generation or
// query execution) because this test is also part of the TSan tier-1 pass.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "common/bundle.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "golden.h"
#include "obs/metrics.h"
#include "serve/feedback.h"
#include "serve/model_store.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workload/synthetic.h"

namespace qpp {
namespace {

using serve::FeedbackConfig;
using serve::FeedbackLoop;
using serve::ModelRegistry;
using serve::PredictionService;

/// Shared deterministic serving workload (src/workload/synthetic.h) — the
/// same generator the golden bundle fixtures were produced from, now also
/// used by net_test, micro_serve/micro_net and the serving examples.
QueryLog SyntheticLog(int n, double latency_scale = 1.0, uint64_t seed = 42) {
  return SyntheticServingLog(n, latency_scale, seed);
}

PredictorConfig QuickConfig(PredictionMethod method) {
  PredictorConfig cfg;
  cfg.method = method;
  cfg.hybrid.max_iterations = 3;
  cfg.hybrid.min_occurrences = 6;
  return cfg;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ------------------------- persistence round-trips --------------------------

class BundleMethodTest
    : public ::testing::TestWithParam<PredictionMethod> {};

TEST_P(BundleMethodTest, SaveLoadRoundTripIsBitwiseIdentical) {
  const QueryLog log = SyntheticLog(120);
  const PredictorConfig cfg = QuickConfig(GetParam());
  QueryPerformancePredictor predictor(cfg);
  ASSERT_TRUE(predictor.Train(log).ok());

  const std::string path = ::testing::TempDir() + "/bundle_" +
                           PredictionMethodName(GetParam()) + ".qppb";
  ASSERT_TRUE(serve::SaveModelBundle(predictor, path).ok());
  auto loaded = serve::LoadModelBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->trained());
  EXPECT_EQ(loaded->config().method, GetParam());

  // Predict in lockstep (kOnline builds its model cache in request order,
  // so interleaving keeps both caches on the same deterministic path), on
  // training queries and on unseen ones. Bitwise equality, not tolerance.
  const QueryLog unseen = SyntheticLog(30, 1.0, 777);
  for (const QueryLog* probe : {&log, &unseen}) {
    for (const QueryRecord& q : probe->queries) {
      auto a = predictor.PredictLatencyMs(q);
      auto b = loaded->PredictLatencyMs(q);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << PredictionMethodName(GetParam());
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Methods, BundleMethodTest,
                         ::testing::Values(PredictionMethod::kOptimizerCost,
                                           PredictionMethod::kPlanLevel,
                                           PredictionMethod::kOperatorLevel,
                                           PredictionMethod::kHybrid,
                                           PredictionMethod::kOnline));

// A kOnline bundle carries the min_occurrences that gates its sub-plan
// models, so it loads without a config: trained at 6, not the default 10,
// the loaded predictor still predicts bit for bit as the trained one.
TEST(ModelStoreTest, OnlineBundleCarriesItsMinOccurrences) {
  const QueryLog log = SyntheticLog(27);
  QueryPerformancePredictor predictor(QuickConfig(PredictionMethod::kOnline));
  ASSERT_TRUE(predictor.Train(log).ok());
  const std::string path = ::testing::TempDir() + "/bundle_online_min.qppb";
  ASSERT_TRUE(serve::SaveModelBundle(predictor, path).ok());
  auto loaded = serve::LoadModelBundle(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().hybrid.min_occurrences, 6);

  const QueryLog unseen = SyntheticLog(30, 1.0, 777);
  size_t probes = 0;
  size_t differ = 0;
  for (const QueryLog* probe : {&log, &unseen}) {
    for (const QueryRecord& q : probe->queries) {
      auto a = predictor.PredictLatencyMs(q);
      auto b = loaded->PredictLatencyMs(q);
      ASSERT_TRUE(a.ok() && b.ok());
      ++probes;
      if (*a != *b) ++differ;
    }
  }
  EXPECT_EQ(differ, 0u) << differ << " of " << probes << " predictions differ";
}

TEST(ModelStoreTest, HeaderIsReadableWithoutParsingModels) {
  QueryPerformancePredictor predictor(QuickConfig(PredictionMethod::kHybrid));
  ASSERT_TRUE(predictor.Train(SyntheticLog(60)).ok());
  const std::string path = ::testing::TempDir() + "/bundle_header.qppb";
  ASSERT_TRUE(serve::SaveModelBundle(predictor, path).ok());
  auto info = serve::ReadModelBundleInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->method, "hybrid");
  EXPECT_GT(info->payload_bytes, 0u);
  std::remove(path.c_str());
}

TEST(ModelStoreTest, CorruptionAndTruncationAreDetected) {
  QueryPerformancePredictor predictor(QuickConfig(PredictionMethod::kHybrid));
  ASSERT_TRUE(predictor.Train(SyntheticLog(60)).ok());
  const std::string path = ::testing::TempDir() + "/bundle_corrupt.qppb";
  ASSERT_TRUE(serve::SaveModelBundle(predictor, path).ok());

  // Flip one payload byte.
  const std::string content = Slurp(path);
  std::string corrupt = content;
  corrupt[corrupt.size() - 10] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary);
    out << corrupt;
  }
  auto st = serve::LoadModelBundle(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("checksum mismatch"),
            std::string::npos);
  EXPECT_NE(st.status().message().find(path), std::string::npos);

  // Truncate the payload.
  {
    std::ofstream out(path, std::ios::binary);
    out << content.substr(0, content.size() - 40);
  }
  st = serve::LoadModelBundle(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

// A committed golden bundle guards the persistence format: if Serialize or
// the bundle layout drifts incompatibly, this fails even though fresh
// save/load round-trips keep passing. Regenerate (after an intentional
// format change) with:
//   QPP_REGEN_GOLDEN=1 ./serve_test --gtest_filter='*Golden*'
TEST(ModelStoreTest, GoldenBundleStillLoadsAndPredicts) {
  const std::string bundle_path = TestDataDir() + "/golden_hybrid.qppb";
  const std::string expected_path = TestDataDir() + "/golden_hybrid.expected";
  const QueryLog probes = SyntheticLog(12, 1.0, 777);

  if (std::getenv("QPP_REGEN_GOLDEN") != nullptr) {
    QueryPerformancePredictor predictor(
        QuickConfig(PredictionMethod::kHybrid));
    ASSERT_TRUE(predictor.Train(SyntheticLog(120)).ok());
    ASSERT_TRUE(serve::SaveModelBundle(predictor, bundle_path).ok());
    std::ofstream exp(expected_path);
    exp.precision(17);
    for (const QueryRecord& q : probes.queries) {
      exp << *predictor.PredictLatencyMs(q) << "\n";
    }
    GTEST_SKIP() << "regenerated golden bundle at " << bundle_path;
  }

  auto loaded = serve::LoadModelBundle(bundle_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The writer is pinned too: re-saving reproduces the committed bytes.
  const std::string resaved = ::testing::TempDir() + "/golden_resaved.qppb";
  ASSERT_TRUE(serve::SaveModelBundle(*loaded, resaved).ok());
  EXPECT_EQ(Slurp(resaved), Slurp(bundle_path));
  std::remove(resaved.c_str());
  std::ifstream exp(expected_path);
  ASSERT_TRUE(exp.is_open()) << "missing " << expected_path;
  for (const QueryRecord& q : probes.queries) {
    double want = 0.0;
    ASSERT_TRUE(static_cast<bool>(exp >> want));
    auto got = loaded->PredictLatencyMs(q);
    ASSERT_TRUE(got.ok());
    EXPECT_NEAR(*got, want, std::abs(want) * 1e-9 + 1e-9);
  }
}

// A bundle whose checksum matches but whose payload holds a malformed number
// loads as an error: the checksum guards transport, not the parser.
TEST(ModelStoreTest, MalformedNumberWithValidChecksumIsAnError) {
  const BundleFormat format{"qpp-model-bundle v1", "model bundle"};
  auto payload = ReadBundlePayload(TestDataDir() + "/golden_hybrid.qppb",
                                   format, {"method"});
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const std::string field = "start_model linreg|";
  const size_t at = payload->find(field);
  ASSERT_NE(at, std::string::npos);
  payload->insert(at + field.size(), "x");  // "x9.99...e-07" is no number
  const std::string path = ::testing::TempDir() + "/bundle_bad_number.qppb";
  ASSERT_TRUE(WriteBundle(path, format, *payload, {{"method", "hybrid"}}).ok());
  auto loaded = serve::LoadModelBundle(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// ------------------------------ registry -----------------------------------

std::shared_ptr<const QueryPerformancePredictor> TrainShared(
    PredictionMethod method, const QueryLog& log) {
  auto p = std::make_shared<QueryPerformancePredictor>(QuickConfig(method));
  Status st = p->Train(log);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return p;
}

TEST(RegistryTest, SnapshotsAreImmutableAcrossPublishes) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);

  const QueryLog log = SyntheticLog(60);
  const uint64_t v1 =
      registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log),
                       "initial-train");
  EXPECT_EQ(v1, 1u);
  auto snap = registry.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->source, "initial-train");
  const double before = *snap->predictor->PredictLatencyMs(log.queries[0]);

  const uint64_t v2 = registry.Publish(
      TrainShared(PredictionMethod::kOperatorLevel, SyntheticLog(60, 3.0)),
      "retrain");
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.current_version(), 2u);
  // The old snapshot is untouched by the hot swap.
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(*snap->predictor->PredictLatencyMs(log.queries[0]), before);
  EXPECT_EQ(registry.Current()->version, 2u);
  // ...and freed once its last holder lets go.
  const std::weak_ptr<const serve::ModelVersion> first = snap;
  snap.reset();
  EXPECT_TRUE(first.expired());
}

TEST(ServiceTest, HotSwapUnderConcurrentPredictLoad) {
  const QueryLog log = SyntheticLog(90);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log),
                   "initial");
  PredictionService service(&registry);

  constexpr int kReaders = 4;
  constexpr int kPublishes = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> predictions{0};
  std::vector<std::thread> readers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_seen = 0;
      size_t i = static_cast<size_t>(t);
      while (!stop.load()) {
        const QueryRecord& q = log.queries[i++ % log.queries.size()];
        auto r = service.Predict(q);
        if (!r.ok() || r->model_version < last_seen) {
          failed.store(true);
          return;
        }
        // Versions a single reader observes never go backwards.
        last_seen = r->model_version;
        predictions.fetch_add(1);
      }
    });
  }
  // Hot-swap while the readers hammer the service.
  for (int p = 0; p < kPublishes; ++p) {
    const uint64_t before = predictions.load();
    while (predictions.load() < before + 50) std::this_thread::yield();
    registry.Publish(TrainShared(PredictionMethod::kOperatorLevel,
                                 SyntheticLog(90, 1.0 + p)),
                     "swap#" + std::to_string(p));
  }
  // Give readers time to observe the last version, then stop them.
  while (predictions.load() < kReaders * 200) std::this_thread::yield();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());

  // Every request issued after the final publish observes the final version.
  auto r = service.Predict(log.queries[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->model_version, 1u + kPublishes);

  const serve::ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.requests, predictions.load());
}

TEST(ServiceTest, PredictBatchServesOneConsistentSnapshot) {
  const QueryLog log = SyntheticLog(50);
  ModelRegistry registry;
  PredictionService service(&registry);

  // Before any publish: the whole batch fails up front, and so does a
  // single request; every refused request counts as an error.
  EXPECT_EQ(service.PredictBatch(log.queries).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Predict(log.queries[0]).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Snapshot().errors, 1 + log.queries.size());

  registry.Publish(TrainShared(PredictionMethod::kHybrid, log), "initial");
  auto batch = service.PredictBatch(log.queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), log.queries.size());
  for (size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ((*batch)[i].model_version, 1u);
    auto serial = service.Predict(log.queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].predicted_ms, serial->predicted_ms);
  }
}

TEST(ServiceTest, SnapshotReportsLatencyPercentilesFromRegistry) {
  const QueryLog log = SyntheticLog(60);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log),
                   "initial");
  PredictionService service(&registry);
  // The latency histogram is process-wide; start from a clean slate so this
  // test sees only its own observations.
  service.ResetStats();

  for (int round = 0; round < 3; ++round) {
    for (const QueryRecord& q : log.queries) {
      ASSERT_TRUE(service.Predict(q).ok());
    }
  }
  const serve::ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.requests, 3 * log.queries.size());
  EXPECT_GT(stats.p50_latency_us, 0.0);
  EXPECT_LE(stats.p50_latency_us, stats.p95_latency_us);
  EXPECT_LE(stats.p95_latency_us, stats.p99_latency_us);
  // The histogram backing the percentiles is the shared registry one.
  obs::Histogram* hist = obs::MetricsRegistry::Global()->GetHistogram(
      "serve.predict.latency_us", {});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Count(), stats.requests);
  EXPECT_DOUBLE_EQ(hist->Quantile(0.50), stats.p50_latency_us);

  service.ResetStats();
  const serve::ServiceStats cleared = service.Snapshot();
  EXPECT_EQ(cleared.requests, 0u);
  EXPECT_DOUBLE_EQ(cleared.p50_latency_us, 0.0);
}

// Regression for a stats-pollution bug: percentiles used to be read straight
// from the process-wide "serve.predict.latency_us" histogram, so any service
// instance's traffic leaked into every other instance's Snapshot().
TEST(ServiceTest, TwoServicesKeepIndependentLatencyPercentiles) {
  const QueryLog log = SyntheticLog(30);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log),
                   "initial");
  PredictionService loaded(&registry);
  PredictionService idle(&registry);
  loaded.ResetStats();  // clean shared-histogram slate for the count check

  for (const QueryRecord& q : log.queries) {
    ASSERT_TRUE(loaded.Predict(q).ok());
  }
  const serve::ServiceStats busy = loaded.Snapshot();
  EXPECT_EQ(busy.requests, log.queries.size());
  EXPECT_GT(busy.p50_latency_us, 0.0);

  // The idle service served nothing: its percentiles must stay zero even
  // though the other instance's traffic flowed through the shared
  // process-wide histogram.
  const serve::ServiceStats quiet = idle.Snapshot();
  EXPECT_EQ(quiet.requests, 0u);
  EXPECT_DOUBLE_EQ(quiet.p50_latency_us, 0.0);
  EXPECT_DOUBLE_EQ(quiet.p95_latency_us, 0.0);
  EXPECT_DOUBLE_EQ(quiet.p99_latency_us, 0.0);

  // The shared histogram still aggregates across instances.
  obs::Histogram* shared = obs::MetricsRegistry::Global()->GetHistogram(
      "serve.predict.latency_us", {});
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->Count(), busy.requests);
}

TEST(RegistryTest, PublishUpdatesSwapMetrics) {
  obs::Counter* swaps =
      obs::MetricsRegistry::Global()->GetCounter("serve.registry.swaps");
  obs::Gauge* version =
      obs::MetricsRegistry::Global()->GetGauge("serve.registry.version");
  const uint64_t swaps_before = swaps->Value();

  const QueryLog log = SyntheticLog(60);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log), "a");
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, log), "b");
  EXPECT_EQ(swaps->Value(), swaps_before + 2);
  // The gauge tracks the most recent publish's version (per registry; two
  // registries share it, last write wins — this test uses one).
  EXPECT_DOUBLE_EQ(version->Value(), 2.0);
}

// ------------------------------ feedback -----------------------------------

TEST(FeedbackTest, DriftTriggersRetrainAndPublishReducesError) {
  const QueryLog base = SyntheticLog(90);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, base),
                   "initial");

  const std::string log_path = ::testing::TempDir() + "/feedback_append.log";
  std::remove(log_path.c_str());
  FeedbackConfig cfg;
  cfg.window_size = 24;
  cfg.min_observations = 16;
  cfg.drift_threshold = 0.4;
  cfg.min_retrain_queries = 30;
  cfg.log_path = log_path;
  cfg.retrain_config = QuickConfig(PredictionMethod::kOperatorLevel);

  FeedbackLoop loop(&registry, cfg);

  // Simulate drift: the same plans now run 3x slower than the training
  // distribution. Relative error vs the published model is ~2/3 > 0.4.
  const QueryLog drifted = SyntheticLog(60, 3.0, 99);
  int observed = 0;
  for (const QueryRecord& q : drifted.queries) {
    ASSERT_TRUE(loop.Observe(q).ok());
    ++observed;
  }
  loop.WaitForRetrain();
  EXPECT_GE(loop.retrains_triggered(), 1u);
  EXPECT_GE(loop.retrains_published(), 1u);
  EXPECT_TRUE(loop.last_retrain_status().ok())
      << loop.last_retrain_status().ToString();
  EXPECT_GT(registry.current_version(), 1u);
  EXPECT_NE(registry.Current()->source.find("retrain"), std::string::npos);

  // The published retrain fits the drifted distribution: windowed error on
  // fresh drifted traffic lands well under the trigger threshold.
  for (const QueryRecord& q : SyntheticLog(24, 3.0, 123).queries) {
    ASSERT_TRUE(loop.Observe(q).ok());
    ++observed;
  }
  EXPECT_GT(loop.window_fill(), 0u);
  EXPECT_LT(loop.WindowedError(), cfg.drift_threshold);

  // The durable feedback channel has every observation, reloadable.
  auto reloaded = QueryLog::LoadFromFile(log_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->queries.size(), static_cast<size_t>(observed));
  std::remove(log_path.c_str());
}

// Regression: a failed append to the durable feedback log must surface as a
// non-OK Status from Observe, not vanish. The discard was compile-legal
// before Status became [[nodiscard]]; a silently lossy feedback channel
// corrupts the retrain corpus without failing any test.
TEST(FeedbackTest, ObserveSurfacesAppendFailure) {
  const QueryLog base = SyntheticLog(40);
  ModelRegistry registry;
  registry.Publish(TrainShared(PredictionMethod::kOperatorLevel, base),
                   "initial");

  FeedbackConfig cfg;
  cfg.log_path = ::testing::TempDir() + "/no_such_dir_qpp/feedback.log";
  FeedbackLoop loop(&registry, cfg);

  const Status st = loop.Observe(base.queries.front());
  EXPECT_FALSE(st.ok()) << "append into a missing directory must fail";

  // The in-memory pipeline still absorbed the record (corpus accumulation is
  // independent of the durable channel).
  EXPECT_EQ(loop.corpus_size(), 1u);
}

// Past max_retained_queries the oldest record leaves the retrain corpus for
// each new one.
TEST(FeedbackTest, CorpusStaysAtRetainedCap) {
  ModelRegistry registry;  // no model: nothing is scored, nothing retrains
  FeedbackConfig cfg;
  cfg.max_retained_queries = 16;
  FeedbackLoop loop(&registry, cfg);
  const QueryLog log = SyntheticLog(static_cast<int>(cfg.max_retained_queries) + 9);
  for (const QueryRecord& q : log.queries) {
    ASSERT_TRUE(loop.Observe(q).ok());
    EXPECT_LE(loop.corpus_size(), cfg.max_retained_queries);
  }
  EXPECT_EQ(loop.corpus_size(), cfg.max_retained_queries);
  EXPECT_EQ(loop.retrains_triggered(), 0u);
}

// ------------------------------ checksum -----------------------------------

TEST(ChecksumTest, Fnv1a64KnownVectorsAndHexRoundTrip) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  const uint64_t h = Fnv1a64("qpp model payload");
  auto parsed = ParseChecksumHex(ChecksumHex(h));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, h);
  EXPECT_FALSE(ParseChecksumHex("nothex").ok());
  EXPECT_FALSE(ParseChecksumHex("zz00000000000000").ok());
}

}  // namespace
}  // namespace qpp

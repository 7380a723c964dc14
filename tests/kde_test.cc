// Tests for the KDE selectivity backend (src/kde/): deterministic reservoir
// sampling, checksummed bundle persistence, feedback-tuned bandwidths, the
// correlated-predicate win over independence-assuming histograms, and the
// bit-identical-planning pin when the backend has nothing published.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "card/card_cache.h"
#include "catalog/database.h"
#include "exec/driver.h"
#include "golden.h"
#include "kde/estimator.h"
#include "kde/feedback.h"
#include "kde/model.h"
#include "kde/sample.h"
#include "optimizer/optimizer.h"
#include "tpch/dbgen.h"
#include "workload/query_log.h"
#include "workload/templates.h"

namespace qpp::kde {
namespace {

int TestThreads() {
  const char* env = std::getenv("QPP_THREADS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 4;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The correlated pair the independence assumption gets badly wrong:
/// y tracks x within ±10, so P(x ∈ B, y ∈ B) ≈ P(x ∈ B) for any wide band
/// B, while per-column histograms estimate P(x ∈ B) · P(y ∈ B).
constexpr int kSensorRows = 4000;

std::unique_ptr<Table> MakeSensorTable() {
  Schema schema;
  schema.AddColumn("x", TypeId::kInt64);
  schema.AddColumn("y", TypeId::kInt64);
  auto table = std::make_unique<Table>(99, "sensor", std::move(schema));
  for (int i = 0; i < kSensorRows; ++i) {
    const int64_t x = (static_cast<int64_t>(i) * 37) % 1000;
    const int64_t y = x + (static_cast<int64_t>(i) * 17) % 21 - 10;
    EXPECT_TRUE(table->AppendRow({Value::Int64(x), Value::Int64(y)}).ok());
  }
  return table;
}

/// Shared tiny TPC-H database plus the correlated "sensor" table.
class KdeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.003;
    db_ = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    ASSERT_TRUE(tables.ok());
    ASSERT_TRUE(db_->AdoptTables(std::move(*tables)).ok());
    ASSERT_TRUE(db_->AddTable(MakeSensorTable()).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }
  static void TearDownTestSuite() { db_.reset(); }

  /// Band predicate x ∈ [lo, lo+width] AND y ∈ [lo, lo+width] on sensor.
  static ExprPtr BandPredicate(int64_t lo, int64_t width) {
    std::vector<ExprPtr> conj;
    conj.push_back(Ge(Col("x"), LitInt(lo)));
    conj.push_back(Le(Col("x"), LitInt(lo + width)));
    conj.push_back(Ge(Col("y"), LitInt(lo)));
    conj.push_back(Le(Col("y"), LitInt(lo + width)));
    return And(std::move(conj));
  }

  /// Compiles a sensor band scan with `estimator` attached (may be null).
  static std::unique_ptr<PlanNode> CompileBandScan(
      int64_t lo, int64_t width, const CardinalityEstimator* estimator) {
    Optimizer opt(db_.get());
    opt.set_cardinality_estimator(estimator);
    auto scan = opt.MakeScan("sensor", "", BandPredicate(lo, width));
    EXPECT_TRUE(scan.ok());
    return std::move(*scan);
  }

  static std::unique_ptr<Database> db_;
};

std::unique_ptr<Database> KdeTest::db_;

// ---------------------------------------------------------------------------
// Reservoir sampling
// ---------------------------------------------------------------------------

TEST_F(KdeTest, ReservoirDeterministicUnderFixedSeed) {
  const Table* lineitem = db_->GetTable("lineitem");
  ASSERT_NE(lineitem, nullptr);
  KdeSampleConfig cfg;
  cfg.capacity = 64;
  const TableSample a = BuildTableSample(*lineitem, cfg);
  const TableSample b = BuildTableSample(*lineitem, cfg);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.seed, b.seed);

  cfg.seed ^= 0x1234;
  const TableSample c = BuildTableSample(*lineitem, cfg);
  EXPECT_NE(a.data, c.data) << "different seed must draw a different sample";
}

TEST_F(KdeTest, ReservoirRespectsCapacityBound) {
  const Table* lineitem = db_->GetTable("lineitem");
  KdeSampleConfig cfg;
  cfg.capacity = 32;
  const TableSample s = BuildTableSample(*lineitem, cfg);
  EXPECT_EQ(s.rows(), 32u);
  EXPECT_DOUBLE_EQ(s.table_rows, static_cast<double>(lineitem->num_rows()));

  // Tables smaller than the capacity are sampled whole.
  const Table* region = db_->GetTable("region");
  ASSERT_NE(region, nullptr);
  const TableSample whole = BuildTableSample(*region, cfg);
  EXPECT_EQ(whole.rows(), static_cast<size_t>(region->num_rows()));
}

// ---------------------------------------------------------------------------
// Bandwidth updates
// ---------------------------------------------------------------------------

TEST_F(KdeTest, DefaultBandwidthsPositiveAndScaleWithSpread) {
  const Table* sensor = db_->GetTable("sensor");
  KdeSampleConfig cfg;
  const TableSample s = BuildTableSample(*sensor, cfg);
  const std::vector<double> h = DefaultBandwidths(s);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_GT(h[0], 0.0);
  EXPECT_GT(h[1], 0.0);
}

TEST_F(KdeTest, UpdateBandwidthsMovesEstimateTowardActual) {
  const Table* sensor = db_->GetTable("sensor");
  KdeSampleConfig cfg;
  const TableSample s = BuildTableSample(*sensor, cfg);
  std::vector<double> h = DefaultBandwidths(s);
  // Inflate the bandwidths so the kernel badly over-smooths a narrow band,
  // then feed the true (small) actual: the update must shrink the estimate.
  for (double& v : h) v *= 50.0;

  PredicateBounds bounds;
  bounds.table = "sensor";
  bounds.table_rows = static_cast<double>(sensor->num_rows());
  bounds.exhaustive = true;
  ColumnBound cb;
  cb.column = "x";
  cb.lo = 100.0;
  cb.hi = 120.0;
  cb.has_lo = cb.has_hi = true;
  bounds.columns.push_back(cb);

  const double actual_rows = 80.0;  // ~2% of rows, far below the smoothed est
  auto before = KdeSelectivity(s, h, bounds);
  ASSERT_TRUE(before.has_value());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(UpdateBandwidths(s, bounds, actual_rows, &h));
  }
  auto after = KdeSelectivity(s, h, bounds);
  ASSERT_TRUE(after.has_value());
  const double target = actual_rows / bounds.table_rows;
  constexpr double kLogFloor = 1e-6;  // keeps a zero selectivity finite
  EXPECT_LT(std::abs(std::log(*after + kLogFloor) -
                     std::log(target + kLogFloor)),
            std::abs(std::log(*before + kLogFloor) -
                     std::log(target + kLogFloor)))
      << "feedback must move the estimate toward the observed selectivity";
}

TEST_F(KdeTest, EstimatorDeclinesUnknownColumnsAndTables) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  auto snap = loop.CurrentSnapshot();
  ASSERT_NE(snap, nullptr);

  PredicateBounds bounds;
  bounds.table = "no_such_table";
  bounds.table_rows = 10.0;
  bounds.exhaustive = true;
  ColumnBound cb;
  cb.column = "x";
  cb.has_lo = true;
  bounds.columns.push_back(cb);
  CardinalityQuery q;
  q.bounds = &bounds;
  EXPECT_FALSE(snap->EstimateRows(q).has_value());

  bounds.table = "sensor";
  bounds.columns[0].column = "no_such_column";
  EXPECT_FALSE(snap->EstimateRows(q).has_value());

  // Non-exhaustive bounds (a predicate the extractor could not fully
  // normalize) must decline rather than answer for part of the filter.
  bounds.columns[0].column = "x";
  bounds.exhaustive = false;
  EXPECT_FALSE(snap->EstimateRows(q).has_value());
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST_F(KdeTest, SaveLoadSaveIsByteIdentical) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  // Tune a little first so non-default bandwidths round-trip too.
  for (int i = 0; i < 4; ++i) {
    auto plan = CompileBandScan(100 + 50 * i, 80, nullptr);
    ASSERT_TRUE(ExecutePlan(plan.get(), db_.get()).ok());
    ASSERT_TRUE(loop.HarvestPlan(*plan).ok());
  }
  EXPECT_GT(loop.bandwidth_updates(), 0u);

  const std::string p1 = ::testing::TempDir() + "/kde_bundle_1.qppk";
  const std::string p2 = ::testing::TempDir() + "/kde_bundle_2.qppk";
  ASSERT_TRUE(loop.SaveToFile(p1).ok());

  KdeFeedbackLoop reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(p1).ok());
  EXPECT_EQ(reloaded.table_count(), loop.table_count());
  ASSERT_TRUE(reloaded.SaveToFile(p2).ok());
  EXPECT_EQ(SlurpFile(p1), SlurpFile(p2));

  // The reloaded loop answers queries without rebuilding from the database.
  auto snap = reloaded.CurrentSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->table_count(), 0u);
}

// The committed bundle (one 12-row table sampled at capacity 8, one tuned
// bandwidth step) was written by an earlier build, so a change to the
// framing or payload format that still round-trips against itself fails here.
TEST_F(KdeTest, GoldenBundleLoadSaveIsByteIdentical) {
  const std::string golden = TestDataDir() + "/golden_kde.qppk";
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.LoadFromFile(golden).ok());
  EXPECT_EQ(loop.table_count(), 1u);
  const std::string resaved = ::testing::TempDir() + "/kde_bundle_golden.qppk";
  ASSERT_TRUE(loop.SaveToFile(resaved).ok());
  EXPECT_EQ(SlurpFile(resaved), SlurpFile(golden));
}

TEST_F(KdeTest, CorruptBundleRejected) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  const std::string good = ::testing::TempDir() + "/kde_bundle_good.qppk";
  ASSERT_TRUE(loop.SaveToFile(good).ok());

  std::string text = SlurpFile(good);
  // Flip one payload byte (past the three header lines): the checksum must
  // catch it before any parsing.
  size_t pos = text.find('\n');
  pos = text.find('\n', pos + 1);
  pos = text.find('\n', pos + 1);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_LT(pos + 10, text.size());
  text[pos + 10] ^= 0x01;
  const std::string bad = ::testing::TempDir() + "/kde_bundle_bad.qppk";
  {
    std::ofstream out(bad, std::ios::binary);
    out << text;
  }
  KdeFeedbackLoop fresh;
  const Status st = fresh.LoadFromFile(bad);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st.message();

  // Truncation is rejected too.
  const std::string cut = ::testing::TempDir() + "/kde_bundle_cut.qppk";
  {
    std::ofstream out(cut, std::ios::binary);
    out << SlurpFile(good).substr(0, text.size() / 2);
  }
  EXPECT_FALSE(fresh.LoadFromFile(cut).ok());
}

// ---------------------------------------------------------------------------
// Correlated workload: joint KDE beats per-column independence
// ---------------------------------------------------------------------------

TEST_F(KdeTest, KdeBeatsHistogramOnCorrelatedPredicates) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  KdeCardinalityEstimator kde(&loop);

  // Warm the bandwidths on one set of bands...
  for (int i = 0; i < 16; ++i) {
    auto plan = CompileBandScan(40 * i % 900, 100, &kde);
    ASSERT_TRUE(ExecutePlan(plan.get(), db_.get()).ok());
    ASSERT_TRUE(loop.HarvestPlan(*plan).ok());
  }
  (void)loop.PublishSnapshot();

  // ...then judge on another. The histogram multiplies the two per-column
  // band selectivities (independence) and lands ~w/1000 times too low.
  std::vector<double> hist_q, kde_q;
  for (int i = 0; i < 12; ++i) {
    const int64_t lo = (70 * i + 20) % 880;
    auto hist_plan = CompileBandScan(lo, 100, nullptr);
    auto kde_plan = CompileBandScan(lo, 100, &kde);
    ASSERT_TRUE(ExecutePlan(hist_plan.get(), db_.get()).ok());
    const double actual = hist_plan->actual.rows;
    hist_q.push_back(card::QError(hist_plan->est.rows, actual));
    kde_q.push_back(card::QError(kde_plan->est.rows, actual));
    EXPECT_STREQ(kde_plan->est_source, "kde");
    EXPECT_STREQ(hist_plan->est_source, "hist");
  }
  std::sort(hist_q.begin(), hist_q.end());
  std::sort(kde_q.begin(), kde_q.end());
  const double hist_med = hist_q[hist_q.size() / 2];
  const double kde_med = kde_q[kde_q.size() / 2];
  // The acceptance bar (2x at p95) is enforced by bench/micro_kde +
  // scripts/check_baselines.py; here we pin the qualitative win.
  EXPECT_LT(kde_med * 2.0, hist_med)
      << "kde median q-error " << kde_med << " vs histogram " << hist_med;
}

// ---------------------------------------------------------------------------
// Harvest paths: plans, records, Limit taint
// ---------------------------------------------------------------------------

TEST_F(KdeTest, RecordRoundTripCarriesBoundsAndHarvests) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  KdeCardinalityEstimator kde(&loop);

  auto scan = CompileBandScan(200, 100, &kde);
  ASSERT_NE(scan->card_bounds, nullptr);
  EXPECT_TRUE(scan->card_bounds->exhaustive);
  ASSERT_EQ(scan->card_bounds->columns.size(), 2u);
  ASSERT_TRUE(ExecutePlan(scan.get(), db_.get()).ok());

  QueryPlan plan;
  plan.root = std::move(scan);
  QueryRecord record = RecordFromPlan(plan, /*latency_ms=*/1.0);
  ASSERT_FALSE(record.ops.empty());
  EXPECT_EQ(record.ops[0].bounds.table, "sensor");

  // Text round-trip preserves the B line payload exactly.
  const std::string text = SerializeQueryRecord(record);
  auto parsed = ParseQueryRecord(text, "<test>");
  ASSERT_TRUE(parsed.ok());
  const PredicateBounds& rb = parsed->ops[0].bounds;
  ASSERT_EQ(rb.columns.size(), 2u);
  EXPECT_EQ(rb.table, "sensor");
  EXPECT_TRUE(rb.exhaustive);
  EXPECT_EQ(rb.columns[0].column, "x");
  EXPECT_DOUBLE_EQ(rb.columns[0].lo, 200.0);
  EXPECT_DOUBLE_EQ(rb.columns[0].hi, 300.0);
  EXPECT_TRUE(rb.columns[0].has_lo);
  EXPECT_TRUE(rb.columns[0].has_hi);
  EXPECT_FALSE(rb.columns[0].is_equality);

  const uint64_t before = loop.bandwidth_updates();
  ASSERT_TRUE(loop.HarvestRecord(*parsed).ok());
  EXPECT_GT(loop.bandwidth_updates(), before);
}

TEST_F(KdeTest, LimitTaintSuppressesHarvest) {
  KdeFeedbackLoop loop;
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());

  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("sensor", "", BandPredicate(300, 100));
  ASSERT_TRUE(scan.ok());
  auto limited = opt.MakeLimit(std::move(*scan), 5);
  ASSERT_TRUE(ExecutePlan(limited.get(), db_.get()).ok());

  // The scan under the Limit stopped early: its actual row count is a
  // property of the Limit, not of the predicate, and must not tune
  // bandwidths.
  const uint64_t before = loop.bandwidth_updates();
  ASSERT_TRUE(loop.HarvestPlan(*limited).ok());
  EXPECT_EQ(loop.bandwidth_updates(), before);
}

// ---------------------------------------------------------------------------
// Planning pin: attached-but-empty backend changes nothing
// ---------------------------------------------------------------------------

TEST_F(KdeTest, PlanningBitIdenticalWithUnpublishedBackend) {
  // A KDE estimator whose loop has never published answers no query, so
  // every estimate must fall back to the histogram path bit-identically —
  // the same pin card_test holds for the learned cache backend.
  KdeFeedbackLoop empty_loop;
  KdeCardinalityEstimator kde(&empty_loop);
  for (int tid : tpch::PlanLevelTemplates()) {
    Optimizer base_opt(db_.get());
    Rng base_rng(21);
    tpch::TemplateContext base_ctx{&base_opt, db_.get(), &base_rng};
    auto base = tpch::GenerateTemplateQuery(tid, &base_ctx);

    Optimizer kde_opt(db_.get());
    kde_opt.set_cardinality_estimator(&kde);
    Rng kde_rng(21);
    tpch::TemplateContext kde_ctx{&kde_opt, db_.get(), &kde_rng};
    auto with_kde = tpch::GenerateTemplateQuery(tid, &kde_ctx);

    ASSERT_TRUE(base.ok() && with_kde.ok()) << "template " << tid;
    EXPECT_EQ(base->root->StructuralKey(), with_kde->root->StructuralKey())
        << "template " << tid;
    std::vector<const PlanNode*> a, b;
    CollectNodes(base->root.get(), &a);
    CollectNodes(with_kde->root.get(), &b);
    ASSERT_EQ(a.size(), b.size()) << "template " << tid;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->est.rows, b[i]->est.rows) << "template " << tid;
      EXPECT_EQ(a[i]->est.total_cost, b[i]->est.total_cost)
          << "template " << tid;
      EXPECT_EQ(a[i]->est.selectivity, b[i]->est.selectivity)
          << "template " << tid;
      EXPECT_STREQ(b[i]->est_source, "hist") << "template " << tid;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency: estimates race bandwidth updates and publishes (TSan leg)
// ---------------------------------------------------------------------------

TEST_F(KdeTest, ConcurrentEstimateAndBandwidthUpdate) {
  KdeFeedbackConfig config;
  config.publish_interval = 1;
  KdeFeedbackLoop loop(config);
  ASSERT_TRUE(loop.BuildFromDatabase(*db_).ok());
  KdeCardinalityEstimator kde(&loop);

  // One executed plan reused as the harvest payload on every iteration.
  auto harvested = CompileBandScan(100, 120, &kde);
  ASSERT_TRUE(ExecutePlan(harvested.get(), db_.get()).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const int nreaders = std::max(2, TestThreads() - 1);
  for (int t = 0; t < nreaders; ++t) {
    readers.emplace_back([&kde, &stop, t] {
      PredicateBounds bounds;
      bounds.table = "sensor";
      bounds.table_rows = kSensorRows;
      bounds.exhaustive = true;
      ColumnBound cb;
      cb.column = t % 2 == 0 ? "x" : "y";
      cb.lo = 100.0;
      cb.hi = 400.0;
      cb.has_lo = cb.has_hi = true;
      bounds.columns.push_back(cb);
      CardinalityQuery q;
      q.bounds = &bounds;
      while (!stop.load(std::memory_order_acquire)) {
        auto est = kde.EstimateRows(q);
        ASSERT_TRUE(est.has_value());
        ASSERT_GE(*est, 0.0);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(loop.HarvestPlan(*harvested).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GE(loop.snapshots_published(), 50u);
  EXPECT_GE(loop.bandwidth_updates(), 50u);
  // With the readers gone, nothing holds the current generation: the next
  // publish frees it.
  const std::weak_ptr<const KdeSnapshot> last = loop.CurrentSnapshot();
  (void)loop.PublishSnapshot();
  EXPECT_TRUE(last.expired());
}

}  // namespace
}  // namespace qpp::kde

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "catalog/database.h"
#include "exec/driver.h"
#include "optimizer/optimizer.h"
#include "optimizer/selectivity.h"
#include "tpch/dbgen.h"

namespace qpp {
namespace {

/// Shared tiny TPC-H database (built once for the whole suite).
class OptimizerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.003;
    db_ = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    ASSERT_TRUE(tables.ok());
    ASSERT_TRUE(db_->AdoptTables(std::move(*tables)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }
  static void TearDownTestSuite() { db_.reset(); }

  static std::unique_ptr<Database> db_;
};

std::unique_ptr<Database> OptimizerTest::db_;

TEST_F(OptimizerTest, ScanEstimatesRowsAndPages) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("lineitem", "", nullptr);
  ASSERT_TRUE(scan.ok());
  const Table* li = db_->GetTable("lineitem");
  EXPECT_DOUBLE_EQ((*scan)->est.rows, static_cast<double>(li->num_rows()));
  EXPECT_DOUBLE_EQ((*scan)->est.pages, static_cast<double>(li->num_pages()));
  EXPECT_GT((*scan)->est.total_cost, 0.0);
  EXPECT_DOUBLE_EQ((*scan)->est.selectivity, 1.0);
}

TEST_F(OptimizerTest, ScanFilterReducesRowEstimate) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan(
      "lineitem", "",
      Lt(Col("l_shipdate"), LitDate("1994-01-01")));
  ASSERT_TRUE(scan.ok());
  const Table* li = db_->GetTable("lineitem");
  EXPECT_LT((*scan)->est.rows, static_cast<double>(li->num_rows()));
  EXPECT_GT((*scan)->est.rows, 0.0);
  // ~2 years out of 7 of ship dates.
  const double sel = (*scan)->est.selectivity;
  EXPECT_GT(sel, 0.1);
  EXPECT_LT(sel, 0.5);
}

TEST_F(OptimizerTest, SelectivityAndOfTwoFiltersMultiplies) {
  Optimizer opt(db_.get());
  std::vector<ExprPtr> conj;
  conj.push_back(Lt(Col("l_shipdate"), LitDate("1994-01-01")));
  conj.push_back(Eq(Col("l_returnflag"), LitStr("R")));
  auto scan = opt.MakeScan("lineitem", "", And(std::move(conj)));
  ASSERT_TRUE(scan.ok());
  auto scan1 = opt.MakeScan("lineitem", "",
                            Lt(Col("l_shipdate"), LitDate("1994-01-01")));
  auto scan2 =
      opt.MakeScan("lineitem", "", Eq(Col("l_returnflag"), LitStr("R")));
  EXPECT_NEAR((*scan)->est.selectivity,
              (*scan1)->est.selectivity * (*scan2)->est.selectivity, 1e-9);
}

TEST_F(OptimizerTest, LikePrefixSelectivityFromHistogram) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("part", "", Like(Col("p_type"), "PROMO%"));
  ASSERT_TRUE(scan.ok());
  // PROMO is 1 of 6 first syllables: roughly 1/6.
  EXPECT_GT((*scan)->est.selectivity, 0.05);
  EXPECT_LT((*scan)->est.selectivity, 0.4);
}

TEST_F(OptimizerTest, InListSelectivityAddsUp) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan(
      "customer", "",
      In(Col("c_mktsegment"),
         {Value::String("BUILDING"), Value::String("MACHINERY")}));
  ASSERT_TRUE(scan.ok());
  EXPECT_GT((*scan)->est.selectivity, 0.25);
  EXPECT_LT((*scan)->est.selectivity, 0.55);
}

TEST_F(OptimizerTest, ColumnVsColumnUsesDefault) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("lineitem", "",
                           Lt(Col("l_commitdate"), Col("l_receiptdate")));
  ASSERT_TRUE(scan.ok());
  EXPECT_NEAR((*scan)->est.selectivity, 1.0 / 3.0, 1e-9);
}

TEST_F(OptimizerTest, JoinBlockCoversAllRelations) {
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("customer");
  block.AddRelation("orders");
  block.AddRelation("lineitem");
  block.AddJoin("c_custkey", "o_custkey");
  block.AddJoin("o_orderkey", "l_orderkey");
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const PlanNode*> nodes;
  CollectNodes(const_cast<const PlanNode*>(plan->get()), &nodes);
  std::set<std::string> scanned;
  for (const PlanNode* n : nodes) {
    if (n->op == PlanOp::kSeqScan) scanned.insert(n->label);
  }
  EXPECT_EQ(scanned, (std::set<std::string>{"customer", "orders", "lineitem"}));
}

TEST_F(OptimizerTest, JoinBlockExecutesCorrectly) {
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("nation");
  block.AddRelation("region");
  block.AddJoin("n_regionkey", "r_regionkey");
  block.AddFilter(Eq(Col("r_name"), LitStr("ASIA")));
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok());
  auto res = ExecutePlan(plan->get(), db_.get(), {});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->row_count, 5);  // 5 Asian nations
}

TEST_F(OptimizerTest, SelfJoinWithAliases) {
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("nation", "n1");
  block.AddRelation("nation", "n2");
  block.AddJoin("n1.n_regionkey", "n2.n_regionkey");
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto res = ExecutePlan(plan->get(), db_.get(), {});
  ASSERT_TRUE(res.ok());
  // 5 regions x 5 nations each -> 25 pairs per region = 125 rows.
  EXPECT_EQ(res->row_count, 125);
}

TEST_F(OptimizerTest, MultiRelationFilterAppliedOnce) {
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("nation", "n1");
  block.AddRelation("nation", "n2");
  block.AddJoin("n1.n_regionkey", "n2.n_regionkey");
  block.AddFilter(Ne(Col("n1.n_nationkey"), Col("n2.n_nationkey")));
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok());
  auto res = ExecutePlan(plan->get(), db_.get(), {});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->row_count, 100);  // 125 minus the 25 self pairs
}

TEST_F(OptimizerTest, AmbiguousUnqualifiedColumnRejected) {
  // With nation in the block twice, "n_name" names a column of both copies;
  // pushing the filter to the first one would silently answer a different
  // query.
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("nation", "n1");
  block.AddRelation("nation", "n2");
  block.AddJoin("n1.n_regionkey", "n2.n_regionkey");
  block.AddFilter(Eq(Col("n_name"), LitStr("FRANCE")));
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ambiguous column n_name"),
            std::string::npos)
      << plan.status().ToString();

  // Join keys are checked the same way.
  JoinBlock keys;
  keys.AddRelation("nation", "n1");
  keys.AddRelation("nation", "n2");
  keys.AddJoin("n_regionkey", "n2.n_regionkey");
  auto keyed = opt.OptimizeJoinBlock(std::move(keys));
  ASSERT_FALSE(keyed.ok());
  EXPECT_NE(keyed.status().message().find("ambiguous column n_regionkey"),
            std::string::npos)
      << keyed.status().ToString();

  // Qualified, the filter lands on n1: France's region (Europe) holds five
  // nations, each paired with France.
  JoinBlock qualified;
  qualified.AddRelation("nation", "n1");
  qualified.AddRelation("nation", "n2");
  qualified.AddJoin("n1.n_regionkey", "n2.n_regionkey");
  qualified.AddFilter(Eq(Col("n1.n_name"), LitStr("FRANCE")));
  auto ok = opt.OptimizeJoinBlock(std::move(qualified));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  auto res = ExecutePlan(ok->get(), db_.get(), {});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->row_count, 5);
}

TEST_F(OptimizerTest, RepeatedAliasAndTooManyJoinFiltersRejected) {
  // A repeated alias makes every qualified reference to it ambiguous, and
  // unaliased self-joins repeat the table name.
  Optimizer opt(db_.get());
  JoinBlock twice;
  twice.AddRelation("nation");
  twice.AddRelation("nation");
  twice.AddJoin("nation.n_regionkey", "nation.n_nationkey");
  auto plan = opt.OptimizeJoinBlock(std::move(twice));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("duplicate relation alias nation"),
            std::string::npos)
      << plan.status().ToString();

  // Join enumeration tracks the multi-relation filters a join newly covers
  // in a 64-bit mask.
  const auto block_with = [](int filters) {
    JoinBlock b;
    b.AddRelation("nation");
    b.AddRelation("region");
    b.AddJoin("n_regionkey", "r_regionkey");
    for (int i = 0; i < filters; ++i) {
      b.AddFilter(Ne(Col("n_nationkey"), Col("r_regionkey")));
    }
    return b;
  };
  EXPECT_TRUE(opt.OptimizeJoinBlock(block_with(64)).ok());
  auto many = opt.OptimizeJoinBlock(block_with(65));
  ASSERT_FALSE(many.ok());
  EXPECT_NE(many.status().message().find("too many multi-relation filters"),
            std::string::npos)
      << many.status().ToString();
}

TEST_F(OptimizerTest, AvoidsCrossProductsWhenConnected) {
  Optimizer opt(db_.get());
  JoinBlock block;
  block.AddRelation("supplier");
  block.AddRelation("nation");
  block.AddRelation("region");
  block.AddJoin("s_nationkey", "n_nationkey");
  block.AddJoin("n_regionkey", "r_regionkey");
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok());
  std::vector<const PlanNode*> nodes;
  CollectNodes(const_cast<const PlanNode*>(plan->get()), &nodes);
  for (const PlanNode* n : nodes) {
    if (n->op == PlanOp::kHashJoin || n->op == PlanOp::kMergeJoin ||
        n->op == PlanOp::kNestedLoopJoin) {
      const bool has_keys =
          !n->join_keys.empty() || n->predicate != nullptr;
      EXPECT_TRUE(has_keys) << "cross product in plan";
    }
  }
}

TEST_F(OptimizerTest, JoinCardinalityUsesKeyNDistinct) {
  Optimizer opt(db_.get());
  auto orders = opt.MakeScan("orders", "", nullptr);
  auto lineitem = opt.MakeScan("lineitem", "", nullptr);
  auto join = opt.MakeJoin(PlanOp::kHashJoin, JoinType::kInner,
                           std::move(*orders), std::move(*lineitem),
                           {{"o_orderkey", "l_orderkey"}}, nullptr);
  ASSERT_TRUE(join.ok());
  const double actual_out =
      static_cast<double>(db_->GetTable("lineitem")->num_rows());
  // FK join: output ~ lineitem cardinality; estimate within 3x.
  EXPECT_GT((*join)->est.rows, actual_out / 3);
  EXPECT_LT((*join)->est.rows, actual_out * 3);
}

TEST_F(OptimizerTest, SemiAntiEstimatesComplementary) {
  Optimizer opt(db_.get());
  auto c1 = opt.MakeScan("customer", "", nullptr);
  auto o1 = opt.MakeScan("orders", "", nullptr);
  auto semi = opt.MakeJoin(PlanOp::kHashJoin, JoinType::kSemi, std::move(*c1),
                           std::move(*o1), {{"c_custkey", "o_custkey"}},
                           nullptr);
  ASSERT_TRUE(semi.ok());
  auto c2 = opt.MakeScan("customer", "", nullptr);
  auto o2 = opt.MakeScan("orders", "", nullptr);
  auto anti = opt.MakeJoin(PlanOp::kHashJoin, JoinType::kAnti, std::move(*c2),
                           std::move(*o2), {{"c_custkey", "o_custkey"}},
                           nullptr);
  ASSERT_TRUE(anti.ok());
  const double customers =
      static_cast<double>(db_->GetTable("customer")->num_rows());
  EXPECT_NEAR((*semi)->est.rows + (*anti)->est.rows, customers,
              customers * 0.1);
}

TEST_F(OptimizerTest, MergeJoinRejectsNonInner) {
  Optimizer opt(db_.get());
  auto l = opt.MakeScan("customer", "", nullptr);
  auto r = opt.MakeScan("orders", "", nullptr);
  EXPECT_FALSE(opt.MakeJoin(PlanOp::kMergeJoin, JoinType::kSemi,
                            std::move(*l), std::move(*r),
                            {{"c_custkey", "o_custkey"}}, nullptr)
                   .ok());
}

TEST_F(OptimizerTest, AggregateGroupEstimate) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("orders", "", nullptr);
  std::vector<AggSpec> aggs;
  aggs.push_back(AggCountStar("cnt"));
  auto agg = opt.MakeAggregate(std::move(*scan), {"o_orderpriority"},
                               std::move(aggs), nullptr);
  ASSERT_TRUE(agg.ok());
  // 5 priorities.
  EXPECT_GT((*agg)->est.rows, 1.0);
  EXPECT_LT((*agg)->est.rows, 30.0);
}

TEST_F(OptimizerTest, HavingUsesDefaultSelectivity) {
  // The paper's template-18 effect: HAVING over an aggregate output has no
  // statistics and falls back to DEFAULT_INEQ_SEL.
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("lineitem", "", nullptr);
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSum(Col("l_quantity"), "sum_qty"));
  auto agg = opt.MakeAggregate(
      std::move(*scan), {"l_orderkey"}, std::move(aggs),
      Gt(Col("sum_qty"), Lit(Value::MakeDecimal(Decimal(314, 0)))));
  ASSERT_TRUE(agg.ok());
  auto scan2 = opt.MakeScan("lineitem", "", nullptr);
  std::vector<AggSpec> aggs2;
  aggs2.push_back(AggSum(Col("l_quantity"), "sum_qty"));
  auto agg2 = opt.MakeAggregate(std::move(*scan2), {"l_orderkey"},
                                std::move(aggs2), nullptr);
  ASSERT_TRUE(agg2.ok());
  EXPECT_NEAR((*agg)->est.rows / (*agg2)->est.rows, 1.0 / 3.0, 0.05);
}

TEST_F(OptimizerTest, SortAndLimitEstimates) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("customer", "", nullptr);
  auto sort = opt.MakeSort(std::move(*scan), {"c_acctbal"}, {true});
  ASSERT_TRUE(sort.ok());
  EXPECT_GT((*sort)->est.startup_cost, 0.0);
  // Sort is blocking: startup close to total.
  EXPECT_GT((*sort)->est.startup_cost / (*sort)->est.total_cost, 0.9);
  const double sort_rows = (*sort)->est.rows;
  auto limit = opt.MakeLimit(std::move(*sort), 10);
  EXPECT_DOUBLE_EQ(limit->est.rows, 10.0);
  EXPECT_LT(limit->est.rows, sort_rows);
}

TEST_F(OptimizerTest, InferTypes) {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);
  s.AddColumn("d", TypeId::kDecimal, 2);
  s.AddColumn("t", TypeId::kDate);
  s.AddColumn("str", TypeId::kString);
  EXPECT_EQ(InferType(*Col("a"), s), TypeId::kInt64);
  EXPECT_EQ(InferType(*Add(Col("a"), Col("a")), s), TypeId::kInt64);
  EXPECT_EQ(InferType(*Mul(Col("d"), Col("a")), s), TypeId::kDecimal);
  EXPECT_EQ(InferType(*Add(Col("t"), LitInt(3)), s), TypeId::kDate);
  EXPECT_EQ(InferType(*Gt(Col("a"), LitInt(1)), s), TypeId::kBool);
  EXPECT_EQ(InferType(*Year(Col("t")), s), TypeId::kInt64);
  EXPECT_EQ(InferType(*Substr(Col("str"), 1, 2), s), TypeId::kString);
}

TEST_F(OptimizerTest, AggResultTypes) {
  EXPECT_EQ(AggResultType(AggFunc::kCount, TypeId::kString), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kDecimal), TypeId::kDecimal);
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kInt64), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kAvg, TypeId::kInt64), TypeId::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kMin, TypeId::kDate), TypeId::kDate);
}

TEST_F(OptimizerTest, CostsIncreaseWithPlanSize) {
  Optimizer opt(db_.get());
  auto scan = opt.MakeScan("lineitem", "", nullptr);
  const double scan_cost = (*scan)->est.total_cost;
  auto sort = opt.MakeSort(std::move(*scan), {"l_orderkey"}, {false});
  ASSERT_TRUE(sort.ok());
  EXPECT_GT((*sort)->est.total_cost, scan_cost);
}

TEST_F(OptimizerTest, EmptyBlockRejected) {
  Optimizer opt(db_.get());
  EXPECT_FALSE(opt.OptimizeJoinBlock(JoinBlock{}).ok());
}

TEST_F(OptimizerTest, UnknownTableRejected) {
  Optimizer opt(db_.get());
  EXPECT_FALSE(opt.MakeScan("nope", "", nullptr).ok());
}

TEST_F(OptimizerTest, BadJoinKeysRejected) {
  Optimizer opt(db_.get());
  auto l = opt.MakeScan("nation", "", nullptr);
  auto r = opt.MakeScan("region", "", nullptr);
  EXPECT_FALSE(opt.MakeJoin(PlanOp::kHashJoin, JoinType::kInner, std::move(*l),
                            std::move(*r), {{"zzz", "yyy"}}, nullptr)
                   .ok());
}

// ---------------------------------------------------------------------------
// EstimateSelectivity edge cases: NaN-poisoned stats and out-of-range
// intermediate selectivities must always land in [0, 1].
// ---------------------------------------------------------------------------

/// Stats as AnalyzeAll leaves them for a zero-row table: no histogram, no
/// MCVs, NaN min/max (no value was ever seen).
ColumnStats ZeroRowStats() {
  ColumnStats cs;
  cs.name = "x";
  cs.type = TypeId::kInt64;
  cs.min_value = std::numeric_limits<double>::quiet_NaN();
  cs.max_value = std::numeric_limits<double>::quiet_NaN();
  return cs;
}

/// Deliberately inconsistent stats (a stale MCV frequency above 1.0), the
/// kind of garbage AND/OR arithmetic must not let escape past [0, 1].
ColumnStats OverfullMcvStats() {
  ColumnStats cs;
  cs.name = "x";
  cs.type = TypeId::kInt64;
  cs.min_value = 0.0;
  cs.max_value = 10.0;
  cs.mcvs.push_back({Value::Int64(5), 1.5});
  return cs;
}

TEST(SelectivityEdgeCases, ZeroRowStatsNeverYieldNaN) {
  const ColumnStats cs = ZeroRowStats();
  const StatsResolver stats = [&cs](const std::string&) { return &cs; };
  const CostModel cm;
  for (const auto& pred :
       {Lt(Col("x"), LitInt(5)), Gt(Col("x"), LitInt(5)),
        Le(Col("x"), LitInt(5)), Ge(Col("x"), LitInt(5)),
        Eq(Col("x"), LitInt(5))}) {
    const double sel = EstimateSelectivity(*pred, stats, cm);
    EXPECT_FALSE(std::isnan(sel));
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
}

TEST(SelectivityEdgeCases, NanProbeValueIsHandled) {
  // A NaN probe would violate upper_bound's ordering inside the histogram
  // search; the guard maps it to "nothing below".
  ColumnStats cs = ZeroRowStats();
  cs.min_value = 0.0;
  cs.max_value = 10.0;
  cs.histogram = {0.0, 5.0, 10.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(cs.LtSelectivity(nan, false), 0.0);
  EXPECT_DOUBLE_EQ(cs.LtSelectivity(nan, true), 0.0);
  const double gt = cs.CmpSelectivity(CmpOp::kGt, Value::MakeDouble(nan));
  EXPECT_FALSE(std::isnan(gt));
  EXPECT_GE(gt, 0.0);
  EXPECT_LE(gt, 1.0);
}

TEST(SelectivityEdgeCases, AndProductClampedToUnitInterval) {
  const ColumnStats cs = OverfullMcvStats();
  const StatsResolver stats = [&cs](const std::string&) { return &cs; };
  const CostModel cm;
  // Each equality conjunct alone reports the stale 1.5 frequency; the AND
  // product must still be clamped into [0, 1].
  std::vector<ExprPtr> conj;
  conj.push_back(Eq(Col("x"), LitInt(5)));
  conj.push_back(Eq(Col("y"), LitInt(5)));
  const double sel = EstimateSelectivity(*And(std::move(conj)), stats, cm);
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0);
}

TEST(SelectivityEdgeCases, OrInclusionExclusionClampedToUnitInterval) {
  const ColumnStats cs = OverfullMcvStats();
  const StatsResolver stats = [&cs](const std::string&) { return &cs; };
  const CostModel cm;
  // 1 - (1 - 1.5)^2 = 0.75 stays in range, but 1 - (1 - 1.5) = 1.5 from a
  // single overfull disjunct plus a normal one goes above 1 before the
  // clamp.
  std::vector<ExprPtr> disj;
  disj.push_back(Eq(Col("x"), LitInt(5)));
  disj.push_back(Lt(Col("y"), LitInt(3)));
  const double sel = EstimateSelectivity(*Or(std::move(disj)), stats, cm);
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0);
  // NOT of an overfull equality must clamp from below as well.
  const double nsel =
      EstimateSelectivity(*Not(Eq(Col("x"), LitInt(5))), stats, cm);
  EXPECT_GE(nsel, 0.0);
  EXPECT_LE(nsel, 1.0);
}

TEST(SelectivityEdgeCases, RangePairOnZeroRowStatsStaysFinite) {
  const ColumnStats cs = ZeroRowStats();
  const StatsResolver stats = [&cs](const std::string&) { return &cs; };
  const CostModel cm;
  std::vector<ExprPtr> conj;
  conj.push_back(Ge(Col("x"), LitInt(2)));
  conj.push_back(Lt(Col("x"), LitInt(8)));
  const double sel = EstimateSelectivity(*And(std::move(conj)), stats, cm);
  EXPECT_FALSE(std::isnan(sel));
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0);
}

}  // namespace
}  // namespace qpp

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "exec/driver.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"

namespace qpp {
namespace {

/// Fixture with two tiny hand-filled tables and an analyzed database.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema users;
    users.AddColumn("uid", TypeId::kInt64);
    users.AddColumn("uname", TypeId::kString, 8);
    users.AddColumn("age", TypeId::kInt64);
    auto ut = std::make_unique<Table>(0, "users", users);
    ASSERT_TRUE(ut->AppendRow({Value::Int64(1), Value::String("ann"), Value::Int64(30)}).ok());
    ASSERT_TRUE(ut->AppendRow({Value::Int64(2), Value::String("bob"), Value::Int64(25)}).ok());
    ASSERT_TRUE(ut->AppendRow({Value::Int64(3), Value::String("cat"), Value::Int64(35)}).ok());
    ASSERT_TRUE(ut->AppendRow({Value::Int64(4), Value::String("dan"), Value::Int64(25)}).ok());
    ASSERT_TRUE(ut->CreateIndex("uid").ok());

    Schema orders;
    orders.AddColumn("oid", TypeId::kInt64);
    orders.AddColumn("uid2", TypeId::kInt64);
    orders.AddColumn("amount", TypeId::kDecimal, 2);
    auto ot = std::make_unique<Table>(1, "sales", orders);
    auto add = [&](int64_t oid, int64_t uid, int64_t cents) {
      ASSERT_TRUE(ot->AppendRow({Value::Int64(oid), Value::Int64(uid),
                                 Value::MakeDecimal(Decimal(cents, 2))}).ok());
    };
    add(100, 1, 1000);
    add(101, 1, 2000);
    add(102, 2, 500);
    add(103, 9, 700);  // dangling user id
    ASSERT_TRUE(db_.AddTable(std::move(ut)).ok());
    ASSERT_TRUE(db_.AddTable(std::move(ot)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
    opt_ = std::make_unique<Optimizer>(&db_);
  }

  ExecutionResult Run(PlanNode* root) {
    auto r = ExecutePlan(root, &db_, {});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : ExecutionResult{};
  }

  std::unique_ptr<PlanNode> Scan(const std::string& table, ExprPtr filter,
                                 const std::string& alias = "") {
    auto s = opt_->MakeScan(table, alias, std::move(filter));
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(*s);
  }

  std::unique_ptr<PlanNode> Join(PlanOp op, JoinType type, ExprPtr residual) {
    auto j = opt_->MakeJoin(op, type, Scan("users", nullptr),
                            Scan("sales", nullptr), {{"uid", "uid2"}},
                            std::move(residual));
    EXPECT_TRUE(j.ok()) << j.status().ToString();
    return std::move(*j);
  }

  /// Projects the named columns of `child`, dropping all the others.
  std::unique_ptr<PlanNode> Keep(std::unique_ptr<PlanNode> child,
                                 std::vector<std::string> names) {
    std::vector<ExprPtr> exprs;
    for (const auto& n : names) exprs.push_back(Col(n));
    auto p = opt_->MakeProject(std::move(child), std::move(exprs),
                               std::move(names));
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(*p);
  }

  Database db_;
  std::unique_ptr<Optimizer> opt_;
};

TEST_F(ExecTest, SeqScanAllRows) {
  auto plan = Scan("users", nullptr);
  auto res = Run(plan.get());
  EXPECT_EQ(res.row_count, 4);
  EXPECT_EQ(plan->actual.rows, 4);
  EXPECT_TRUE(plan->actual.valid);
}

TEST_F(ExecTest, SeqScanWithPredicate) {
  auto plan = Scan("users", Eq(Col("age"), LitInt(25)));
  auto res = Run(plan.get());
  EXPECT_EQ(res.row_count, 2);
}

TEST_F(ExecTest, SeqScanChargesPages) {
  auto plan = Scan("sales", nullptr);
  Run(plan.get());
  EXPECT_GE(plan->actual.pages, 1);
}

TEST_F(ExecTest, IndexScanFindsMatch) {
  auto plan = opt_->MakeIndexScan("users", "", "uid", LitInt(3), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto res = Run(plan->get());
  ASSERT_EQ(res.row_count, 1);
  EXPECT_EQ(res.rows[0][1].string_value(), "cat");
}

TEST_F(ExecTest, IndexScanNoMatch) {
  auto plan = opt_->MakeIndexScan("users", "", "uid", LitInt(77), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Run(plan->get()).row_count, 0);
}

TEST_F(ExecTest, FilterOperator) {
  auto filter =
      opt_->MakeFilter(Scan("users", nullptr), Gt(Col("age"), LitInt(26)));
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(Run(filter->get()).row_count, 2);
}

TEST_F(ExecTest, ProjectComputesExpressions) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(Mul(Col("age"), LitInt(2)));
  std::vector<std::string> names = {"double_age"};
  auto proj = opt_->MakeProject(Scan("users", nullptr), std::move(exprs),
                                std::move(names));
  ASSERT_TRUE(proj.ok());
  auto res = Run(proj->get());
  ASSERT_EQ(res.row_count, 4);
  EXPECT_EQ(res.rows[0][0].int64_value(), 60);
}

/// Renders each result row as its values' ToString joined by '|'.
std::vector<std::string> Render(const ExecutionResult& res) {
  std::vector<std::string> rows;
  for (const Tuple& t : res.rows) {
    std::string row;
    for (size_t i = 0; i < t.size(); ++i) {
      row += (i == 0 ? "" : "|") + t[i].ToString();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Scans materialize only the columns some operator above them reads. Each
// case reads a column in exactly one operator below a Project that drops
// it: a join key, a residual column (on either side), a scan or filter
// predicate column, or a sort key. A column missing from a read set would
// be null there and change the rows.
TEST_F(ExecTest, ColumnsReadOnlyBelowAProject) {
  // Each residual reads one column of each side.
  auto amount_or_age = [](ExprPtr age_test) {
    std::vector<ExprPtr> terms;
    terms.push_back(Gt(Col("amount"), LitDec("15.00")));
    terms.push_back(std::move(age_test));
    return Or(std::move(terms));
  };
  // ann's 20.00 sale passes on amount, bob's 5.00 one on age.
  auto amount_or_young = [&] {
    return amount_or_age(Lt(Col("age"), LitInt(28)));
  };
  // ann (30) passes on age; bob's only sale, 5.00, fails both.
  auto amount_or_old = [&] {
    return amount_or_age(Gt(Col("age"), LitInt(28)));
  };
  struct Case {
    std::string name;
    std::function<std::unique_ptr<PlanNode>()> plan;
    bool ordered;
    std::vector<std::string> rows;
  };
  const std::vector<Case> cases = {
      {"hash inner, residual",
       [&] {
         return Keep(Join(PlanOp::kHashJoin, JoinType::kInner,
                          amount_or_young()),
                     {"uname", "oid"});
       },
       false, {"ann|101", "bob|102"}},
      {"merge inner, residual",
       [&] {
         return Keep(Join(PlanOp::kMergeJoin, JoinType::kInner,
                          amount_or_young()),
                     {"uname", "oid"});
       },
       false, {"ann|101", "bob|102"}},
      {"nested-loop inner, residual",
       [&] {
         return Keep(Join(PlanOp::kNestedLoopJoin, JoinType::kInner,
                          amount_or_young()),
                     {"uname", "oid"});
       },
       false, {"ann|101", "bob|102"}},
      {"hash semi, residual",
       [&] {
         return Keep(
             Join(PlanOp::kHashJoin, JoinType::kSemi, amount_or_old()),
             {"uname"});
       },
       false, {"ann"}},
      {"hash anti, residual",
       [&] {
         return Keep(
             Join(PlanOp::kHashJoin, JoinType::kAnti, amount_or_old()),
             {"uname"});
       },
       false, {"bob", "cat", "dan"}},
      {"nested-loop semi, residual",
       [&] {
         return Keep(Join(PlanOp::kNestedLoopJoin, JoinType::kSemi,
                          amount_or_old()),
                     {"uname"});
       },
       false, {"ann"}},
      {"nested-loop anti, residual",
       [&] {
         return Keep(Join(PlanOp::kNestedLoopJoin, JoinType::kAnti,
                          amount_or_old()),
                     {"uname"});
       },
       false, {"bob", "cat", "dan"}},
      {"nested-loop left outer",
       [&] {
         return Keep(
             Join(PlanOp::kNestedLoopJoin, JoinType::kLeftOuter, nullptr),
             {"uname", "oid"});
       },
       false, {"ann|100", "ann|101", "bob|102", "cat|NULL", "dan|NULL"}},
      {"nested-loop left outer, residual",
       [&] {
         return Keep(Join(PlanOp::kNestedLoopJoin, JoinType::kLeftOuter,
                          Gt(Col("amount"), LitDec("15.00"))),
                     {"uname", "oid"});
       },
       false, {"ann|101", "bob|NULL", "cat|NULL", "dan|NULL"}},
      {"hash left outer, residual",
       [&] {
         return Keep(Join(PlanOp::kHashJoin, JoinType::kLeftOuter,
                          Gt(Col("amount"), LitDec("15.00"))),
                     {"uname", "oid"});
       },
       false, {"ann|101", "bob|NULL", "cat|NULL", "dan|NULL"}},
      {"scan predicate",
       [&] {
         return Keep(Scan("users", Gt(Col("age"), LitInt(26))), {"uname"});
       },
       false, {"ann", "cat"}},
      {"index scan predicate",
       [&] {
         auto i = opt_->MakeIndexScan("users", "", "uid", LitInt(3),
                                      Gt(Col("age"), LitInt(30)));
         EXPECT_TRUE(i.ok());
         return Keep(std::move(*i), {"uname"});
       },
       false, {"cat"}},
      {"filter predicate",
       [&] {
         auto f = opt_->MakeFilter(Scan("users", nullptr),
                                   Gt(Col("age"), LitInt(26)));
         EXPECT_TRUE(f.ok());
         return Keep(std::move(*f), {"uname"});
       },
       false, {"ann", "cat"}},
      {"sort keys",
       [&] {
         // age ascending, uid descending within ties: dan, bob, ann, cat.
         auto s = opt_->MakeSort(Scan("users", nullptr), {"age", "uid"},
                                 {false, true});
         EXPECT_TRUE(s.ok());
         return Keep(std::move(*s), {"uname"});
       },
       true, {"dan", "bob", "ann", "cat"}},
  };
  for (const Case& c : cases) {
    auto plan = c.plan();
    std::vector<std::string> rows = Render(Run(plan.get()));
    if (!c.ordered) std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, c.rows) << c.name;
  }
}

// A nested loop rescans a Materialize over a Sort: the Sort runs once and
// moves its rows out, and the Materialize replays them on every rescan.
TEST_F(ExecTest, NestedLoopReplaysSortedInnerOnEveryRescan) {
  auto sorted = opt_->MakeSort(Scan("sales", nullptr), {"amount"}, {true});
  ASSERT_TRUE(sorted.ok());
  auto nl = opt_->MakeJoin(PlanOp::kNestedLoopJoin, JoinType::kInner,
                           Scan("users", nullptr), std::move(*sorted),
                           {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(nl.ok());
  const PlanNode* mat = (*nl)->child(1);
  ASSERT_EQ(mat->op, PlanOp::kMaterialize);
  ASSERT_EQ(mat->child(0)->op, PlanOp::kSort);
  auto plan = Keep(std::move(*nl), {"uname", "amount"});
  const std::vector<std::string> expected = {"ann|20.00", "ann|10.00",
                                             "bob|5.00"};
  EXPECT_EQ(Render(Run(plan.get())), expected);
  EXPECT_EQ(mat->child(0)->actual.rows, 4);  // sorted once
  EXPECT_EQ(mat->actual.rows, 16);           // replayed for 4 outer rows
}

TEST_F(ExecTest, HashJoinInner) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kInner,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto res = Run(join->get());
  EXPECT_EQ(res.row_count, 3);  // ann x2, bob x1; dangling sale drops
  // Joined tuple = user columns ++ sales columns.
  EXPECT_EQ(res.rows[0].size(), 6u);
}

TEST_F(ExecTest, HashJoinLeftOuterPadsNulls) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kLeftOuter,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto res = Run(join->get());
  EXPECT_EQ(res.row_count, 5);  // 3 matches + cat,dan padded
  int padded = 0;
  for (const auto& row : res.rows) padded += row[3].is_null();
  EXPECT_EQ(padded, 2);
}

TEST_F(ExecTest, HashJoinSemi) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kSemi,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto res = Run(join->get());
  EXPECT_EQ(res.row_count, 2);        // ann, bob have sales
  EXPECT_EQ(res.rows[0].size(), 3u);  // left columns only
}

TEST_F(ExecTest, HashJoinAnti) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kAnti,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto res = Run(join->get());
  ASSERT_EQ(res.row_count, 2);  // cat, dan
  std::vector<std::string> names = {res.rows[0][1].string_value(),
                                    res.rows[1][1].string_value()};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0], "cat");
  EXPECT_EQ(names[1], "dan");
}

TEST_F(ExecTest, HashJoinResidualPredicate) {
  auto join = opt_->MakeJoin(
      PlanOp::kHashJoin, JoinType::kInner, Scan("users", nullptr),
      Scan("sales", nullptr), {{"uid", "uid2"}},
      Gt(Col("amount"), LitDec("7.00")));
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(Run(join->get()).row_count, 2);  // 10.00 and 20.00
}

TEST_F(ExecTest, MergeJoinMatchesHashJoin) {
  auto mj = opt_->MakeJoin(PlanOp::kMergeJoin, JoinType::kInner,
                           Scan("users", nullptr), Scan("sales", nullptr),
                           {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(mj.ok()) << mj.status().ToString();
  EXPECT_EQ((*mj)->child(0)->op, PlanOp::kSort);  // sorts inserted
  EXPECT_EQ(Run(mj->get()).row_count, 3);
}

TEST_F(ExecTest, MergeJoinDuplicateKeysCrossProduct) {
  // Two users aged 25 x two sales of 10.00/20.00 for user 1: join on a
  // non-unique key to exercise group buffering.
  auto mj = opt_->MakeJoin(PlanOp::kMergeJoin, JoinType::kInner,
                           Scan("users", nullptr, "u"),
                           Scan("users", nullptr, "v"),
                           {{"u.age", "v.age"}}, nullptr);
  ASSERT_TRUE(mj.ok());
  // ages: 30,25,35,25 -> matches: 30x1, 35x1, 25x25 (2x2) = 1+1+4.
  EXPECT_EQ(Run(mj->get()).row_count, 6);
}

TEST_F(ExecTest, NestedLoopJoinWithMaterializedInner) {
  auto nl = opt_->MakeJoin(PlanOp::kNestedLoopJoin, JoinType::kInner,
                           Scan("users", nullptr), Scan("sales", nullptr),
                           {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(nl.ok());
  EXPECT_EQ((*nl)->child(1)->op, PlanOp::kMaterialize);
  EXPECT_EQ(Run(nl->get()).row_count, 3);
}

TEST_F(ExecTest, NestedLoopSemiAndAnti) {
  auto semi = opt_->MakeJoin(PlanOp::kNestedLoopJoin, JoinType::kSemi,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(Run(semi->get()).row_count, 2);
  auto anti = opt_->MakeJoin(PlanOp::kNestedLoopJoin, JoinType::kAnti,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(anti.ok());
  EXPECT_EQ(Run(anti->get()).row_count, 2);
}

TEST_F(ExecTest, SortAscendingAndDescending) {
  auto sorted = opt_->MakeSort(Scan("users", nullptr), {"age", "uname"},
                               {false, true});
  ASSERT_TRUE(sorted.ok());
  auto res = Run(sorted->get());
  ASSERT_EQ(res.row_count, 4);
  // age asc, name desc within ties: dan(25), bob(25), ann(30), cat(35).
  EXPECT_EQ(res.rows[0][1].string_value(), "dan");
  EXPECT_EQ(res.rows[1][1].string_value(), "bob");
  EXPECT_EQ(res.rows[2][1].string_value(), "ann");
  EXPECT_EQ(res.rows[3][1].string_value(), "cat");
}

TEST_F(ExecTest, LimitTruncates) {
  auto sorted = opt_->MakeSort(Scan("users", nullptr), {"uid"}, {false});
  ASSERT_TRUE(sorted.ok());
  auto limited = opt_->MakeLimit(std::move(*sorted), 2);
  auto res = Run(limited.get());
  EXPECT_EQ(res.row_count, 2);
  EXPECT_EQ(res.rows[1][0].int64_value(), 2);
}

TEST_F(ExecTest, HashAggregateGroupsAndHaving) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggCountStar("cnt"));
  aggs.push_back(AggSum(Col("amount"), "total"));
  auto agg = opt_->MakeAggregate(Scan("sales", nullptr), {"uid2"},
                                 std::move(aggs),
                                 Gt(Col("cnt"), LitInt(1)));
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto res = Run(agg->get());
  ASSERT_EQ(res.row_count, 1);  // only user 1 has 2 sales
  EXPECT_EQ(res.rows[0][0].int64_value(), 1);
  EXPECT_EQ(res.rows[0][1].int64_value(), 2);
  EXPECT_DOUBLE_EQ(res.rows[0][2].decimal_value().ToDouble(), 30.0);
}

// Both aggregate operators, HashAggregate and (over input declared sorted)
// GroupAggregate, emit the one row SQL requires, and HAVING still applies
// to it.
TEST_F(ExecTest, UngroupedAggregateOnEmptyInputEmitsOneRow) {
  for (bool sorted_variant : {false, true}) {
    auto make = [&](ExprPtr having) {
      std::vector<AggSpec> aggs;
      aggs.push_back(AggCountStar("cnt"));
      aggs.push_back(AggSum(Col("amount"), "total"));
      auto agg = opt_->MakeAggregate(
          Scan("sales", Gt(Col("amount"), LitDec("999.00"))), {},
          std::move(aggs), std::move(having), sorted_variant);
      EXPECT_TRUE(agg.ok());
      EXPECT_EQ((*agg)->op, sorted_variant ? PlanOp::kGroupAggregate
                                           : PlanOp::kHashAggregate);
      return std::move(*agg);
    };
    auto plain = make(nullptr);
    auto res = Run(plain.get());
    ASSERT_EQ(res.row_count, 1) << sorted_variant;
    EXPECT_EQ(res.rows[0][0].int64_value(), 0);
    EXPECT_TRUE(res.rows[0][1].is_null());
    auto kept = make(Eq(Col("cnt"), LitInt(0)));
    EXPECT_EQ(Run(kept.get()).row_count, 1) << sorted_variant;
    auto rejected = make(Gt(Col("cnt"), LitInt(0)));
    EXPECT_EQ(Run(rejected.get()).row_count, 0) << sorted_variant;
  }
}

TEST_F(ExecTest, GroupAggregateOverSortedInput) {
  auto sorted = opt_->MakeSort(Scan("sales", nullptr), {"uid2"}, {false});
  ASSERT_TRUE(sorted.ok());
  std::vector<AggSpec> aggs;
  aggs.push_back(AggCountStar("cnt"));
  auto agg = opt_->MakeAggregate(std::move(*sorted), {"uid2"},
                                 std::move(aggs), nullptr,
                                 /*input_sorted=*/true);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ((*agg)->op, PlanOp::kGroupAggregate);
  auto res = Run(agg->get());
  EXPECT_EQ(res.row_count, 3);  // users 1, 2, 9
}

TEST_F(ExecTest, GroupAggregateMatchesHashAggregate) {
  auto make = [&](bool sorted_variant) -> int64_t {
    std::vector<AggSpec> aggs;
    aggs.push_back(AggSum(Col("amount"), "total"));
    std::unique_ptr<PlanNode> input = Scan("sales", nullptr);
    if (sorted_variant) {
      auto s = opt_->MakeSort(std::move(input), {"uid2"}, {false});
      EXPECT_TRUE(s.ok());
      input = std::move(*s);
    }
    auto agg = opt_->MakeAggregate(std::move(input), {"uid2"},
                                   std::move(aggs), nullptr, sorted_variant);
    EXPECT_TRUE(agg.ok());
    return Run(agg->get()).row_count;
  };
  EXPECT_EQ(make(false), make(true));
}

TEST_F(ExecTest, InstrumentationInvariants) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kInner,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto plan = std::move(*join);
  Run(plan.get());
  std::vector<const PlanNode*> nodes;
  CollectNodes(plan.get(), &nodes);
  for (const PlanNode* n : nodes) {
    EXPECT_TRUE(n->actual.valid);
    EXPECT_GE(n->actual.start_time_ms, 0.0);
    EXPECT_GE(n->actual.run_time_ms, n->actual.start_time_ms);
    EXPECT_GE(n->actual.rows, 0.0);
  }
  // Parent subtree run-time >= child subtree run-time (inclusive timing).
  EXPECT_GE(plan->actual.run_time_ms, plan->child(0)->actual.run_time_ms);
  EXPECT_GE(plan->actual.run_time_ms, plan->child(1)->actual.run_time_ms);
}

TEST_F(ExecTest, MaterializeRescanWithoutChildReexecution) {
  // Re-running a plan with a Materialize inner: inner scan produces rows
  // once; NL join rescans the buffer per outer row.
  auto nl = opt_->MakeJoin(PlanOp::kNestedLoopJoin, JoinType::kInner,
                           Scan("users", nullptr), Scan("sales", nullptr),
                           {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(nl.ok());
  auto plan = std::move(*nl);
  Run(plan.get());
  const PlanNode* mat = plan->child(1);
  ASSERT_EQ(mat->op, PlanOp::kMaterialize);
  const PlanNode* inner_scan = mat->child(0);
  // The scan executed once: its output rows equal table cardinality, not
  // outer_rows x table cardinality.
  EXPECT_EQ(inner_scan->actual.rows, 4);
  // The materialize replayed its buffer for each of the 4 outer rows.
  EXPECT_EQ(mat->actual.rows, 16);
}

TEST_F(ExecTest, ColdVsWarmExecution) {
  auto plan = Scan("sales", nullptr);
  ExecutionOptions cold;
  cold.cold_start = true;
  auto r1 = ExecutePlan(plan.get(), &db_, cold);
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(r1->pool_misses, 0u);
  ExecutionOptions warm;
  warm.cold_start = false;
  auto r2 = ExecutePlan(plan.get(), &db_, warm);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->pool_misses, 0u);
  EXPECT_GT(r2->pool_hits, 0u);
}

TEST_F(ExecTest, ExplainIncludesOperatorsAndActuals) {
  auto plan = Scan("users", Gt(Col("age"), LitInt(20)));
  Run(plan.get());
  const std::string text = obs::ExplainAnalyze(*plan);
  EXPECT_NE(text.find("SeqScan on users"), std::string::npos);
  EXPECT_NE(text.find("act rows=4"), std::string::npos);
  EXPECT_NE(text.find("filter:"), std::string::npos);
}

// Regression: ExecutionResult pool counters cover exactly this execution,
// whatever cold_start says and whatever else touched the shared pool before.
TEST_F(ExecTest, PoolCountersResetPerExecution) {
  auto plan = Scan("sales", nullptr);
  ExecutionOptions cold;
  cold.cold_start = true;
  auto r_cold = ExecutePlan(plan.get(), &db_, cold);
  ASSERT_TRUE(r_cold.ok());
  EXPECT_GT(r_cold->pool_misses, 0u);
  EXPECT_EQ(r_cold->pool_hits, 0u);

  // Warm run immediately after: every page the cold run touched must count
  // as a hit of THIS run only — no carry-over from the cold run's misses.
  ExecutionOptions warm;
  warm.cold_start = false;
  auto r_warm1 = ExecutePlan(plan.get(), &db_, warm);
  ASSERT_TRUE(r_warm1.ok());
  EXPECT_EQ(r_warm1->pool_misses, 0u);
  EXPECT_EQ(r_warm1->pool_hits, r_cold->pool_misses);

  // Repeating the warm run yields identical per-run counters (nothing
  // accumulates across executions).
  auto r_warm2 = ExecutePlan(plan.get(), &db_, warm);
  ASSERT_TRUE(r_warm2.ok());
  EXPECT_EQ(r_warm2->pool_hits, r_warm1->pool_hits);
  EXPECT_EQ(r_warm2->pool_misses, r_warm1->pool_misses);
}

// The result counters are the sum of the per-operator attribution, and only
// scan operators ever charge the pool.
TEST_F(ExecTest, PoolCountersMatchPerOperatorAttribution) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kInner,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto plan = std::move(*join);
  auto res = Run(plan.get());
  std::vector<const PlanNode*> nodes;
  CollectNodes(plan.get(), &nodes);
  uint64_t hits = 0, misses = 0;
  for (const PlanNode* n : nodes) {
    if (n->op != PlanOp::kSeqScan && n->op != PlanOp::kIndexScan) {
      EXPECT_EQ(n->actual.pool_hits, 0u) << PlanOpName(n->op);
      EXPECT_EQ(n->actual.pool_misses, 0u) << PlanOpName(n->op);
    }
    hits += n->actual.pool_hits;
    misses += n->actual.pool_misses;
  }
  EXPECT_EQ(res.pool_hits, hits);
  EXPECT_EQ(res.pool_misses, misses);
  EXPECT_GT(misses, 0u);  // cold start: the scans faulted their pages in
}

TEST_F(ExecTest, TraceConsistentWithLatencyAndActuals) {
  auto join = opt_->MakeJoin(PlanOp::kHashJoin, JoinType::kInner,
                             Scan("users", nullptr), Scan("sales", nullptr),
                             {{"uid", "uid2"}}, nullptr);
  ASSERT_TRUE(join.ok());
  auto plan = std::move(*join);
  auto r = ExecutePlan(plan.get(), &db_, {});
  ASSERT_TRUE(r.ok());
  const obs::Trace trace = obs::BuildTrace(*plan);

  // One span per operator, root first, total == latency.
  EXPECT_EQ(static_cast<int>(trace.spans.size()), plan->NodeCount());
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].parent_id, -1);
  EXPECT_DOUBLE_EQ(trace.total_ms, r->latency_ms);
  EXPECT_DOUBLE_EQ(trace.spans[0].run_ms, r->latency_ms);

  // Self times telescope: sum(self_ms) == root run time (exclusive times
  // partition the inclusive root interval).
  double self_sum = 0.0;
  for (const auto& s : trace.spans) self_sum += s.self_ms;
  EXPECT_NEAR(self_sum, r->latency_ms, 1e-9);

  // Every child interval nests inside its parent's.
  for (const auto& s : trace.spans) {
    if (s.parent_id < 0) continue;
    const auto parent = std::find_if(
        trace.spans.begin(), trace.spans.end(),
        [&](const obs::TraceSpan& p) { return p.node_id == s.parent_id; });
    ASSERT_NE(parent, trace.spans.end());
    EXPECT_GE(s.timeline_start_ms, parent->timeline_start_ms - 1e-9);
    EXPECT_LE(s.timeline_start_ms + s.run_ms,
              parent->timeline_start_ms + parent->run_ms + 1e-9);
  }

  // Pool attribution flows through unchanged.
  EXPECT_EQ(trace.pool_hits, r->pool_hits);
  EXPECT_EQ(trace.pool_misses, r->pool_misses);
}

}  // namespace
}  // namespace qpp

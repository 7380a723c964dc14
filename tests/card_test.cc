#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "card/card_cache.h"
#include "card/feedback.h"
#include "card/learned_estimator.h"
#include "card/signature.h"
#include "catalog/database.h"
#include "common/checksum.h"
#include "exec/driver.h"
#include "golden.h"
#include "optimizer/optimizer.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"
#include "workload/templates.h"

namespace qpp::card {
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

/// Shared tiny TPC-H database (built once for the whole suite).
class CardTest : public ::testing::Test {
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

  /// Compiles one instance of `template_id` with `estimator` attached.
  static Result<QueryPlan> Compile(int template_id, uint64_t seed,
                                   const CardinalityEstimator* estimator) {
    Optimizer opt(db_.get());
    opt.set_cardinality_estimator(estimator);
    Rng rng(seed);
    tpch::TemplateContext ctx{&opt, db_.get(), &rng};
    return tpch::GenerateTemplateQuery(template_id, &ctx);
  }

  /// Warms `loop` on every template at two bindings planned with the
  /// histogram backend, executed and harvested, then publishes a snapshot.
  static void WarmLoop(CardFeedbackLoop* loop) {
    HistogramCardinalityEstimator hist;
    ExecutionOptions opts;
    opts.cold_start = false;
    opts.collect_rows = false;
    for (int tid : tpch::AllTemplates()) {
      for (uint64_t seed : {1000, 1001}) {
        auto plan = Compile(tid, seed, &hist);
        ASSERT_TRUE(plan.ok()) << "template " << tid;
        ASSERT_TRUE(ExecutePlan(plan->root.get(), db_.get(), opts).ok());
        ASSERT_TRUE(loop->HarvestPlan(*plan->root).ok());
      }
    }
    loop->PublishSnapshot();
  }

  static std::unique_ptr<Database> db_;
};

std::unique_ptr<Database> CardTest::db_;

std::array<double, 3> F(double a, double b, double c) { return {a, b, c}; }

/// The cache's current contents as planners read them.
std::shared_ptr<const CardSnapshot> Snap(const LearnedCardinalityCache& c) {
  return c.MakeSnapshot(/*version=*/1);
}

CardinalityQuery Q(uint64_t sig, uint64_t cls, std::array<double, 3> f,
                   double hist = 100.0) {
  CardinalityQuery q;
  q.signature = sig;
  q.class_hash = cls;
  q.features = f;
  q.histogram_rows = hist;
  return q;
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

TEST_F(CardTest, SignatureStableAcrossConstantChanges) {
  HistogramCardinalityEstimator hist;
  // Two instances of the same template differ only in parameter bindings;
  // every node must keep its signature so feedback transfers across them.
  for (int tid : {1, 3, 6}) {
    auto p1 = Compile(tid, /*seed=*/11, &hist);
    auto p2 = Compile(tid, /*seed=*/99, &hist);
    ASSERT_TRUE(p1.ok() && p2.ok()) << "template " << tid;
    ASSERT_NE(p1->parameter_desc, p2->parameter_desc) << "template " << tid;
    const NodeSignature s1 = ComputePlanNodeSignature(*p1->root);
    const NodeSignature s2 = ComputePlanNodeSignature(*p2->root);
    EXPECT_EQ(s1.signature, s2.signature) << "template " << tid;
    EXPECT_EQ(s1.class_hash, s2.class_hash) << "template " << tid;
  }
}

TEST_F(CardTest, SignatureDistinguishesTemplates) {
  // Roots can be Sort/Limit (signature 0); compare the topmost
  // signature-carrying node — different templates ask different questions.
  HistogramCardinalityEstimator hist;
  std::set<uint64_t> tops;
  for (int tid : {1, 3, 5, 6, 10}) {
    auto p = Compile(tid, 7, &hist);
    ASSERT_TRUE(p.ok()) << "template " << tid;
    std::vector<const PlanNode*> nodes;
    CollectNodes(p->root.get(), &nodes);
    uint64_t top = 0;
    for (const PlanNode* n : nodes) {
      if (n->card_signature != 0) { top = n->card_signature; break; }
    }
    ASSERT_NE(top, 0u) << "template " << tid;
    tops.insert(top);
  }
  EXPECT_EQ(tops.size(), 5u);
}

TEST_F(CardTest, OptimizerStampsSignaturesOnlyWithEstimator) {
  auto bare = Compile(3, 7, nullptr);
  ASSERT_TRUE(bare.ok());
  std::vector<const PlanNode*> nodes;
  CollectNodes(bare->root.get(), &nodes);
  for (const PlanNode* n : nodes) {
    EXPECT_EQ(n->card_signature, 0u);
    EXPECT_EQ(n->card_class, 0u);
  }

  HistogramCardinalityEstimator hist;
  auto stamped = Compile(3, 7, &hist);
  ASSERT_TRUE(stamped.ok());
  nodes.clear();
  CollectNodes(stamped->root.get(), &nodes);
  size_t with_sig = 0;
  for (const PlanNode* n : nodes) {
    // Stamped values agree with post-hoc recomputation.
    const NodeSignature s = ComputePlanNodeSignature(*n);
    EXPECT_EQ(n->card_signature, s.signature);
    if (n->card_signature != 0) ++with_sig;
  }
  EXPECT_GT(with_sig, 0u);
}

TEST_F(CardTest, StampSignaturesMatchesOptimizerStamping) {
  // Every template, so the multi-way join blocks (Q2, Q5, Q7-Q9) check the
  // signatures the enumeration stamps against the post-hoc recomputation.
  HistogramCardinalityEstimator hist;
  for (int tid : tpch::AllTemplates()) {
    auto stamped = Compile(tid, 13, &hist);
    auto bare = Compile(tid, 13, nullptr);
    ASSERT_TRUE(stamped.ok() && bare.ok()) << "template " << tid;
    StampSignatures(bare->root.get());
    std::vector<const PlanNode*> a, b;
    CollectNodes(stamped->root.get(), &a);
    CollectNodes(bare->root.get(), &b);
    ASSERT_EQ(a.size(), b.size()) << "template " << tid;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->card_signature, b[i]->card_signature)
          << "template " << tid << " node " << i;
      EXPECT_EQ(a[i]->card_class, b[i]->card_class)
          << "template " << tid << " node " << i;
      for (size_t k = 0; k < 3; ++k) {
        EXPECT_DOUBLE_EQ(a[i]->card_features[k], b[i]->card_features[k])
            << "template " << tid << " node " << i;
      }
    }
  }
}

TEST_F(CardTest, StreamedJoinSignatureMatchesMergedParts) {
  // Join enumeration hashes each split's signature while merging its
  // inputs' descriptor lists with its own; that must equal hashing the
  // join's merged parts, and both the payload they define.
  const auto check = [](const SignatureParts& l, const SignatureParts& r,
                        const std::string& own) {
    SignatureParts merged;
    merged.descriptors = l.descriptors;
    merged.descriptors.insert(merged.descriptors.end(),
                              r.descriptors.begin(), r.descriptors.end());
    merged.descriptors.push_back(own);
    std::sort(merged.descriptors.begin(), merged.descriptors.end());
    merged.relations = l.relations;
    merged.relations.insert(merged.relations.end(), r.relations.begin(),
                            r.relations.end());
    std::sort(merged.relations.begin(), merged.relations.end());

    std::string rel_list;
    for (const std::string& label : merged.relations) {
      rel_list += (rel_list.empty() ? "" : ",") + label;
    }
    std::string payload = "cardsig v1\n" + rel_list + "\n";
    for (const std::string& d : merged.descriptors) payload += d + "\n";
    const NodeSignature want = HashSignatureParts(merged);
    EXPECT_EQ(want.signature, Fnv1a64(payload));
    EXPECT_EQ(want.class_hash, Fnv1a64("cardclass v1\n" + rel_list));

    const std::vector<std::string_view> labels(merged.relations.begin(),
                                               merged.relations.end());
    const std::vector<std::string_view> lv(l.descriptors.begin(),
                                           l.descriptors.end());
    const std::vector<std::string_view> rv(r.descriptors.begin(),
                                           r.descriptors.end());
    const NodeSignature got =
        HashJoinSignature(HashRelations(labels), lv, rv, own);
    EXPECT_EQ(got.signature, want.signature) << own;
    EXPECT_EQ(got.class_hash, want.class_hash) << own;
  };
  const SignatureParts none_l{{}, {"lineitem"}};
  const SignatureParts none_r{{}, {"orders"}};
  check(none_l, none_r, "J:inner::");  // empty descriptor lists
  check(none_l, none_r, "");

  const SignatureParts l{{"J:inner:a=b:", "S:n1:", "S:part:"},
                         {"n1", "part"}};
  const SignatureParts r{{"S:n1:", "S:supplier:(s_x<?)"}, {"supplier"}};
  check(l, r, "A:first");       // sorts before every input's
  check(l, r, "Z:last");        // sorts after every input's
  check(l, r, "S:n1:");         // equals a descriptor both inputs have
  check(l, r, "J:inner:a=b:");  // equals one of the left input's
  check(r, l, "S:part:");       // the larger input on the right
  check(l, none_r, "S:part:");  // one side empty
  check(none_l, r, "S:supplier:(s_x<?)");

  // A relation label that is a prefix of another sorts first.
  const SignatureParts n{{"S:n:"}, {"n"}};
  const SignatureParts n1{{"S:n1:"}, {"n1"}};
  check(n, n1, "J:inner:n.k=n1.k:");
  check(n1, n, "J:inner:n.k=n1.k:");
}

TEST_F(CardTest, NestedLoopWithKeyRepeatingResidualStampsItsOwnSignature) {
  // A residual that repeats a join key reads as a key conjunct inside a
  // nested loop's predicate and drops out of its signature, but stays in a
  // hash join's: that split's nested-loop candidate asks its own question.
  // The one-row inner side makes the nested loop win.
  HistogramCardinalityEstimator hist;
  Optimizer opt(db_.get());
  opt.set_cardinality_estimator(&hist);
  JoinBlock block;
  block.AddRelation("nation");
  block.AddRelation("region");
  block.AddJoin("n_regionkey", "r_regionkey");
  block.AddFilter(Eq(Col("n_regionkey"), Col("r_regionkey")));
  block.AddFilter(Eq(Col("r_name"), LitStr("ASIA")));
  auto plan = opt.OptimizeJoinBlock(std::move(block));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->op, PlanOp::kNestedLoopJoin);
  const NodeSignature s = ComputePlanNodeSignature(**plan);
  EXPECT_EQ((*plan)->card_signature, s.signature);
  EXPECT_EQ((*plan)->card_class, s.class_hash);
}

// ---------------------------------------------------------------------------
// Planning stays bit-identical when the learned backend is off
// ---------------------------------------------------------------------------

TEST_F(CardTest, PlanningBitIdenticalWithoutLearnedBackend) {
  // The acceptance pin: a null estimator and the histogram backend must both
  // reproduce the default planner exactly — same structure, same estimates,
  // same costs on every node.
  HistogramCardinalityEstimator hist;
  for (int tid : tpch::PlanLevelTemplates()) {
    auto base = Compile(tid, 21, nullptr);
    auto off = Compile(tid, 21, &hist);
    ASSERT_TRUE(base.ok() && off.ok()) << "template " << tid;
    EXPECT_EQ(base->root->StructuralKey(), off->root->StructuralKey())
        << "template " << tid;
    std::vector<const PlanNode*> a, b;
    CollectNodes(base->root.get(), &a);
    CollectNodes(off->root.get(), &b);
    ASSERT_EQ(a.size(), b.size()) << "template " << tid;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->est.rows, b[i]->est.rows) << "template " << tid;
      EXPECT_EQ(a[i]->est.total_cost, b[i]->est.total_cost)
          << "template " << tid;
      EXPECT_EQ(a[i]->est.selectivity, b[i]->est.selectivity)
          << "template " << tid;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden plan digests and the consult count
// ---------------------------------------------------------------------------

/// One consult's values as bit patterns: signature, class hash, the three
/// features and the histogram baseline.
using ConsultTuple = std::array<uint64_t, 6>;

/// Counts and records consults and forwards each to `inner`; with no inner
/// estimator it always defers to the histogram baseline.
class CountingEstimator final : public CardinalityEstimator {
 public:
  explicit CountingEstimator(const CardinalityEstimator* inner = nullptr)
      : inner_(inner) {}

  std::optional<double> EstimateRows(
      const CardinalityQuery& q) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      consults_.push_back({q.signature, q.class_hash,
                           std::bit_cast<uint64_t>(q.features[0]),
                           std::bit_cast<uint64_t>(q.features[1]),
                           std::bit_cast<uint64_t>(q.features[2]),
                           std::bit_cast<uint64_t>(q.histogram_rows)});
    }
    return inner_ == nullptr ? std::nullopt : inner_->EstimateRows(q);
  }
  const char* name() const override {
    return inner_ == nullptr ? CardinalityEstimator::name() : inner_->name();
  }

  uint64_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return consults_.size();
  }
  /// FNV-1a over the recorded tuples in sorted order, so the digest ignores
  /// the order of the consults.
  uint64_t Digest() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ConsultTuple> sorted = consults_;
    std::sort(sorted.begin(), sorted.end());
    std::string text;
    for (const ConsultTuple& t : sorted) {
      for (uint64_t v : t) text += ChecksumHex(v) + " ";
      text += "\n";
    }
    return Fnv1a64(text);
  }

 private:
  const CardinalityEstimator* inner_;
  mutable std::mutex mu_;
  mutable std::vector<ConsultTuple> consults_;
};

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Pre-order dump of everything planning decides per node: structure,
/// predicates, card stamping and every estimate, doubles as exact hexfloats.
void DumpPlan(const PlanNode& n, std::string* out) {
  *out += PlanOpName(n.op);
  *out += " label=" + n.label;
  *out += " children=" + std::to_string(n.num_children());
  *out += " cols=" + std::to_string(n.output_schema.num_columns());
  *out += std::string(" join=") + JoinTypeName(n.join_type) + " keys=";
  for (const auto& [l, r] : n.join_keys) {
    *out += std::to_string(l) + ":" + std::to_string(r) + ",";
  }
  *out += " sort=";
  for (int k : n.sort_keys) *out += std::to_string(k) + ",";
  *out += " pred=" + (n.predicate ? n.predicate->ToString() : "-");
  *out += " sig=" + ChecksumHex(n.card_signature);
  *out += " class=" + ChecksumHex(n.card_class);
  *out += std::string(" src=") + n.est_source;
  for (double v : {n.est.startup_cost, n.est.total_cost, n.est.rows,
                   n.est.width, n.est.pages, n.est.selectivity}) {
    *out += " " + HexFloat(v);
  }
  *out += " features=";
  for (double v : n.card_features) *out += HexFloat(v) + ",";
  *out += "\n";
  for (const auto& c : n.children) DumpPlan(*c, out);
}

// Pins every plan the optimizer produces, bit for bit, for all 22 templates
// at two bindings under three estimators: none, the histogram backend (which
// adds stamping), and a learned backend warmed on executed plans (whose
// answers reach join-order and operator choice). The digests are written by
// a build whose planner is known good; a change that moves any estimate by
// one ulp fails here and prints the plan. Regenerate only from such a build:
//   QPP_REGEN_GOLDEN=1 ./card_test --gtest_filter='*GoldenPlanDigests*'
TEST_F(CardTest, GoldenPlanDigests) {
  const std::string path = TestDataDir() + "/golden_plans.txt";
  HistogramCardinalityEstimator hist;
  CardFeedbackLoop loop;
  WarmLoop(&loop);
  if (HasFatalFailure()) return;
  LearnedCardinalityEstimator learned(&loop);

  const std::pair<const char*, const CardinalityEstimator*> estimators[] = {
      {"none", nullptr}, {"hist", &hist}, {"learned", &learned}};
  std::vector<std::string> lines, dumps;
  for (const auto& [name, estimator] : estimators) {
    for (int tid : tpch::AllTemplates()) {
      for (uint64_t seed : {21, 4242}) {
        auto plan = Compile(tid, seed, estimator);
        ASSERT_TRUE(plan.ok()) << name << " template " << tid;
        std::string dump;
        DumpPlan(*plan->root, &dump);
        lines.push_back(std::string(name) + " " + std::to_string(tid) + " " +
                        std::to_string(seed) + " " +
                        ChecksumHex(Fnv1a64(dump)));
        dumps.push_back(std::move(dump));
      }
    }
  }
  CheckGolden(path, "# estimator template seed fnv1a64(plan dump)", lines,
              dumps);
}

// Pins every question planning asks, not only the winners' stamps: each
// losing split's query reaches the estimator too, and under learned answers
// the winners decide which memoized parts later splits hash. Per template
// and binding, under an always-deferring estimator and under the warmed
// learned one, the consult count and a digest of the sorted consult tuples.
// Regenerate only from a build whose planner is known good:
//   QPP_REGEN_GOLDEN=1 ./card_test --gtest_filter='*GoldenConsultDigests*'
TEST_F(CardTest, GoldenConsultDigests) {
  const std::string path = TestDataDir() + "/golden_consults.txt";
  CardFeedbackLoop loop;
  WarmLoop(&loop);
  if (HasFatalFailure()) return;
  LearnedCardinalityEstimator learned(&loop);

  const std::pair<const char*, const CardinalityEstimator*> inners[] = {
      {"hist", nullptr}, {"learned", &learned}};
  std::vector<std::string> lines;
  for (const auto& [name, inner] : inners) {
    for (int tid : tpch::AllTemplates()) {
      for (uint64_t seed : {21, 4242}) {
        CountingEstimator recorder(inner);
        auto plan = Compile(tid, seed, &recorder);
        ASSERT_TRUE(plan.ok()) << name << " template " << tid;
        lines.push_back(std::string(name) + " " + std::to_string(tid) + " " +
                        std::to_string(seed) + " " +
                        std::to_string(recorder.calls()) + " " +
                        ChecksumHex(recorder.Digest()));
      }
    }
  }
  CheckGolden(path,
              "# estimator template seed consults fnv1a64(sorted consults)",
              lines);
}

// Pins how often planning asks the estimator, per template, so a return to
// per-candidate consults fails here deterministically instead of showing up
// as a timing. Join enumeration asks once per split, for all its physical
// candidates.
TEST_F(CardTest, ConsultCountPerTemplate) {
  const uint64_t want[] = {2,   104, 13, 4,  174, 2,  167, 830,
                           174, 31,  26, 5,  5,   5,  7,   7,
                           8,   16,  5,  11, 35,  6};
  const std::vector<int>& templates = tpch::AllTemplates();
  ASSERT_EQ(templates.size(), std::size(want));
  uint64_t total = 0;
  for (size_t i = 0; i < templates.size(); ++i) {
    CountingEstimator counter;
    auto plan = Compile(templates[i], 21, &counter);
    ASSERT_TRUE(plan.ok()) << "template " << templates[i];
    EXPECT_EQ(counter.calls(), want[i]) << "template " << templates[i];
    total += counter.calls();
  }
  EXPECT_EQ(total, 1637u);
}

// ---------------------------------------------------------------------------
// Cache behavior
// ---------------------------------------------------------------------------

TEST_F(CardTest, QErrorBasics) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  // Both sides floored at one row: zero actuals stay finite.
  EXPECT_DOUBLE_EQ(QError(50, 0), 50.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
}

TEST_F(CardTest, CacheExactHitReturnsLearnedRows) {
  LearnedCardinalityCache cache;
  cache.Record(42, 7, F(1, 2, 3), /*est=*/100, /*actual=*/1000);
  auto got = Snap(cache)->EstimateRows(Q(42, 7, F(1, 2, 3)));
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 1000.0);
}

TEST_F(CardTest, CacheKnnBlendsNeighbors) {
  LearnedCardinalityCache cache;
  // Three observations at different feature points; a query at one of them
  // must land near that point's actual, not the global mean.
  cache.Record(42, 7, F(1, 0, 0), 10, 8);
  cache.Record(42, 7, F(5, 0, 0), 10, 900);
  cache.Record(42, 7, F(9, 0, 0), 10, 100000);
  const auto snap = Snap(cache);
  auto lo = snap->EstimateRows(Q(42, 7, F(1, 0, 0)));
  auto hi = snap->EstimateRows(Q(42, 7, F(9, 0, 0)));
  ASSERT_TRUE(lo.has_value() && hi.has_value());
  EXPECT_LT(*lo, *hi);
  EXPECT_LT(QError(*lo, 8), 3.0);
  EXPECT_LT(QError(*hi, 100000), 3.0);

  // Two equidistant neighbors weigh the same: the blend is their mean in
  // log1p space, the geometric mean of (actual + 1).
  CardCacheConfig two;
  two.knn_k = 2;
  LearnedCardinalityCache pair(two);
  pair.Record(42, 7, F(1, 0, 0), 10, 9);
  pair.Record(42, 7, F(5, 0, 0), 10, 999);
  auto mid = Snap(pair)->EstimateRows(Q(42, 7, F(3, 0, 0)));
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ(*mid, 99.0);
}

TEST_F(CardTest, CacheMissReturnsNullopt) {
  LearnedCardinalityCache cache;
  cache.Record(42, 7, F(1, 2, 3), 100, 1000);
  EXPECT_FALSE(Snap(cache)->EstimateRows(Q(43, 8, F(1, 2, 3))).has_value());
}

TEST_F(CardTest, CacheNearMissBorrowsFromSameClass) {
  CardCacheConfig cfg;
  cfg.near_miss_max_distance = 1.0;
  LearnedCardinalityCache cache(cfg);
  cache.Record(42, 7, F(3, 3, 0), 100, 5000);
  const auto snap = Snap(cache);
  // Unknown signature, same relation class, features within the bound.
  auto near = snap->EstimateRows(Q(99, 7, F(3.1, 3.1, 0)));
  ASSERT_TRUE(near.has_value());
  EXPECT_DOUBLE_EQ(*near, 5000.0);
  // Same class but outside the distance bound: fall back to histogram.
  EXPECT_FALSE(snap->EstimateRows(Q(99, 7, F(9, 9, 0))).has_value());

  CardCacheConfig off = cfg;
  off.allow_near_miss = false;
  LearnedCardinalityCache strict(off);
  strict.Record(42, 7, F(3, 3, 0), 100, 5000);
  EXPECT_FALSE(
      Snap(strict)->EstimateRows(Q(99, 7, F(3.1, 3.1, 0))).has_value());
}

TEST_F(CardTest, CacheEvictsLeastRecentlyRecordedSignature) {
  CardCacheConfig cfg;
  cfg.max_signatures = 4;
  LearnedCardinalityCache cache(cfg);
  for (uint64_t sig = 1; sig <= 10; ++sig) {
    cache.Record(sig, sig, F(1, 1, 0), 10, 20);
    EXPECT_LE(cache.size(), cfg.max_signatures);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // Oldest signatures evicted, newest retained.
  auto snap = Snap(cache);
  EXPECT_FALSE(snap->EstimateRows(Q(1, 1, F(1, 1, 0))).has_value());
  EXPECT_TRUE(snap->EstimateRows(Q(10, 10, F(1, 1, 0))).has_value());
  // Re-recording refreshes recency: 7 survives the next eviction, 8 goes.
  cache.Record(7, 7, F(1, 1, 0), 10, 20);
  cache.Record(11, 11, F(1, 1, 0), 10, 20);
  snap = Snap(cache);
  EXPECT_TRUE(snap->EstimateRows(Q(7, 7, F(1, 1, 0))).has_value());
  EXPECT_FALSE(snap->EstimateRows(Q(8, 8, F(1, 1, 0))).has_value());
}

TEST_F(CardTest, CacheBoundsObservationsPerSignature) {
  CardCacheConfig cfg;
  cfg.max_observations_per_signature = 8;
  LearnedCardinalityCache cache(cfg);
  for (int i = 0; i < 100; ++i) {
    cache.Record(42, 7, F(static_cast<double>(i % 5), 0, 0), 10, 20 + i);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.observation_count(), 8u);
}

TEST_F(CardTest, WindowedQErrorTracksRecentEstimates) {
  CardCacheConfig cfg;
  cfg.max_qerror_window = 4;
  LearnedCardinalityCache cache(cfg);
  EXPECT_DOUBLE_EQ(cache.WindowedQError(), 1.0);
  for (int i = 0; i < 16; ++i) cache.Record(1, 1, F(1, 1, 0), 10, 100);
  // Every recorded sample has q-error 10; the bounded window mean is 10.
  EXPECT_DOUBLE_EQ(cache.WindowedQError(), 10.0);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST_F(CardTest, PersistenceRoundTripIsByteIdentical) {
  LearnedCardinalityCache cache;
  // Awkward doubles exercise the precision-17 round-trip.
  cache.Record(0xdeadbeefcafe, 0x1234, F(0.1, 1.0 / 3.0, 2.5e-13), 123.456,
               98765.4321);
  cache.Record(7, 9, F(5.5, 0, 0), 10, 1e9);
  cache.Record(7, 9, F(5.6, 0, 0), 11, 2e9);

  const std::string p1 = ::testing::TempDir() + "/card_cache_a.bundle";
  const std::string p2 = ::testing::TempDir() + "/card_cache_b.bundle";
  ASSERT_TRUE(cache.SaveToFile(p1).ok());
  auto loaded = LearnedCardinalityCache::LoadFromFile(p1, cache.config());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE((*loaded)->SaveToFile(p2).ok());
  EXPECT_EQ(SlurpFile(p1), SlurpFile(p2));

  // Loaded cache answers identically.
  auto a = Snap(cache)->EstimateRows(Q(7, 9, F(5.5, 0, 0)));
  auto b = Snap(**loaded)->EstimateRows(Q(7, 9, F(5.5, 0, 0)));
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_DOUBLE_EQ(*a, *b);
}

// The committed bundle was written by an earlier build, so a change to the
// framing or payload format that still round-trips against itself fails here.
TEST_F(CardTest, GoldenBundleLoadSaveIsByteIdentical) {
  const std::string golden = TestDataDir() + "/golden_card_cache.qppc";
  auto loaded = LearnedCardinalityCache::LoadFromFile(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 3u);
  const std::string resaved = ::testing::TempDir() + "/card_cache_golden.qppc";
  ASSERT_TRUE((*loaded)->SaveToFile(resaved).ok());
  EXPECT_EQ(SlurpFile(resaved), SlurpFile(golden));
}

TEST_F(CardTest, LoadRejectsCorruptBundle) {
  LearnedCardinalityCache cache;
  cache.Record(1, 1, F(1, 1, 0), 10, 20);
  const std::string path = ::testing::TempDir() + "/card_cache_corrupt.bundle";
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  std::string bytes = SlurpFile(path);
  bytes[bytes.size() - 2] ^= 0x20;  // flip a payload byte
  { std::ofstream out(path, std::ios::binary); out << bytes; }
  EXPECT_FALSE(LearnedCardinalityCache::LoadFromFile(path).ok());
  EXPECT_FALSE(LearnedCardinalityCache::LoadFromFile(
                   ::testing::TempDir() + "/card_cache_missing.bundle")
                   .ok());
}

// ---------------------------------------------------------------------------
// Feedback loop: harvesting, snapshots, concurrency
// ---------------------------------------------------------------------------

TEST_F(CardTest, HarvestPlanLearnsActualCardinalities) {
  HistogramCardinalityEstimator hist;
  auto plan = Compile(6, 17, &hist);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(plan->root.get(), db_.get(), {}).ok());

  CardFeedbackLoop loop;
  ASSERT_TRUE(loop.HarvestPlan(*plan->root).ok());
  EXPECT_EQ(loop.harvested_queries(), 1u);
  EXPECT_GT(loop.harvested_nodes(), 0u);

  // The learned estimate for the root now equals its observed cardinality.
  const PlanNode& root = *plan->root;
  ASSERT_NE(root.card_signature, 0u);
  ASSERT_TRUE(root.actual.valid);
  loop.PublishSnapshot();
  auto learned = loop.CurrentSnapshot()->EstimateRows(
      Q(root.card_signature, root.card_class, root.card_features,
        root.est.rows));
  ASSERT_TRUE(learned.has_value());
  EXPECT_LE(QError(*learned, std::max(1.0, root.actual.rows)), 1.5);
}

TEST_F(CardTest, HarvestSkipsOperatorsBelowLimit) {
  // Limit truncates its input stream, so the pipelined child's actual row
  // count under-counts; harvesting it would poison the cache.
  HistogramCardinalityEstimator hist;
  Optimizer opt(db_.get());
  opt.set_cardinality_estimator(&hist);
  auto scan = opt.MakeScan("lineitem", "", nullptr);
  ASSERT_TRUE(scan.ok());
  const uint64_t scan_sig = (*scan)->card_signature;
  ASSERT_NE(scan_sig, 0u);
  std::unique_ptr<PlanNode> limit = opt.MakeLimit(std::move(*scan), 5);
  PlanNode* root = limit.get();
  AssignNodeIds(root);
  ASSERT_TRUE(ExecutePlan(root, db_.get(), {}).ok());

  CardFeedbackLoop loop;
  ASSERT_TRUE(loop.HarvestPlan(*root).ok());
  loop.PublishSnapshot();
  // The truncated scan must not have been recorded.
  EXPECT_FALSE(loop.CurrentSnapshot()
                   ->EstimateRows(Q(scan_sig, root->children[0]->card_class,
                                    root->children[0]->card_features))
                   .has_value());
}

TEST_F(CardTest, SnapshotPublishAndLockFreeLookup) {
  CardFeedbackConfig cfg;
  cfg.publish_interval = 0;  // publish on every harvest
  CardFeedbackLoop loop(cfg);
  EXPECT_EQ(loop.CurrentSnapshot(), nullptr);

  HistogramCardinalityEstimator hist;
  auto plan = Compile(1, 3, &hist);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(plan->root.get(), db_.get(), {}).ok());
  ASSERT_TRUE(loop.HarvestPlan(*plan->root).ok());

  auto snap = loop.CurrentSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GE(snap->version(), 1u);
  EXPECT_GT(snap->size(), 0u);

  // The published snapshot answers for the harvested root.
  const PlanNode& root = *plan->root;
  auto q = Q(root.card_signature, root.card_class, root.card_features,
             root.est.rows);
  auto from_snap = snap->EstimateRows(q);
  ASSERT_TRUE(from_snap.has_value());

  // A held snapshot stays valid after later publishes, and is freed once
  // its last holder lets go.
  loop.cache()->Record(12345, 1, F(1, 1, 0), 10, 20);
  const uint64_t v2 = loop.PublishSnapshot();
  EXPECT_GT(v2, snap->version());
  EXPECT_DOUBLE_EQ(*snap->EstimateRows(q), *from_snap);
  const std::weak_ptr<const CardSnapshot> old = snap;
  snap.reset();
  EXPECT_TRUE(old.expired());
}

TEST_F(CardTest, ConcurrentHarvestAndLookup) {
  // TSan target: writers harvest and publish while readers estimate through
  // the published snapshots concurrently.
  CardFeedbackConfig cfg;
  cfg.publish_interval = 1;
  CardFeedbackLoop loop(cfg);

  HistogramCardinalityEstimator hist;
  auto plan = Compile(6, 29, &hist);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(plan->root.get(), db_.get(), {}).ok());
  const PlanNode& root = *plan->root;
  const auto query = Q(root.card_signature, root.card_class,
                       root.card_features, root.est.rows);
  // Publish the plan's signatures before any reader starts, so every
  // lookup below can hit however the threads are scheduled.
  ASSERT_TRUE(loop.HarvestPlan(*plan->root).ok());

  const int threads = TestThreads();
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    if (t % 2 == 0) {
      workers.emplace_back([&loop, &plan] {
        for (int i = 0; i < kIters; ++i) {
          ASSERT_TRUE(loop.HarvestPlan(*plan->root).ok());
        }
      });
    } else {
      workers.emplace_back([&loop, &query] {
        LearnedCardinalityEstimator est(&loop);
        size_t hits = 0;
        for (int i = 0; i < kIters; ++i) {
          if (est.EstimateRows(query).has_value()) ++hits;
        }
        EXPECT_GT(hits, 0u);
      });
    }
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(loop.harvested_queries(),
            static_cast<uint64_t>((threads + 1) / 2) * kIters + 1);
  EXPECT_GT(loop.snapshots_published(), 0u);
}

// ---------------------------------------------------------------------------
// End to end: warmed learned backend beats the histogram baseline
// ---------------------------------------------------------------------------

TEST_F(CardTest, WarmedLearnedBackendReducesRootQError) {
  // Warm the cache on one set of parameter bindings...
  HistogramCardinalityEstimator hist;
  CardFeedbackLoop loop;
  WorkloadConfig wc;
  wc.templates = {6};
  wc.queries_per_template = 6;
  wc.seed = 5;
  wc.cold_start = false;
  wc.cardinality_estimator = &hist;
  auto log = RunWorkload(db_.get(), wc);
  ASSERT_TRUE(log.ok());
  for (const QueryRecord& r : log->queries) {
    ASSERT_TRUE(loop.HarvestRecord(r).ok());
  }
  ASSERT_GT(loop.harvested_nodes(), 0u);
  loop.PublishSnapshot();

  // ...then plan fresh bindings with both backends and compare every
  // signature-carrying node's estimate against what execution actually
  // produced (the root of template 6 is a one-row aggregate, so the
  // interesting error lives in the selection below it).
  LearnedCardinalityEstimator learned(&loop);
  const auto plan_qerror = [](const PlanNode& root) {
    std::vector<const PlanNode*> nodes;
    CollectNodes(&root, &nodes);
    double total = 0.0;
    for (const PlanNode* n : nodes) {
      if (n->card_signature == 0 || !n->actual.valid) continue;
      total += QError(n->est.rows, std::max(1.0, n->actual.rows));
    }
    return total;
  };
  double hist_err = 0.0, learned_err = 0.0;
  for (uint64_t seed : {101, 202, 303}) {
    auto ph = Compile(6, seed, &hist);
    auto pl = Compile(6, seed, &learned);
    ASSERT_TRUE(ph.ok() && pl.ok());
    ASSERT_TRUE(ExecutePlan(ph->root.get(), db_.get(), {}).ok());
    ASSERT_TRUE(ExecutePlan(pl->root.get(), db_.get(), {}).ok());
    hist_err += plan_qerror(*ph->root);
    learned_err += plan_qerror(*pl->root);
  }
  // Template 6's multi-predicate selection is exactly where independence
  // assumptions go wrong; the warmed cache must do strictly better.
  EXPECT_LT(learned_err, hist_err);
}

}  // namespace
}  // namespace qpp::card

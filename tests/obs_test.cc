// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, fixed-bucket histograms and their quantile estimates),
// trace-span assembly from executed plans, the Chrome trace_event JSON
// export (schema-validated with a minimal JSON parser), and the EXPLAIN
// ANALYZE renderer (golden file).
//
// Part of the TSan tier-1 pass: the concurrency tests below hammer the
// lock-free update paths from several threads.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expr/expr.h"
#include "golden.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"

namespace qpp {
namespace {

using obs::Counter;
using obs::ExponentialBuckets;
using obs::Gauge;
using obs::Histogram;
using obs::LinearBuckets;
using obs::MetricsRegistry;

// ------------------------------- metrics -----------------------------------

TEST(MetricsTest, CounterIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_DOUBLE_EQ(g.Value(), 3.25);
  g.Set(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), -1.5);
}

TEST(MetricsTest, BucketGenerators) {
  const std::vector<double> exp = ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const std::vector<double> lin = LinearBuckets(0.0, 10.0, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[2], 20.0);
}

TEST(MetricsTest, HistogramEmptyQuantileIsZero) {
  Histogram h(LinearBuckets(10.0, 10.0, 10));
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(MetricsTest, HistogramOneSampleReportsItsBucketBound) {
  Histogram h(LinearBuckets(10.0, 10.0, 10));  // 10, 20, ..., 100
  h.Observe(14.0);                             // bucket (10, 20]
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Sum(), 14.0);
  // All quantiles of a single observation interpolate to the covering
  // bucket's upper bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
}

TEST(MetricsTest, HistogramQuantileInterpolates) {
  Histogram h(LinearBuckets(10.0, 10.0, 10));
  // 100 samples uniformly into bucket (0, 10] -> p50 interpolates halfway.
  for (int i = 0; i < 100; ++i) h.Observe(5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(MetricsTest, HistogramQuantileAcrossBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket <= 1
  h.Observe(1.5);  // bucket <= 2
  h.Observe(3.0);  // bucket <= 4
  h.Observe(3.5);  // bucket <= 4
  // Rank ceil(0.5*4)=2 -> second bucket, its only sample -> upper bound 2.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  // Rank 1 -> first bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 1.0);
  // Rank 4 -> second of two samples in (2, 4].
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
}

TEST(MetricsTest, HistogramOverflowClampsToLargestBound) {
  Histogram h({1.0, 2.0});
  h.Observe(1000.0);
  h.Observe(2000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);  // 2 finite + overflow
  EXPECT_EQ(counts[2], 2u);
}

TEST(MetricsTest, HistogramReset) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryFindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.counter");
  Counter* c2 = reg.GetCounter("a.counter");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);
  Gauge* g = reg.GetGauge("a.gauge");
  ASSERT_NE(g, nullptr);
  Histogram* h1 = reg.GetHistogram("a.hist", {1.0, 2.0});
  ASSERT_NE(h1, nullptr);
  // First registration's bounds win; the second call's bounds are ignored.
  Histogram* h2 = reg.GetHistogram("a.hist", {99.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h1->bounds()[1], 2.0);
}

TEST(MetricsTest, RegistryKindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x", {1.0}), nullptr);
  ASSERT_NE(reg.GetGauge("y"), nullptr);
  EXPECT_EQ(reg.GetCounter("y"), nullptr);
}

TEST(MetricsTest, RegistryDumpJsonAndReset) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Increment(7);
  reg.GetGauge("g.one")->Set(0.5);
  Histogram* h = reg.GetHistogram("h.one", {1.0, 2.0});
  h->Observe(1.5);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
  reg.ResetAllValues();
  EXPECT_EQ(reg.GetCounter("c.one")->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
}

// Lock-free update paths under real concurrency (tier-1 TSan target).
TEST(MetricsTest, ConcurrentUpdatesAreRaceFreeAndLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Registration from every thread too: the mutex-guarded map must
      // hand every thread the same objects.
      Counter* c = reg.GetCounter("conc.counter");
      Gauge* g = reg.GetGauge("conc.gauge");
      Histogram* h = reg.GetHistogram("conc.hist", {1.0, 4.0, 16.0});
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Set(static_cast<double>(t));
        h->Observe(static_cast<double>(i % 20));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("conc.counter")->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  Histogram* h = reg.GetHistogram("conc.hist", {});
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // The CAS-loop sum loses nothing: sum of i%20 over kPerThread iterations.
  double expected_per_thread = 0.0;
  for (int i = 0; i < kPerThread; ++i) expected_per_thread += i % 20;
  EXPECT_DOUBLE_EQ(h->Sum(), kThreads * expected_per_thread);
  const double g_val = reg.GetGauge("conc.gauge")->Value();
  EXPECT_GE(g_val, 0.0);
  EXPECT_LT(g_val, kThreads);
}

// ---------------------------- minimal JSON parser ---------------------------
//
// Enough of RFC 8259 to schema-check our own exports. Throws nothing:
// returns nullptr on malformed input.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<std::unique_ptr<JsonValue>> arr;
  std::map<std::string, std::unique_ptr<JsonValue>> obj;

  const JsonValue* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : it->second.get();
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  std::unique_ptr<JsonValue> Parse() {
    auto v = ParseValue();
    SkipWs();
    if (v == nullptr || pos_ != s_.size()) return nullptr;
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::unique_ptr<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return nullptr;
    const char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  std::unique_ptr<JsonValue> ParseObject() {
    if (!Consume('{')) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return v;
    while (true) {
      auto key = ParseString();
      if (key == nullptr || !Consume(':')) return nullptr;
      auto val = ParseValue();
      if (val == nullptr) return nullptr;
      v->obj[key->str_v] = std::move(val);
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return nullptr;
    }
  }

  std::unique_ptr<JsonValue> ParseArray() {
    if (!Consume('[')) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return v;
    while (true) {
      auto elem = ParseValue();
      if (elem == nullptr) return nullptr;
      v->arr.push_back(std::move(elem));
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return nullptr;
    }
  }

  std::unique_ptr<JsonValue> ParseString() {
    if (!Consume('"')) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->kind = JsonValue::Kind::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return nullptr;
        c = s_[pos_++];
        // Our exports only ever escape quote and backslash.
        if (c != '"' && c != '\\') return nullptr;
      }
      v->str_v.push_back(c);
    }
    if (pos_ >= s_.size()) return nullptr;
    ++pos_;  // closing quote
    return v;
  }

  std::unique_ptr<JsonValue> ParseBool() {
    auto v = std::make_unique<JsonValue>();
    v->kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v->bool_v = true;
      pos_ += 4;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return v;
    }
    return nullptr;
  }

  std::unique_ptr<JsonValue> ParseNull() {
    if (s_.compare(pos_, 4, "null") != 0) return nullptr;
    pos_ += 4;
    return std::make_unique<JsonValue>();
  }

  std::unique_ptr<JsonValue> ParseNumber() {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) return nullptr;
    pos_ += static_cast<size_t>(end - start);
    auto v = std::make_unique<JsonValue>();
    v->kind = JsonValue::Kind::kNumber;
    v->num_v = d;
    return v;
  }

  const std::string s_;
  size_t pos_ = 0;
};

TEST(JsonParserTest, ParsesItsOwnDialect) {
  JsonParser ok(R"({"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}})");
  auto v = ok.Parse();
  ASSERT_NE(v, nullptr);
  ASSERT_NE(v->Get("a"), nullptr);
  ASSERT_EQ(v->Get("a")->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(v->Get("a")->arr[1]->num_v, 2.5);
  EXPECT_EQ(v->Get("a")->arr[2]->str_v, "x\"y");
  EXPECT_TRUE(v->Get("b")->Get("c")->bool_v);
  std::string bad = R"({"a": )";
  EXPECT_EQ(JsonParser(bad).Parse(), nullptr);
}

// ------------------------------- traces -------------------------------------

/// Hand-built two-scan join plan with fixed estimates and actuals, so every
/// derived field is deterministic.
std::unique_ptr<PlanNode> MakeExecutedPlan() {
  auto scan_users = std::make_unique<PlanNode>(PlanOp::kSeqScan);
  scan_users->label = "users";
  scan_users->est = {0.0, 1.0, 4.0, 24.0, 1.0, 1.0};
  scan_users->actual.valid = true;
  scan_users->actual.start_time_ms = 0.25;
  scan_users->actual.run_time_ms = 2.0;
  scan_users->actual.rows = 4.0;
  scan_users->actual.pages = 1.0;
  scan_users->actual.pool_hits = 0;
  scan_users->actual.pool_misses = 1;
  scan_users->predicate = Gt(Col("age"), LitInt(25));

  auto scan_sales = std::make_unique<PlanNode>(PlanOp::kSeqScan);
  scan_sales->label = "sales";
  scan_sales->est = {0.0, 2.0, 4.0, 32.0, 2.0, 1.0};
  scan_sales->actual.valid = true;
  scan_sales->actual.start_time_ms = 0.5;
  scan_sales->actual.run_time_ms = 3.0;
  scan_sales->actual.rows = 4.0;
  scan_sales->actual.pages = 2.0;
  scan_sales->actual.pool_hits = 1;
  scan_sales->actual.pool_misses = 1;

  auto join = std::make_unique<PlanNode>(PlanOp::kHashJoin);
  join->join_type = JoinType::kInner;
  join->est = {1.5, 7.25, 3.0, 56.0, 0.0, 0.4};
  join->actual.valid = true;
  join->actual.start_time_ms = 4.0;
  join->actual.run_time_ms = 6.0;
  join->actual.rows = 3.0;
  join->children.push_back(std::move(scan_users));
  join->children.push_back(std::move(scan_sales));
  AssignNodeIds(join.get());
  return join;
}

TEST(TraceTest, SpansDeriveFromActuals) {
  auto plan = MakeExecutedPlan();
  const obs::Trace trace = obs::BuildTrace(*plan);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.total_ms, 6.0);
  EXPECT_EQ(trace.pool_hits, 1u);
  EXPECT_EQ(trace.pool_misses, 2u);

  const obs::TraceSpan& root = trace.spans[0];
  EXPECT_EQ(root.node_id, 0);
  EXPECT_EQ(root.parent_id, -1);
  EXPECT_EQ(root.op, "HashJoin");
  EXPECT_DOUBLE_EQ(root.run_ms, 6.0);
  EXPECT_DOUBLE_EQ(root.self_ms, 1.0);  // 6 - (2 + 3)
  EXPECT_DOUBLE_EQ(root.timeline_start_ms, 0.0);

  const obs::TraceSpan& users = trace.spans[1];
  EXPECT_EQ(users.label, "users");
  EXPECT_EQ(users.parent_id, 0);
  EXPECT_EQ(users.depth, 1);
  EXPECT_DOUBLE_EQ(users.self_ms, 2.0);  // leaf: self == run
  EXPECT_DOUBLE_EQ(users.timeline_start_ms, 0.0);

  // Second child laid out after the first one's run-time.
  const obs::TraceSpan& sales = trace.spans[2];
  EXPECT_EQ(sales.label, "sales");
  EXPECT_DOUBLE_EQ(sales.timeline_start_ms, 2.0);
  EXPECT_DOUBLE_EQ(sales.run_ms, 3.0);

  // Exclusive times partition the root interval.
  double self_sum = 0.0;
  for (const auto& s : trace.spans) self_sum += s.self_ms;
  EXPECT_DOUBLE_EQ(self_sum, trace.total_ms);
}

TEST(TraceTest, NeverExecutedNodesGetZeroSpans) {
  auto plan = MakeExecutedPlan();
  plan->children[1]->actual = PlanActuals{};  // sales never ran
  const obs::Trace trace = obs::BuildTrace(*plan);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.spans[2].run_ms, 0.0);
  EXPECT_EQ(trace.spans[2].pool_misses, 0u);
  // The parent keeps its own timing; only the dead child contributes zero.
  EXPECT_DOUBLE_EQ(trace.spans[0].self_ms, 4.0);  // 6 - 2 - 0
}

TEST(TraceTest, ChromeTraceJsonMatchesSchema) {
  auto plan = MakeExecutedPlan();
  const obs::Trace trace = obs::BuildTrace(*plan);
  const std::string json = trace.ToChromeTraceJson();

  auto root = JsonParser(json).Parse();
  ASSERT_NE(root, nullptr) << json;
  ASSERT_EQ(root->kind, JsonValue::Kind::kObject);
  const JsonValue* unit = root->Get("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str_v, "ms");

  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->arr.size(), trace.spans.size());

  for (size_t i = 0; i < events->arr.size(); ++i) {
    const JsonValue& e = *events->arr[i];
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject) << "event " << i;
    // Deterministic fields, checked exactly.
    EXPECT_EQ(e.Get("ph")->str_v, "X");
    EXPECT_EQ(e.Get("cat")->str_v, "operator");
    EXPECT_DOUBLE_EQ(e.Get("pid")->num_v, 1.0);
    EXPECT_DOUBLE_EQ(e.Get("tid")->num_v, 1.0);
    const JsonValue* args = e.Get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->Get("node_id")->num_v,
                     static_cast<double>(trace.spans[i].node_id));
    EXPECT_DOUBLE_EQ(args->Get("parent_id")->num_v,
                     static_cast<double>(trace.spans[i].parent_id));
    EXPECT_DOUBLE_EQ(args->Get("actual_rows")->num_v,
                     trace.spans[i].actual_rows);
    EXPECT_GE(args->Get("pool_hits")->num_v, 0.0);
    EXPECT_GE(args->Get("pool_misses")->num_v, 0.0);
    // ts/dur are microseconds of the ms fields.
    EXPECT_DOUBLE_EQ(e.Get("ts")->num_v,
                     trace.spans[i].timeline_start_ms * 1e3);
    EXPECT_DOUBLE_EQ(e.Get("dur")->num_v, trace.spans[i].run_ms * 1e3);
  }
  // Span names include the relation label.
  EXPECT_EQ(events->arr[1]->Get("name")->str_v, "SeqScan on users");
}

// --------------------------- EXPLAIN ANALYZE --------------------------------

TEST(ExplainAnalyzeTest, GoldenTree) {
  auto plan = MakeExecutedPlan();
  plan->children[1]->actual = PlanActuals{};  // exercise "(never executed)"
  obs::ExplainAnalyzeOptions opts;
  opts.include_timing = false;  // timings are machine-dependent; golden isn't
  std::istringstream rendered(obs::ExplainAnalyze(*plan, opts));
  std::vector<std::string> lines;
  for (std::string line; std::getline(rendered, line);) lines.push_back(line);
  // Regenerate only when the new format is intentional:
  //   QPP_REGEN_GOLDEN=1 ./obs_test --gtest_filter='*GoldenTree*'
  CheckGolden(TestDataDir() + "/explain_analyze.golden", "", lines);
}

TEST(ExplainAnalyzeTest, TimingAndPoolTogglesWork) {
  auto plan = MakeExecutedPlan();
  const std::string full = obs::ExplainAnalyze(*plan);
  EXPECT_NE(full.find("run="), std::string::npos);
  EXPECT_NE(full.find("pool hit="), std::string::npos);
  EXPECT_NE(full.find("est rows="), std::string::npos);
  EXPECT_NE(full.find("filter:"), std::string::npos);

  obs::ExplainAnalyzeOptions quiet;
  quiet.include_timing = false;
  quiet.include_pool = false;
  const std::string bare = obs::ExplainAnalyze(*plan, quiet);
  EXPECT_EQ(bare.find("run="), std::string::npos);
  EXPECT_EQ(bare.find("pool hit="), std::string::npos);
  EXPECT_NE(bare.find("act rows="), std::string::npos);
}

}  // namespace
}  // namespace qpp

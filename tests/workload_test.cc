#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>

#include "catalog/database.h"
#include "common/checksum.h"
#include "exec/driver.h"
#include "golden.h"
#include "tpch/dbgen.h"
#include "workload/query_log.h"
#include "workload/runner.h"
#include "workload/templates.h"

namespace qpp {
namespace {

/// One tiny shared database for all workload tests.
class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.003;
    db_ = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    ASSERT_TRUE(tables.ok());
    ASSERT_TRUE(db_->AdoptTables(std::move(*tables)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
    opt_ = std::make_unique<Optimizer>(db_.get());
  }
  static void TearDownTestSuite() {
    opt_.reset();
    db_.reset();
  }

  static std::unique_ptr<Database> db_;
  static std::unique_ptr<Optimizer> opt_;
};

std::unique_ptr<Database> WorkloadTest::db_;
std::unique_ptr<Optimizer> WorkloadTest::opt_;

TEST_F(WorkloadTest, TemplateSetsAreConsistent) {
  EXPECT_EQ(tpch::AllTemplates().size(), 22u);
  EXPECT_EQ(tpch::PlanLevelTemplates().size(), 18u);
  EXPECT_EQ(tpch::OperatorLevelTemplates().size(), 14u);
  EXPECT_EQ(tpch::DynamicWorkloadTemplates().size(), 12u);
  // Operator-level templates are a subset of the plan-level set; dynamic is
  // a subset of operator-level.
  std::set<int> plan(tpch::PlanLevelTemplates().begin(),
                     tpch::PlanLevelTemplates().end());
  std::set<int> op(tpch::OperatorLevelTemplates().begin(),
                   tpch::OperatorLevelTemplates().end());
  for (int t : op) EXPECT_TRUE(plan.count(t)) << t;
  for (int t : tpch::DynamicWorkloadTemplates()) EXPECT_TRUE(op.count(t)) << t;
  // Paper's exclusions hold: 2, 11, 15, 22 not in the operator-level set.
  for (int excluded : {2, 11, 15, 22}) EXPECT_FALSE(op.count(excluded));
}

class AllTemplatesTest : public WorkloadTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(AllTemplatesTest, GeneratesAndExecutes) {
  const int tid = GetParam();
  Rng rng(static_cast<uint64_t>(100 + tid));
  tpch::TemplateContext ctx{opt_.get(), db_.get(), &rng};
  auto plan = tpch::GenerateTemplateQuery(tid, &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->template_id, tid);
  EXPECT_GE(plan->NodeCount(), 2);
  EXPECT_FALSE(plan->parameter_desc.empty());
  auto res = ExecutePlan(plan->root.get(), db_.get(), {});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->latency_ms, 0.0);
  // Every operator instrumented.
  std::vector<const PlanNode*> nodes;
  CollectNodes(const_cast<const PlanNode*>(plan->root.get()), &nodes);
  for (const PlanNode* n : nodes) {
    EXPECT_TRUE(n->actual.valid);
    EXPECT_GE(n->actual.run_time_ms, n->actual.start_time_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, AllTemplatesTest,
                         ::testing::ValuesIn(tpch::AllTemplates()));

/// Appends one line per node, pre-order, with every actual the clock does
/// not decide.
void DumpActuals(const PlanNode& n, std::string* out) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%s valid=%d rows=%.17g pages=%.17g hits=%llu misses=%llu\n",
                PlanOpName(n.op), n.actual.valid ? 1 : 0, n.actual.rows,
                n.actual.pages,
                static_cast<unsigned long long>(n.actual.pool_hits),
                static_cast<unsigned long long>(n.actual.pool_misses));
  out->append(buf);
  for (const auto& c : n.children) DumpActuals(*c, out);
}

/// Every node ran, 0 <= start <= run, and run-times are inclusive: the
/// children's run-times sum to at most their parent's.
void ExpectTimingInvariants(const PlanNode& n) {
  EXPECT_TRUE(n.actual.valid) << PlanOpName(n.op);
  EXPECT_LE(0.0, n.actual.start_time_ms) << PlanOpName(n.op);
  EXPECT_LE(n.actual.start_time_ms, n.actual.run_time_ms) << PlanOpName(n.op);
  double children_ms = 0.0;
  for (const auto& c : n.children) {
    children_ms += c->actual.run_time_ms;
    ExpectTimingInvariants(*c);
  }
  EXPECT_LE(children_ms, n.actual.run_time_ms + 1e-9) << PlanOpName(n.op);
}

/// Renders the result rows in order, each value's ToString followed by a
/// unit separator and each row ended by a newline.
std::string RenderRows(const std::vector<Tuple>& rows) {
  std::string out;
  for (const Tuple& row : rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '\x1f';
    }
    out += '\n';
  }
  return out;
}

// Pins what the executor records on every operator of every template at
// two bindings, cold: the result row count, a digest of the result rows in
// order (HashAggregate emits groups in hash-table order, so this pins
// HashTuple values too), and per node its rows, pages and pool hits and
// misses (timings are measured, so only their invariants are checked). The
// digests are written by a build whose executor is known good. Regenerate
// only from such a build:
//   QPP_REGEN_GOLDEN=1 ./workload_test --gtest_filter='*GoldenActualDigests*'
TEST_F(WorkloadTest, GoldenActualDigests) {
  std::vector<std::string> lines, dumps;
  for (int tid : tpch::AllTemplates()) {
    for (uint64_t seed : {21, 4242}) {
      Optimizer opt(db_.get());
      Rng rng(seed);
      tpch::TemplateContext ctx{&opt, db_.get(), &rng};
      auto plan = tpch::GenerateTemplateQuery(tid, &ctx);
      ASSERT_TRUE(plan.ok()) << "template " << tid;
      auto res = ExecutePlan(plan->root.get(), db_.get(), {});
      ASSERT_TRUE(res.ok()) << "template " << tid;
      ExpectTimingInvariants(*plan->root);
      std::string dump;
      DumpActuals(*plan->root, &dump);
      const std::string rows = RenderRows(res->rows);
      lines.push_back(std::to_string(tid) + " " + std::to_string(seed) + " " +
                      std::to_string(res->row_count) + " " +
                      ChecksumHex(Fnv1a64(dump)) + " " +
                      ChecksumHex(Fnv1a64(rows)));
      dumps.push_back(dump + rows);
    }
  }
  CheckGolden(TestDataDir() + "/golden_actuals.txt",
              "# template seed result_rows fnv1a64(actuals dump) "
              "fnv1a64(result rows)",
              lines, dumps);
}

TEST_F(WorkloadTest, DifferentSeedsDifferentParameters) {
  Rng r1(1), r2(2);
  tpch::TemplateContext c1{opt_.get(), db_.get(), &r1};
  tpch::TemplateContext c2{opt_.get(), db_.get(), &r2};
  auto p1 = tpch::GenerateTemplateQuery(5, &c1);
  auto p2 = tpch::GenerateTemplateQuery(5, &c2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1->parameter_desc, p2->parameter_desc);
}

TEST_F(WorkloadTest, SameSeedSameParameters) {
  Rng r1(7), r2(7);
  tpch::TemplateContext c1{opt_.get(), db_.get(), &r1};
  tpch::TemplateContext c2{opt_.get(), db_.get(), &r2};
  auto p1 = tpch::GenerateTemplateQuery(3, &c1);
  auto p2 = tpch::GenerateTemplateQuery(3, &c2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->parameter_desc, p2->parameter_desc);
  EXPECT_EQ(p1->root->StructuralKey(), p2->root->StructuralKey());
}

TEST_F(WorkloadTest, UnknownTemplateRejected) {
  Rng rng(1);
  tpch::TemplateContext ctx{opt_.get(), db_.get(), &rng};
  EXPECT_FALSE(tpch::GenerateTemplateQuery(0, &ctx).ok());
  EXPECT_FALSE(tpch::GenerateTemplateQuery(23, &ctx).ok());
  EXPECT_FALSE(tpch::GenerateTemplateQuery(3, nullptr).ok());
}

TEST_F(WorkloadTest, RunWorkloadProducesLog) {
  WorkloadConfig wc;
  wc.templates = {1, 6};
  wc.queries_per_template = 3;
  auto log = RunWorkload(db_.get(), wc);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->queries.size(), 6u);
  for (const auto& q : log->queries) {
    EXPECT_GT(q.latency_ms, 0.0);
    EXPECT_FALSE(q.ops.empty());
    EXPECT_EQ(q.ops[0].parent_id, -1);
    EXPECT_TRUE(q.template_id == 1 || q.template_id == 6);
  }
}

TEST_F(WorkloadTest, RunWorkloadRejectsEmptyTemplates) {
  WorkloadConfig wc;
  EXPECT_FALSE(RunWorkload(db_.get(), wc).ok());
}

TEST_F(WorkloadTest, RecordFromPlanFlattensTree) {
  Rng rng(5);
  tpch::TemplateContext ctx{opt_.get(), db_.get(), &rng};
  auto plan = tpch::GenerateTemplateQuery(3, &ctx);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ExecutePlan(plan->root.get(), db_.get(), {}).ok());
  const QueryRecord rec = RecordFromPlan(*plan, 12.5);
  EXPECT_EQ(static_cast<int>(rec.ops.size()), plan->NodeCount());
  EXPECT_DOUBLE_EQ(rec.latency_ms, 12.5);
  // Tree links resolve and subtree sizes telescope.
  EXPECT_EQ(rec.ops[0].subtree_size, plan->NodeCount());
  for (const auto& op : rec.ops) {
    if (op.left_child >= 0) {
      EXPECT_GE(rec.IndexOfNode(op.left_child), 0);
    }
    if (op.right_child >= 0) {
      EXPECT_GE(rec.IndexOfNode(op.right_child), 0);
    }
    EXPECT_EQ(op.structural_key.empty(), false);
  }
  // Structural key of the record root matches the plan's.
  EXPECT_EQ(rec.ops[0].structural_key, plan->root->StructuralKey());
}

TEST_F(WorkloadTest, QueryLogFileRoundTrip) {
  WorkloadConfig wc;
  wc.templates = {6, 14};
  wc.queries_per_template = 2;
  auto log = RunWorkload(db_.get(), wc);
  ASSERT_TRUE(log.ok());
  const std::string path = ::testing::TempDir() + "/qpp_log_roundtrip.txt";
  ASSERT_TRUE(log->SaveToFile(path).ok());
  auto restored = QueryLog::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->queries.size(), log->queries.size());
  for (size_t i = 0; i < log->queries.size(); ++i) {
    const QueryRecord& a = log->queries[i];
    const QueryRecord& b = restored->queries[i];
    EXPECT_EQ(a.template_id, b.template_id);
    EXPECT_NEAR(a.latency_ms, b.latency_ms, 1e-6);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t j = 0; j < a.ops.size(); ++j) {
      EXPECT_EQ(a.ops[j].op, b.ops[j].op);
      EXPECT_EQ(a.ops[j].structural_key, b.ops[j].structural_key);
      EXPECT_EQ(a.ops[j].subtree_size, b.ops[j].subtree_size);
      EXPECT_NEAR(a.ops[j].est.total_cost, b.ops[j].est.total_cost, 1e-6);
      EXPECT_NEAR(a.ops[j].actual.run_time_ms, b.ops[j].actual.run_time_ms,
                  1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST_F(WorkloadTest, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_FALSE(QueryLog::LoadFromFile("/nonexistent/x.log").ok());
  const std::string path = ::testing::TempDir() + "/qpp_bad_log.txt";
  {
    std::ofstream out(path);
    out << "O|bad|line|before|query\n";
  }
  EXPECT_FALSE(QueryLog::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(WorkloadTest, LoadErrorsNameFileAndLine) {
  const std::string path = ::testing::TempDir() + "/qpp_badline_log.txt";
  {
    std::ofstream out(path);
    out << "# qpp query log v2\n"
        << "Q|6|12.5|ok params\n"
        << "O|0|-1|-1|-1|0|0|t|1|2|3|4|5|0.5|1|0.1|12.5|10|5\n"
        << "O|not_an_int|-1|-1|-1|0|0|t|1|2|3|4|5|0.5|1|1|1|1|1\n";
  }
  auto log = QueryLog::LoadFromFile(path);
  ASSERT_FALSE(log.ok());
  // The diagnostic pinpoints the byte the operator typed wrong: file, line 4.
  EXPECT_NE(log.status().message().find(path + ":4"), std::string::npos)
      << log.status().ToString();
  std::remove(path.c_str());
}

TEST_F(WorkloadTest, FieldsWithDelimitersSurviveRoundTrip) {
  // param_desc and relation used to be lossily sanitized ('|' and newlines
  // replaced by ';'); the escaped format must round-trip them exactly.
  QueryRecord q;
  q.template_id = 3;
  q.latency_ms = 7.5;
  q.param_desc = "a|b\nc\\d\re|";
  OperatorRecord op;
  op.op = PlanOp::kSeqScan;
  op.relation = "weird|rel\nname\\";
  op.est.rows = 10.0;
  op.actual.valid = true;
  op.actual.run_time_ms = 7.5;
  q.ops.push_back(op);
  RecomputeStructuralKeys(&q);

  QueryLog log;
  log.queries.push_back(q);
  const std::string path = ::testing::TempDir() + "/qpp_escape_log.txt";
  ASSERT_TRUE(log.SaveToFile(path).ok());
  auto restored = QueryLog::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->queries.size(), 1u);
  EXPECT_EQ(restored->queries[0].param_desc, q.param_desc);
  EXPECT_EQ(restored->queries[0].ops[0].relation, op.relation);
  std::remove(path.c_str());
}

/// A record exercising every binary-codec field, with doubles chosen so any
/// text round trip would perturb them (bit patterns, not approximations).
QueryRecord BinaryProbeRecord() {
  QueryRecord q;
  q.template_id = 17;
  q.latency_ms = 0.1 + 0.2;  // 0.30000000000000004, not 0.3
  q.param_desc = "p|1\nbinary \x01 bytes survive";
  OperatorRecord scan;
  scan.node_id = 1;
  scan.parent_id = 0;
  scan.op = PlanOp::kSeqScan;
  scan.relation = "lineitem";
  scan.est.startup_cost = -0.0;  // sign bit must survive
  scan.est.total_cost = std::nextafter(1.0, 2.0);
  scan.est.rows = 1e300;
  scan.est.selectivity = 5e-324;  // smallest denormal
  scan.actual.valid = true;
  scan.actual.run_time_ms = 1.0 / 3.0;
  scan.card_signature = 0x0123456789abcdefull;
  scan.card_class = 42;
  scan.card_features = {0.25, std::nextafter(0.5, 1.0), 7.0};
  OperatorRecord root;
  root.node_id = 0;
  root.parent_id = -1;
  root.left_child = 1;
  root.op = PlanOp::kHashAggregate;
  root.actual.valid = true;
  root.actual.run_time_ms = 0.5;
  q.ops = {root, scan};
  RecomputeStructuralKeys(&q);
  return q;
}

TEST_F(WorkloadTest, BinaryRecordRoundTripIsBitIdentical) {
  const QueryRecord q = BinaryProbeRecord();
  const std::string bytes = SerializeQueryRecordBinary(q);
  ASSERT_TRUE(IsBinaryQueryRecord(bytes));
  auto back = ParseQueryRecordBinary(bytes, "<test>");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Re-serializing the parsed record must reproduce the input byte for
  // byte — IEEE-754 bit patterns travel verbatim, unlike the text format.
  EXPECT_EQ(SerializeQueryRecordBinary(*back), bytes);
  EXPECT_EQ(back->template_id, q.template_id);
  EXPECT_EQ(back->latency_ms, q.latency_ms);
  EXPECT_EQ(back->param_desc, q.param_desc);
  ASSERT_EQ(back->ops.size(), q.ops.size());
  EXPECT_TRUE(std::signbit(back->ops[1].est.startup_cost));
  EXPECT_EQ(back->ops[1].est.total_cost, std::nextafter(1.0, 2.0));
  EXPECT_EQ(back->ops[1].est.selectivity, 5e-324);
  EXPECT_EQ(back->ops[1].card_signature, q.ops[1].card_signature);
  EXPECT_EQ(back->ops[1].card_features, q.ops[1].card_features);
  // Structural keys are recomputed, not shipped.
  EXPECT_EQ(back->ops[0].structural_key, q.ops[0].structural_key);
  // Auto dispatch: binary payloads route by marker, text payloads still
  // parse through the same entry point.
  EXPECT_TRUE(ParseQueryRecordAuto(bytes, "<test>").ok());
  EXPECT_TRUE(ParseQueryRecordAuto(SerializeQueryRecord(q), "<test>").ok());
}

TEST_F(WorkloadTest, BinaryRecordRejectsAdversarialBytes) {
  const std::string good = SerializeQueryRecordBinary(BinaryProbeRecord());

  // Every strict prefix is a truncation error, never a crash or success.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(
        ParseQueryRecordBinary(std::string_view(good).substr(0, cut), "<test>")
            .ok())
        << "prefix of " << cut << " bytes parsed";
  }
  auto trailing = ParseQueryRecordBinary(good + "x", "<test>");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);

  std::string bad = good;
  bad[0] = '\x02';  // wrong marker
  EXPECT_FALSE(ParseQueryRecordBinary(bad, "<test>").ok());
  bad = good;
  bad[1] = '\x09';  // unknown version
  auto ver = ParseQueryRecordBinary(bad, "<test>");
  ASSERT_FALSE(ver.ok());
  EXPECT_NE(ver.status().message().find("version"), std::string::npos);
  bad = good;
  bad[2] = '\x01';  // reserved bits
  EXPECT_FALSE(ParseQueryRecordBinary(bad, "<test>").ok());

  // Out-of-range enum and flag bytes in the first operator. Layout: 4-byte
  // header, i32 template, f64 latency, (u32+len) param_desc, u32 op count,
  // then 4 i32 ids before the op/join/valid/card bytes.
  const QueryRecord probe = BinaryProbeRecord();
  const size_t first_op = 4 + 4 + 8 + 4 + probe.param_desc.size() + 4;
  bad = good;
  bad[first_op + 16] = '\x7f';  // op enum
  auto op = ParseQueryRecordBinary(bad, "<test>");
  ASSERT_FALSE(op.ok());
  EXPECT_NE(op.status().message().find("out of range"), std::string::npos);
  bad = good;
  bad[first_op + 18] = '\x02';  // actual-valid flag
  EXPECT_FALSE(ParseQueryRecordBinary(bad, "<test>").ok());

  // A lying operator count cannot force a huge allocation: it fails as a
  // truncated operator once the bytes run out.
  bad = good;
  bad[first_op - 4] = '\xff';
  bad[first_op - 3] = '\xff';
  bad[first_op - 2] = '\xff';
  bad[first_op - 1] = '\x7f';
  auto lying = ParseQueryRecordBinary(bad, "<test>");
  ASSERT_FALSE(lying.ok());
  EXPECT_NE(lying.status().message().find("truncated operator"),
            std::string::npos);

  // Zero operators is malformed, same as the text format.
  std::string empty_ops(good.substr(0, first_op - 4));
  empty_ops += std::string(4, '\0');
  EXPECT_FALSE(ParseQueryRecordBinary(empty_ops, "<test>").ok());
}

/// The committed label logs: the fig benches' cache and e2ebench's corpus,
/// found from this file's path (tests/ sits at the repository root).
std::vector<std::string> CommittedLogs() {
  const std::string testdata = TestDataDir();
  const std::string root =
      testdata.substr(0, testdata.rfind("/tests/testdata"));
  std::vector<std::string> paths;
  for (const char* dir : {"/qpp_cache", "/e2ebench/corpus"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root + dir)) {
      if (entry.path().extension() == ".log") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Everything after the first line (the version header).
std::string_view AfterHeader(std::string_view text) {
  return text.substr(text.find('\n') + 1);
}

TEST(QueryLogTest, CommittedLogsReserializeByteIdentically) {
  const std::vector<std::string> paths = CommittedLogs();
  ASSERT_EQ(paths.size(), 6u);
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    auto log = QueryLog::LoadFromFile(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_FALSE(log->queries.empty()) << path;
    std::ostringstream out;
    log->WriteTo(out);
    // The logs carry an older version header; every record line must come
    // back byte for byte. (EXPECT_TRUE: a diff of megabytes helps nobody.)
    EXPECT_EQ(bytes.rfind("# qpp query log v", 0), 0u) << path;
    EXPECT_TRUE(AfterHeader(out.str()) == AfterHeader(bytes)) << path;
  }
}

TEST(QueryLogTest, TextRecordsMatchTheBinaryCodec) {
  size_t records = 0;
  for (const std::string& path : CommittedLogs()) {
    auto log = QueryLog::LoadFromFile(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (const QueryRecord& q : log->queries) {
      auto text = ParseQueryRecord(SerializeQueryRecord(q), "<text>");
      auto binary =
          ParseQueryRecordBinary(SerializeQueryRecordBinary(q), "<binary>");
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      ASSERT_TRUE(binary.ok()) << binary.status().ToString();
      // The binary codec writes every field it carries as its bit pattern,
      // so equal encodings mean bit-identical records.
      ASSERT_EQ(SerializeQueryRecordBinary(*text),
                SerializeQueryRecordBinary(*binary))
          << path << " record " << records;
      ASSERT_EQ(text->ops.size(), binary->ops.size());
      for (size_t i = 0; i < text->ops.size(); ++i) {
        EXPECT_EQ(text->ops[i].structural_key, binary->ops[i].structural_key);
        EXPECT_EQ(text->ops[i].subtree_size, binary->ops[i].subtree_size);
      }
      ++records;
    }
  }
  EXPECT_GT(records, 1000u);
}

TEST(QueryLogTest, LineEndingsBlankAndCommentLinesParseAsBefore) {
  const std::string q = "Q|6|12.5|p";
  const std::string o = "O|0|-1|-1|-1|0|0|t|1|2|3|4|5|0.5|1|0.1|12.5|10|5";
  // A file is read through a stream, a wire payload in place; both must
  // split lines and report errors alike.
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return QueryLog::LoadFromStream(in, "<log>");
  };
  const auto wire = [](const std::string& text) {
    return ParseQueryRecord(text, "<wire>");
  };

  // The last line needs no newline.
  auto last = load(q + "\n" + o);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(last->queries.size(), 1u);
  EXPECT_EQ(last->queries[0].ops.size(), 1u);
  EXPECT_TRUE(wire(q + "\n" + o).ok());

  // Blank and '#' lines are skipped, but they count for line numbers.
  const std::string padded = "\n# c\n" + q + "\n\n#x|y\n" + o + "\n\n";
  EXPECT_TRUE(load(padded).ok());
  EXPECT_TRUE(wire(padded).ok());
  EXPECT_EQ(load("\n# c\n\nQ|6|x|p\n").status().message(),
            "<log>:4: bad latency 'x'");
  EXPECT_EQ(wire("\n# c\n\nQ|6|x|p\n").status().message(),
            "<wire>:4: bad latency 'x'");
  EXPECT_EQ(load("#\n" + q + "\n").status().message(),
            "<log>:2: query 0 has no operators");
  EXPECT_EQ(wire("\n\n").status().message(),
            "<wire>: expected exactly one query record, got 0");

  // CRLF endings are not stripped: the '\r' stays in the last field. A Q
  // line keeps it in param_desc, and an O line's last number fails.
  auto crlf_q = load(q + "\r\n" + o + "\n");
  ASSERT_TRUE(crlf_q.ok()) << crlf_q.status().ToString();
  EXPECT_EQ(crlf_q->queries[0].param_desc, "p\r");
  EXPECT_EQ(load("# qpp query log v2\r\n" + q + "\r\n" + o + "\r\n")
                .status()
                .message(),
            "<log>:3: unparseable number in O line");
  EXPECT_EQ(wire(q + "\r\n" + o + "\r\n").status().message(),
            "<wire>:2: unparseable number in O line");
  // A line holding only '\r' is not blank.
  EXPECT_EQ(load(q + "\n\r\n" + o).status().message(),
            "<log>:2: unknown record tag '\r'");
  EXPECT_EQ(wire(q + "\n\r\n" + o).status().message(),
            "<wire>:2: unknown record tag '\r'");
}

TEST_F(WorkloadTest, AppendRecordToFileBuildsLoadableLog) {
  QueryLog log;
  for (int i = 0; i < 3; ++i) {
    QueryRecord q;
    q.template_id = i;
    q.latency_ms = 1.0 + i;
    q.param_desc = "p" + std::to_string(i);
    OperatorRecord op;
    op.op = PlanOp::kSeqScan;
    op.relation = "t";
    op.actual.valid = true;
    op.actual.run_time_ms = q.latency_ms;
    q.ops.push_back(op);
    RecomputeStructuralKeys(&q);
    log.queries.push_back(q);
  }
  const std::string path = ::testing::TempDir() + "/qpp_append_log.txt";
  std::remove(path.c_str());
  for (const QueryRecord& q : log.queries) {
    ASSERT_TRUE(AppendRecordToFile(q, path).ok());
  }
  auto restored = QueryLog::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->queries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(restored->queries[i].template_id, static_cast<int>(i));
    EXPECT_EQ(restored->queries[i].param_desc, "p" + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST_F(WorkloadTest, SharedSubplansAcrossTemplates) {
  // The Figure 4 premise: queries of different templates share sub-plan
  // structures (e.g. the orders/lineitem join core).
  WorkloadConfig wc;
  wc.templates = {1, 3, 4, 5, 10, 12};
  wc.queries_per_template = 2;
  auto log = RunWorkload(db_.get(), wc);
  ASSERT_TRUE(log.ok());
  std::map<std::string, std::set<int>> key_templates;
  for (const auto& q : log->queries) {
    for (const auto& op : q.ops) {
      if (op.subtree_size >= 2) key_templates[op.structural_key].insert(q.template_id);
    }
  }
  bool shared = false;
  for (const auto& [key, templates] : key_templates) {
    shared = shared || templates.size() > 1;
  }
  EXPECT_TRUE(shared);
}

TEST_F(WorkloadTest, TimeoutDropsSlowQueries) {
  WorkloadConfig wc;
  wc.templates = {1};
  wc.queries_per_template = 2;
  wc.timeout_ms = 0.0001;  // everything is slower than this
  auto log = RunWorkload(db_.get(), wc);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->queries.empty());
}

}  // namespace
}  // namespace qpp

#include "qpp/features.h"

#include <algorithm>

#include "common/bundle.h"

namespace qpp {
namespace {

double RowsOf(const OperatorRecord& op, FeatureMode mode) {
  return mode == FeatureMode::kActual && op.actual.valid ? op.actual.rows
                                                         : op.est.rows;
}

double PagesOf(const OperatorRecord& op, FeatureMode mode) {
  return mode == FeatureMode::kActual && op.actual.valid ? op.actual.pages
                                                         : op.est.pages;
}

/// Estimated input tuple count of an operator: children's outputs for
/// internal nodes; for scans the (exactly known) base-table cardinality,
/// recovered from rows/selectivity.
double InputRowsOf(const QueryRecord& q, const OperatorRecord& op,
                   FeatureMode mode) {
  if (op.left_child < 0) {
    const double sel = std::max(1e-9, op.est.selectivity);
    return op.est.rows / sel;
  }
  double in = 0.0;
  for (int child_id : {op.left_child, op.right_child}) {
    if (child_id < 0) continue;
    const int ci = q.IndexOfNode(child_id);
    if (ci >= 0) in += RowsOf(q.ops[static_cast<size_t>(ci)], mode);
  }
  return in;
}

}  // namespace

Result<FeatureMode> ParseFeatureMode(const std::string& s) {
  QPP_ASSIGN_OR_RETURN(const uint64_t mode, ParseU64(s, "feature mode"));
  if (mode > static_cast<uint64_t>(FeatureMode::kActual)) {
    return Status::InvalidArgument("bad feature mode " + s);
  }
  return static_cast<FeatureMode>(mode);
}

const std::vector<std::string>& PlanFeatureNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {"p_tot_cost", "p_st_cost", "p_rows",
                                  "p_width",    "op_count",  "row_count",
                                  "byte_count"};
    for (int op = 0; op < kNumPlanOps; ++op) {
      const char* base = PlanOpName(static_cast<PlanOp>(op));
      n.push_back(std::string(base) + "_cnt");
      n.push_back(std::string(base) + "_rows");
    }
    return n;
  }();
  return names;
}

std::vector<int> SubtreeOpIndices(const QueryRecord& query, int op_index) {
  std::vector<int> out;
  std::vector<int> stack = {op_index};
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    if (idx < 0 || static_cast<size_t>(idx) >= query.ops.size()) continue;
    out.push_back(idx);
    const OperatorRecord& op = query.ops[static_cast<size_t>(idx)];
    for (int child_id : {op.left_child, op.right_child}) {
      if (child_id >= 0) stack.push_back(query.IndexOfNode(child_id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> ExtractPlanFeatures(const QueryRecord& query, int op_index,
                                        FeatureMode mode) {
  std::vector<double> f(PlanFeatureNames().size(), 0.0);
  const std::vector<int> subtree = SubtreeOpIndices(query, op_index);
  const OperatorRecord& root = query.ops[static_cast<size_t>(op_index)];
  f[0] = root.est.total_cost;
  f[1] = root.est.startup_cost;
  f[2] = RowsOf(root, mode);
  f[3] = root.est.width;
  f[4] = static_cast<double>(subtree.size());
  for (int idx : subtree) {
    const OperatorRecord& op = query.ops[static_cast<size_t>(idx)];
    const double out_rows = RowsOf(op, mode);
    const double in_rows = InputRowsOf(query, op, mode);
    f[5] += out_rows + in_rows;
    f[6] += out_rows * op.est.width + in_rows * op.est.width;
    const int op_id = static_cast<int>(op.op);
    f[static_cast<size_t>(7 + 2 * op_id)] += 1.0;
    f[static_cast<size_t>(8 + 2 * op_id)] += out_rows;
  }
  return f;
}

std::vector<double> ExtractOperatorStaticFeatures(const QueryRecord& query,
                                                  int op_index,
                                                  FeatureMode mode) {
  const OperatorRecord& op = query.ops[static_cast<size_t>(op_index)];
  std::vector<double> f(kNumOperatorStaticFeatures, 0.0);
  f[0] = PagesOf(op, mode);
  f[1] = RowsOf(op, mode);
  double nt1 = 0.0, nt2 = 0.0;
  if (op.left_child >= 0) {
    const int ci = query.IndexOfNode(op.left_child);
    if (ci >= 0) nt1 = RowsOf(query.ops[static_cast<size_t>(ci)], mode);
  }
  if (op.right_child >= 0) {
    const int ci = query.IndexOfNode(op.right_child);
    if (ci >= 0) nt2 = RowsOf(query.ops[static_cast<size_t>(ci)], mode);
  }
  f[2] = nt1;
  f[3] = nt2;
  if (mode == FeatureMode::kActual && op.actual.valid) {
    const double in = std::max(1.0, InputRowsOf(query, op, mode));
    f[4] = std::min(1.0, op.actual.rows / in);
  } else {
    f[4] = op.est.selectivity;
  }
  return f;
}

}  // namespace qpp

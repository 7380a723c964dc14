#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"

namespace qpp {

/// \brief One operator of an executed query, with the optimizer estimates
/// (static features) and observed actuals (targets) the QPP models consume.
///
/// Records are flat (tree encoded via parent/child ids) so a whole training
/// workload can be serialized, reloaded and modeled without retaining plan
/// objects — this is "the log" the paper's instrumented PostgreSQL writes.
struct OperatorRecord {
  int node_id = -1;
  int parent_id = -1;
  int left_child = -1;   // node id, -1 when absent
  int right_child = -1;  // node id, -1 when absent
  PlanOp op = PlanOp::kSeqScan;
  JoinType join_type = JoinType::kInner;
  /// Scanned relation (alias) for scan operators, empty otherwise.
  std::string relation;
  /// Canonical structural key of the sub-plan rooted here (see
  /// PlanNode::StructuralKey); recomputed after deserialization.
  std::string structural_key;
  /// Number of operators in the sub-plan rooted here.
  int subtree_size = 1;
  /// Learned-cardinality identity (see card/signature.h); 0 when the plan
  /// was compiled without a cardinality estimator attached. Serialized as
  /// an optional "C" line per operator so legacy logs round-trip
  /// byte-identically.
  uint64_t card_signature = 0;
  uint64_t card_class = 0;
  std::array<double, 3> card_features{};
  /// Normalized predicate bounds of a base-table scan (see
  /// plan/plan.h::PredicateBounds); an empty `bounds.table` means none were
  /// stamped. Serialized as an optional "B" line per operator, mirroring
  /// the "C" convention, so legacy logs round-trip byte-identically. The
  /// KDE feedback loop harvests these server-side (kde/feedback.h).
  PredicateBounds bounds;
  PlanEstimates est;
  PlanActuals actual;
};

/// \brief One executed query: template identity, end-to-end latency, and
/// its operators in pre-order (ops[0] is the root).
struct QueryRecord {
  int template_id = 0;
  std::string param_desc;
  double latency_ms = 0.0;
  std::vector<OperatorRecord> ops;

  const OperatorRecord& root() const { return ops.front(); }

  /// Index in `ops` of the record with the given node id (-1 if absent).
  int IndexOfNode(int node_id) const;
};

/// \brief A collection of executed queries — the training/testing corpus.
struct QueryLog {
  std::vector<QueryRecord> queries;

  /// Persists to a '|'-separated text file.
  Status SaveToFile(const std::string& path) const;

  /// Writes the file format (header plus Q/O lines) to a stream.
  void WriteTo(std::ostream& out) const;

  /// Reloads a log written by SaveToFile (structural keys recomputed).
  /// Malformed input is reported as "<path>:<line>: <what>".
  static Result<QueryLog> LoadFromFile(const std::string& path);

  /// Parses the file format from a stream; `source_name` labels parse
  /// errors (a file path, or e.g. "<model bundle>" for embedded logs).
  static Result<QueryLog> LoadFromStream(std::istream& in,
                                         const std::string& source_name);
};

/// Serializes one executed query in the log's Q/O line format (no header)
/// at full double precision. This is the request-payload encoding of the
/// network wire protocol (src/net/frame.h) — one record, self-contained.
std::string SerializeQueryRecord(const QueryRecord& record);

/// Parses a single query serialized by SerializeQueryRecord. Fails unless
/// `text` holds exactly one well-formed query (structural keys recomputed);
/// `source_name` labels parse errors (e.g. "<wire>"). Takes a view and
/// parses in place (no copy of the payload text), so network decode paths
/// can hand it a window into their receive buffer.
Result<QueryRecord> ParseQueryRecord(std::string_view text,
                                     const std::string& source_name);

/// \brief Compact binary encoding of one QueryRecord — the request payload
/// that batched network clients send (src/net/frame.h).
///
/// Field-for-field equivalent to the text format (the same fields
/// round-trip; structural keys are recomputed on parse, and the executor's
/// pool counters and predicate-bounds "B" lines are not carried — the
/// binary path serves latency prediction, which never consumes bounds;
/// KDE feedback over the wire requires the text encoding). All
/// scalars are little-endian; doubles travel as their IEEE-754 bit
/// patterns, so records round-trip bit-identically with no
/// format/precision step. ~50x cheaper to encode+parse than the text
/// format, which is what lets the batched wire path keep up with the
/// in-process predictor.
///
/// Layout: u8 marker 0x01 (text records start with 'Q', so one byte
/// distinguishes the formats), u8 format version (1), u16 reserved,
/// i32 template_id, f64 latency_ms, param_desc (u32 len + bytes),
/// u32 op count, then per operator: i32 node/parent/left/right ids,
/// u8 op, u8 join_type, u8 actual-valid flag, u8 has-card flag,
/// relation (u32 len + bytes), 6 est doubles, 4 actual doubles, and —
/// only when has-card — u64 card_signature/card_class + 3 feature doubles.
inline constexpr char kBinaryRecordMarker = '\x01';
inline constexpr uint8_t kBinaryRecordVersion = 1;
std::string SerializeQueryRecordBinary(const QueryRecord& record);

/// Parses SerializeQueryRecordBinary output (strictly: trailing bytes,
/// truncation, out-of-range enums and oversized counts are errors;
/// structural keys recomputed). `source_name` labels parse errors.
Result<QueryRecord> ParseQueryRecordBinary(std::string_view bytes,
                                           const std::string& source_name);

/// True when `bytes` starts with the binary-record marker; dispatch helper
/// for payloads that may carry either encoding on one connection.
inline bool IsBinaryQueryRecord(std::string_view bytes) {
  return !bytes.empty() && bytes.front() == kBinaryRecordMarker;
}

/// Parses either encoding, sniffed via IsBinaryQueryRecord.
Result<QueryRecord> ParseQueryRecordAuto(std::string_view bytes,
                                         const std::string& source_name);

/// Appends one executed query to a log file in SaveToFile format, creating
/// the file (with header) when absent. This is the serving-side durable
/// feedback channel: each process appends records as queries finish, and a
/// retrainer can LoadFromFile the accumulated log later.
Status AppendRecordToFile(const QueryRecord& record, const std::string& path);

/// Flattens an executed plan into a QueryRecord (pre-order, structural keys
/// and subtree sizes computed).
QueryRecord RecordFromPlan(const QueryPlan& plan, double latency_ms);

/// Recomputes structural_key and subtree_size for every operator from the
/// tree links (used after deserialization).
void RecomputeStructuralKeys(QueryRecord* record);

}  // namespace qpp

#include "workload/query_log.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.h"

namespace qpp {
namespace {

void FlattenPlan(const PlanNode& node, int parent_id,
                 std::vector<OperatorRecord>* out) {
  OperatorRecord rec;
  rec.node_id = node.node_id;
  rec.parent_id = parent_id;
  rec.left_child = node.num_children() > 0 ? node.child(0)->node_id : -1;
  rec.right_child = node.num_children() > 1 ? node.child(1)->node_id : -1;
  rec.op = node.op;
  rec.join_type = node.join_type;
  rec.relation = node.label;
  rec.structural_key = node.StructuralKey();
  rec.subtree_size = node.NodeCount();
  rec.card_signature = node.card_signature;
  rec.card_class = node.card_class;
  rec.card_features = node.card_features;
  if (node.card_bounds != nullptr) rec.bounds = *node.card_bounds;
  rec.est = node.est;
  rec.actual = node.actual;
  out->push_back(std::move(rec));
  for (const auto& c : node.children) {
    FlattenPlan(*c, node.node_id, out);
  }
}

std::string KeyOf(const QueryRecord& q, int node_index,
                  std::vector<std::string>* memo, std::vector<int>* sizes) {
  if (!(*memo)[static_cast<size_t>(node_index)].empty()) {
    return (*memo)[static_cast<size_t>(node_index)];
  }
  const OperatorRecord& rec = q.ops[static_cast<size_t>(node_index)];
  std::string key = PlanOpName(rec.op);
  int size = 1;
  if (rec.op == PlanOp::kSeqScan || rec.op == PlanOp::kIndexScan) {
    key += ":" + rec.relation;
  }
  if ((rec.op == PlanOp::kHashJoin || rec.op == PlanOp::kMergeJoin ||
       rec.op == PlanOp::kNestedLoopJoin) &&
      rec.join_type != JoinType::kInner) {
    key += std::string("[") + JoinTypeName(rec.join_type) + "]";
  }
  std::string children;
  for (int child_id : {rec.left_child, rec.right_child}) {
    if (child_id < 0) continue;
    const int ci = q.IndexOfNode(child_id);
    if (ci < 0) continue;
    if (!children.empty()) children += ",";
    children += KeyOf(q, ci, memo, sizes);
    size += (*sizes)[static_cast<size_t>(ci)];
  }
  if (!children.empty()) key += "(" + children + ")";
  (*memo)[static_cast<size_t>(node_index)] = key;
  (*sizes)[static_cast<size_t>(node_index)] = size;
  return key;
}

/// Reversible escaping for free-text fields embedded in the '|'-separated
/// format: '\' -> "\\", '|' -> "\p", newline -> "\n", CR -> "\r". Strings
/// without backslashes (all logs written before escaping existed) unescape
/// to themselves, so old files keep loading unchanged.
std::string EscapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '|': out += "\\p"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 'p': out += '|'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:  // unknown escape: keep verbatim (forward compatibility)
        out += '\\';
        out += s[i];
    }
  }
  return out;
}

/// Splits on '|' into views of `line`, keeping empty fields (including a
/// trailing one), unlike std::getline-in-a-loop which silently drops a
/// trailing empty field and made records with an empty final column
/// unreadable.
void SplitFields(std::string_view line, std::vector<std::string_view>* out) {
  out->clear();
  while (true) {
    const size_t bar = line.find('|');
    out->push_back(line.substr(0, bar));
    if (bar == std::string_view::npos) return;
    line.remove_prefix(bar + 1);
  }
}

/// Whole-field integer or double: from_chars must consume every byte.
template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void WriteRecord(std::ostream& out, const QueryRecord& q) {
  out << "Q|" << q.template_id << "|" << q.latency_ms << "|"
      << EscapeField(q.param_desc) << "\n";
  for (const auto& o : q.ops) {
    out << "O|" << o.node_id << "|" << o.parent_id << "|" << o.left_child
        << "|" << o.right_child << "|" << static_cast<int>(o.op) << "|"
        << static_cast<int>(o.join_type) << "|" << EscapeField(o.relation)
        << "|" << o.est.startup_cost << "|" << o.est.total_cost << "|"
        << o.est.rows << "|" << o.est.width << "|" << o.est.pages << "|"
        << o.est.selectivity << "|" << (o.actual.valid ? 1 : 0) << "|"
        << o.actual.start_time_ms << "|" << o.actual.run_time_ms << "|"
        << o.actual.rows << "|" << o.actual.pages << "\n";
    // Card signatures ride in a separate optional line (rather than extra O
    // fields) so logs written before the card subsystem — including the
    // golden serve bundles — stay byte-identical on round-trip.
    if (o.card_signature != 0) {
      out << "C|" << o.node_id << "|" << ChecksumHex(o.card_signature) << "|"
          << ChecksumHex(o.card_class) << "|" << o.card_features[0] << "|"
          << o.card_features[1] << "|" << o.card_features[2] << "\n";
    }
    // Predicate bounds ride in another optional line, for the same
    // round-trip reason. Per column: name, lo, hi, and a flag bitmask
    // (bit 0 has_lo, bit 1 has_hi, bit 2 is_equality).
    if (!o.bounds.table.empty()) {
      out << "B|" << o.node_id << "|" << EscapeField(o.bounds.table) << "|"
          << o.bounds.table_rows << "|" << (o.bounds.exhaustive ? 1 : 0)
          << "|" << o.bounds.columns.size();
      for (const ColumnBound& c : o.bounds.columns) {
        const int flags = (c.has_lo ? 1 : 0) | (c.has_hi ? 2 : 0) |
                          (c.is_equality ? 4 : 0);
        out << "|" << EscapeField(c.column) << "|" << c.lo << "|" << c.hi
            << "|" << flags;
      }
      out << "\n";
    }
  }
}

/// The Q/O/C/B line parser that LoadFromStream (getline lines) and
/// ParseQueryRecord (lines of a wire payload, in place) share. Fields are
/// views into the line, held in a vector reused from line to line; numbers
/// are read straight from the views, and only the record's own strings
/// (param_desc, relation, bound names) are copied out.
class LogParser {
 public:
  explicit LogParser(const std::string& source) : source_(source) {}

  /// Parses one line without its '\n'; `line_no` (1-based) labels errors.
  Status ParseLine(std::string_view line, int line_no);

  /// Checks that every query has operators and recomputes structural keys.
  Result<QueryLog> Finish();

 private:
  Status ParseOperator(int line_no);
  /// The C and B lines: attached to an operator of the last query.
  Status ParseCard(int line_no);
  Status ParseBounds(int line_no);
  /// "<source>:<line>: <what>", the error every malformed line gets.
  Status Error(int line_no, const std::string& what) const {
    return Status::IOError(source_ + ":" + std::to_string(line_no) + ": " +
                           what);
  }
  /// The operator of the last query named by fields_[1], for C/B lines.
  Result<OperatorRecord*> TargetOperator(int line_no, const char* tag);

  const std::string& source_;
  QueryLog log_;
  std::vector<int> q_lines_;  // source line of each Q record, for diagnostics
  std::vector<std::string_view> fields_;
};

Status LogParser::ParseLine(std::string_view line, int line_no) {
  if (line.empty() || line[0] == '#') return Status::OK();
  SplitFields(line, &fields_);
  const std::string_view tag = fields_[0];
  if (tag == "O") return ParseOperator(line_no);
  if (tag == "C") return ParseCard(line_no);
  if (tag == "B") return ParseBounds(line_no);
  if (tag != "Q") {
    return Error(line_no, "unknown record tag '" + std::string(tag) + "'");
  }
  if (fields_.size() != 4) {
    return Error(line_no, "Q line needs 4 fields, got " +
                              std::to_string(fields_.size()));
  }
  QueryRecord& q = log_.queries.emplace_back();
  if (!ParseNumber(fields_[1], &q.template_id)) {
    return Error(line_no, "bad template id '" + std::string(fields_[1]) + "'");
  }
  if (!ParseNumber(fields_[2], &q.latency_ms)) {
    return Error(line_no, "bad latency '" + std::string(fields_[2]) + "'");
  }
  q.param_desc = UnescapeField(fields_[3]);
  q_lines_.push_back(line_no);
  return Status::OK();
}

Status LogParser::ParseOperator(int line_no) {
  const auto& f = fields_;
  if (f.size() != 19) {
    return Error(line_no,
                 "O line needs 19 fields, got " + std::to_string(f.size()));
  }
  if (log_.queries.empty()) return Error(line_no, "O line before any Q line");
  OperatorRecord& o = log_.queries.back().ops.emplace_back();
  int op_int = 0, join_int = 0, valid_int = 0;
  const bool ints_ok =
      ParseNumber(f[1], &o.node_id) && ParseNumber(f[2], &o.parent_id) &&
      ParseNumber(f[3], &o.left_child) && ParseNumber(f[4], &o.right_child) &&
      ParseNumber(f[5], &op_int) && ParseNumber(f[6], &join_int) &&
      ParseNumber(f[14], &valid_int);
  const bool doubles_ok = ParseNumber(f[8], &o.est.startup_cost) &&
                          ParseNumber(f[9], &o.est.total_cost) &&
                          ParseNumber(f[10], &o.est.rows) &&
                          ParseNumber(f[11], &o.est.width) &&
                          ParseNumber(f[12], &o.est.pages) &&
                          ParseNumber(f[13], &o.est.selectivity) &&
                          ParseNumber(f[15], &o.actual.start_time_ms) &&
                          ParseNumber(f[16], &o.actual.run_time_ms) &&
                          ParseNumber(f[17], &o.actual.rows) &&
                          ParseNumber(f[18], &o.actual.pages);
  if (!ints_ok || !doubles_ok) {
    return Error(line_no, "unparseable number in O line");
  }
  if (op_int < 0 || op_int >= kNumPlanOps) {
    return Error(line_no,
                 "operator type " + std::to_string(op_int) + " out of range");
  }
  o.op = static_cast<PlanOp>(op_int);
  o.join_type = static_cast<JoinType>(join_int);
  o.relation = UnescapeField(f[7]);
  o.actual.valid = valid_int == 1;
  return Status::OK();
}

Result<OperatorRecord*> LogParser::TargetOperator(int line_no,
                                                  const char* tag) {
  if (log_.queries.empty() || log_.queries.back().ops.empty()) {
    return Error(line_no, std::string(tag) + " line before any O line");
  }
  int node_id = 0;
  if (!ParseNumber(fields_[1], &node_id)) {
    return Error(line_no, "bad node id '" + std::string(fields_[1]) + "'");
  }
  QueryRecord& q = log_.queries.back();
  const int idx = q.IndexOfNode(node_id);
  if (idx < 0) {
    return Error(line_no, std::string(tag) +
                              " line references unknown node " +
                              std::to_string(node_id));
  }
  return &q.ops[static_cast<size_t>(idx)];
}

Status LogParser::ParseCard(int line_no) {
  const auto& f = fields_;
  if (f.size() != 7) {
    return Error(line_no,
                 "C line needs 7 fields, got " + std::to_string(f.size()));
  }
  QPP_ASSIGN_OR_RETURN(OperatorRecord * o, TargetOperator(line_no, "C"));
  const auto sig = ParseChecksumHex(f[2]);
  const auto cls = ParseChecksumHex(f[3]);
  if (!sig.ok() || !cls.ok()) return Error(line_no, "bad hash in C line");
  o->card_signature = *sig;
  o->card_class = *cls;
  if (!ParseNumber(f[4], &o->card_features[0]) ||
      !ParseNumber(f[5], &o->card_features[1]) ||
      !ParseNumber(f[6], &o->card_features[2])) {
    return Error(line_no, "unparseable feature in C line");
  }
  return Status::OK();
}

Status LogParser::ParseBounds(int line_no) {
  const auto& f = fields_;
  if (f.size() < 6) {
    return Error(line_no, "B line needs at least 6 fields, got " +
                              std::to_string(f.size()));
  }
  QPP_ASSIGN_OR_RETURN(OperatorRecord * o, TargetOperator(line_no, "B"));
  PredicateBounds& b = o->bounds;
  b.table = UnescapeField(f[2]);
  if (b.table.empty()) return Error(line_no, "empty table in B line");
  int exhaustive_int = 0, ncols = 0;
  if (!ParseNumber(f[3], &b.table_rows) ||
      !ParseNumber(f[4], &exhaustive_int) || !ParseNumber(f[5], &ncols) ||
      exhaustive_int < 0 || exhaustive_int > 1 || ncols < 0) {
    return Error(line_no, "bad B line header");
  }
  const size_t want = 6 + 4 * static_cast<size_t>(ncols);
  if (f.size() != want) {
    return Error(line_no, "B line needs " + std::to_string(want) +
                              " fields, got " + std::to_string(f.size()));
  }
  b.exhaustive = exhaustive_int == 1;
  b.columns.clear();
  for (int c = 0; c < ncols; ++c) {
    const size_t base = static_cast<size_t>(6 + 4 * c);
    ColumnBound& cb = b.columns.emplace_back();
    cb.column = UnescapeField(f[base]);
    int flags = 0;
    if (!ParseNumber(f[base + 1], &cb.lo) ||
        !ParseNumber(f[base + 2], &cb.hi) ||
        !ParseNumber(f[base + 3], &flags) || flags < 0 || flags > 7) {
      return Error(line_no, "bad column bound in B line");
    }
    cb.has_lo = (flags & 1) != 0;
    cb.has_hi = (flags & 2) != 0;
    cb.is_equality = (flags & 4) != 0;
  }
  return Status::OK();
}

Result<QueryLog> LogParser::Finish() {
  for (size_t i = 0; i < log_.queries.size(); ++i) {
    if (log_.queries[i].ops.empty()) {
      return Error(q_lines_[i],
                   "query " + std::to_string(i) + " has no operators");
    }
    RecomputeStructuralKeys(&log_.queries[i]);
  }
  return std::move(log_);
}

}  // namespace

int QueryRecord::IndexOfNode(int node_id) const {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].node_id == node_id) return static_cast<int>(i);
  }
  return -1;
}

QueryRecord RecordFromPlan(const QueryPlan& plan, double latency_ms) {
  QueryRecord rec;
  rec.template_id = plan.template_id;
  rec.param_desc = plan.parameter_desc;
  rec.latency_ms = latency_ms;
  if (plan.root) FlattenPlan(*plan.root, -1, &rec.ops);
  return rec;
}

void RecomputeStructuralKeys(QueryRecord* record) {
  std::vector<std::string> memo(record->ops.size());
  std::vector<int> sizes(record->ops.size(), 1);
  for (size_t i = 0; i < record->ops.size(); ++i) {
    KeyOf(*record, static_cast<int>(i), &memo, &sizes);
  }
  for (size_t i = 0; i < record->ops.size(); ++i) {
    record->ops[i].structural_key = memo[i];
    record->ops[i].subtree_size = sizes[i];
  }
}

std::string SerializeQueryRecord(const QueryRecord& record) {
  std::ostringstream out;
  out.precision(17);
  WriteRecord(out, record);
  return out.str();
}

Result<QueryRecord> ParseQueryRecord(std::string_view text,
                                     const std::string& source_name) {
  // Lines split like std::getline's: a final line needs no '\n', and a
  // trailing '\n' starts no further line.
  LogParser parser(source_name);
  int line_no = 0;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    QPP_RETURN_NOT_OK(parser.ParseLine(text.substr(0, nl), ++line_no));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  QPP_ASSIGN_OR_RETURN(QueryLog log, parser.Finish());
  if (log.queries.size() != 1) {
    return Status::InvalidArgument(
        source_name + ": expected exactly one query record, got " +
        std::to_string(log.queries.size()));
  }
  return std::move(log.queries.front());
}

void QueryLog::WriteTo(std::ostream& out) const {
  out.precision(17);
  out << "# qpp query log v2\n";
  for (const auto& q : queries) WriteRecord(out, q);
}

Status QueryLog::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open " + path);
  WriteTo(out);
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status AppendRecordToFile(const QueryRecord& record, const std::string& path) {
  const bool exists = [&] {
    std::ifstream probe(path);
    return probe.is_open();
  }();
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) return Status::IOError("cannot open " + path);
  out.precision(17);
  if (!exists) out << "# qpp query log v2\n";
  WriteRecord(out, record);
  if (!out.good()) return Status::IOError("append failed: " + path);
  return Status::OK();
}

Result<QueryLog> QueryLog::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  return LoadFromStream(in, path);
}

namespace {

/// Little-endian scalar append/read for the binary record format. The
/// encoding is explicitly little-endian regardless of host order
/// (byte-serialized through shifts), mirroring the net/frame helpers.
void AppendLeU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendLeU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendLeU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendLeI32(std::string* out, int32_t v) {
  AppendLeU32(out, static_cast<uint32_t>(v));
}

void AppendLeF64(std::string* out, double v) {
  AppendLeU64(out, std::bit_cast<uint64_t>(v));
}

/// Bounds-checked cursor over a binary record. Every Read* fails (returns
/// false) instead of reading past the end, so a truncated or lying payload
/// can never over-read — the caller turns the first failure into a typed
/// parse error.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool ReadU8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(*p_++);
    return true;
  }

  bool ReadU16(uint16_t* out) {
    if (remaining() < 2) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(p_);
    *out = static_cast<uint16_t>(static_cast<uint16_t>(b[0]) |
                                 static_cast<uint16_t>(b[1]) << 8);
    p_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (remaining() < 4) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(p_);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[i]) << (8 * i);
    *out = v;
    p_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (remaining() < 8) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(p_);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
    *out = v;
    p_ += 8;
    return true;
  }

  bool ReadI32(int* out) {
    uint32_t v = 0;
    if (!ReadU32(&v)) return false;
    *out = static_cast<int>(v);
    return true;
  }

  bool ReadF64(double* out) {
    uint64_t v = 0;
    if (!ReadU64(&v)) return false;
    *out = std::bit_cast<double>(v);
    return true;
  }

  /// u32 length prefix + that many raw bytes; the length is validated
  /// against the remaining input before any allocation.
  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len) || remaining() < len) return false;
    out->assign(p_, len);
    p_ += len;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace

std::string SerializeQueryRecordBinary(const QueryRecord& record) {
  std::string out;
  out.reserve(48 + record.ops.size() * 136 + record.param_desc.size());
  out.push_back(kBinaryRecordMarker);
  out.push_back(static_cast<char>(kBinaryRecordVersion));
  AppendLeU16(&out, 0);  // reserved
  AppendLeI32(&out, record.template_id);
  AppendLeF64(&out, record.latency_ms);
  AppendLeU32(&out, static_cast<uint32_t>(record.param_desc.size()));
  out += record.param_desc;
  AppendLeU32(&out, static_cast<uint32_t>(record.ops.size()));
  for (const OperatorRecord& o : record.ops) {
    AppendLeI32(&out, o.node_id);
    AppendLeI32(&out, o.parent_id);
    AppendLeI32(&out, o.left_child);
    AppendLeI32(&out, o.right_child);
    out.push_back(static_cast<char>(o.op));
    out.push_back(static_cast<char>(o.join_type));
    out.push_back(o.actual.valid ? 1 : 0);
    // Card identity rides behind a presence flag for the same reason the
    // text format uses an optional C line: most records carry none.
    const bool has_card = o.card_signature != 0;
    out.push_back(has_card ? 1 : 0);
    AppendLeU32(&out, static_cast<uint32_t>(o.relation.size()));
    out += o.relation;
    AppendLeF64(&out, o.est.startup_cost);
    AppendLeF64(&out, o.est.total_cost);
    AppendLeF64(&out, o.est.rows);
    AppendLeF64(&out, o.est.width);
    AppendLeF64(&out, o.est.pages);
    AppendLeF64(&out, o.est.selectivity);
    AppendLeF64(&out, o.actual.start_time_ms);
    AppendLeF64(&out, o.actual.run_time_ms);
    AppendLeF64(&out, o.actual.rows);
    AppendLeF64(&out, o.actual.pages);
    if (has_card) {
      AppendLeU64(&out, o.card_signature);
      AppendLeU64(&out, o.card_class);
      for (double f : o.card_features) AppendLeF64(&out, f);
    }
  }
  return out;
}

Result<QueryRecord> ParseQueryRecordBinary(std::string_view bytes,
                                           const std::string& source_name) {
  const auto fail = [&source_name](const std::string& what) -> Status {
    return Status::InvalidArgument(source_name + ": " + what);
  };
  BinaryReader in(bytes);
  uint8_t marker = 0, version = 0;
  uint16_t reserved = 0;
  if (!in.ReadU8(&marker) || marker != kBinaryRecordMarker) {
    return fail("missing binary record marker");
  }
  if (!in.ReadU8(&version) || version != kBinaryRecordVersion) {
    return fail("unsupported binary record version " + std::to_string(version));
  }
  if (!in.ReadU16(&reserved) || reserved != 0) {
    return fail("nonzero reserved bits in binary record header");
  }
  QueryRecord q;
  uint32_t op_count = 0;
  if (!in.ReadI32(&q.template_id) || !in.ReadF64(&q.latency_ms) ||
      !in.ReadString(&q.param_desc) || !in.ReadU32(&op_count)) {
    return fail("truncated binary record header");
  }
  if (op_count == 0) return fail("binary record has no operators");
  // Reservation is clamped by what the input could possibly hold (>= 98
  // fixed bytes per operator), so a lying count cannot force a huge
  // allocation before the truncation check fails.
  q.ops.reserve(std::min<size_t>(op_count, in.remaining() / 98 + 1));
  for (uint32_t i = 0; i < op_count; ++i) {
    OperatorRecord o;
    uint8_t op = 0, join = 0, valid = 0, has_card = 0;
    if (!in.ReadI32(&o.node_id) || !in.ReadI32(&o.parent_id) ||
        !in.ReadI32(&o.left_child) || !in.ReadI32(&o.right_child) ||
        !in.ReadU8(&op) || !in.ReadU8(&join) || !in.ReadU8(&valid) ||
        !in.ReadU8(&has_card) || !in.ReadString(&o.relation)) {
      return fail("truncated operator " + std::to_string(i));
    }
    if (op >= kNumPlanOps) {
      return fail("operator type " + std::to_string(op) + " out of range");
    }
    if (join > static_cast<uint8_t>(JoinType::kAnti)) {
      return fail("join type " + std::to_string(join) + " out of range");
    }
    if (valid > 1 || has_card > 1) {
      return fail("flag byte out of range in operator " + std::to_string(i));
    }
    o.op = static_cast<PlanOp>(op);
    o.join_type = static_cast<JoinType>(join);
    o.actual.valid = valid == 1;
    if (!in.ReadF64(&o.est.startup_cost) || !in.ReadF64(&o.est.total_cost) ||
        !in.ReadF64(&o.est.rows) || !in.ReadF64(&o.est.width) ||
        !in.ReadF64(&o.est.pages) || !in.ReadF64(&o.est.selectivity) ||
        !in.ReadF64(&o.actual.start_time_ms) ||
        !in.ReadF64(&o.actual.run_time_ms) || !in.ReadF64(&o.actual.rows) ||
        !in.ReadF64(&o.actual.pages)) {
      return fail("truncated operator " + std::to_string(i));
    }
    if (has_card == 1 &&
        (!in.ReadU64(&o.card_signature) || !in.ReadU64(&o.card_class) ||
         !in.ReadF64(&o.card_features[0]) || !in.ReadF64(&o.card_features[1]) ||
         !in.ReadF64(&o.card_features[2]))) {
      return fail("truncated card block in operator " + std::to_string(i));
    }
    q.ops.push_back(std::move(o));
  }
  if (in.remaining() != 0) {
    return fail(std::to_string(in.remaining()) +
                " trailing bytes after binary record");
  }
  RecomputeStructuralKeys(&q);
  return q;
}

Result<QueryRecord> ParseQueryRecordAuto(std::string_view bytes,
                                         const std::string& source_name) {
  return IsBinaryQueryRecord(bytes) ? ParseQueryRecordBinary(bytes, source_name)
                                    : ParseQueryRecord(bytes, source_name);
}

Result<QueryLog> QueryLog::LoadFromStream(std::istream& in,
                                          const std::string& source_name) {
  LogParser parser(source_name);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    QPP_RETURN_NOT_OK(parser.ParseLine(line, ++line_no));
  }
  return parser.Finish();
}

}  // namespace qpp

#include <gtest/gtest.h>

#include <chrono>

#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "storage/value.h"

namespace qpp {
namespace {

// ---------------------------------- Value -----------------------------------

TEST(ValueTest, TypeDispatch) {
  EXPECT_EQ(Value::Null().type(), TypeId::kNull);
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_EQ(Value::Int64(5).type(), TypeId::kInt64);
  EXPECT_EQ(Value::MakeDouble(1.5).type(), TypeId::kDouble);
  EXPECT_EQ(Value::MakeDecimal(Decimal(100, 2)).type(), TypeId::kDecimal);
  EXPECT_EQ(Value::MakeDate(Date(0)).type(), TypeId::kDate);
  EXPECT_EQ(Value::String("x").type(), TypeId::kString);
}

TEST(ValueTest, CompareNumericFamilies) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Int64(3)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Int64(3)), 0);
  // Int vs decimal via numeric coercion.
  EXPECT_EQ(Value::Int64(2).Compare(Value::MakeDecimal(Decimal(200, 2))), 0);
  EXPECT_GT(Value::MakeDecimal(Decimal(250, 2)).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, CompareDates) {
  EXPECT_LT(Value::MakeDate(Date(10)).Compare(Value::MakeDate(Date(20))), 0);
}

TEST(ValueTest, HashEqualValuesEqualHashes) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  // Decimals equal across scales hash equally.
  EXPECT_EQ(Value::MakeDecimal(Decimal(150, 2)).Hash(),
            Value::MakeDecimal(Decimal(15, 1)).Hash());
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(Value::Int64(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value::MakeDecimal(Decimal(150, 2)).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Value::MakeDate(Date(100)).AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::MakeDecimal(Decimal(105, 2)).ToString(), "1.05");
  EXPECT_EQ(Value::MakeDate(Date::FromYmd(1995, 6, 17)).ToString(),
            "1995-06-17");
}

TEST(TupleTest, HashTupleOrderSensitive) {
  const Tuple a = {Value::Int64(1), Value::Int64(2)};
  const Tuple b = {Value::Int64(2), Value::Int64(1)};
  const Tuple c = {Value::Int64(1), Value::Int64(2)};
  EXPECT_EQ(HashTuple(a), HashTuple(c));
  EXPECT_NE(HashTuple(a), HashTuple(b));
}

// Operators hash keys where they lie in a row by folding HashCombine; that
// must equal HashTuple of the key copied out, or group order would move.
TEST(TupleTest, HashCombineFoldsToHashTuple) {
  const Tuple row = {Value::Int64(4), Value::String("x"), Value::Null(),
                     Value::MakeDecimal(Decimal(105, 2)),
                     Value::MakeDate(Date::FromYmd(1995, 6, 17))};
  for (const std::vector<size_t>& cols :
       {std::vector<size_t>{}, {0}, {1, 3}, {4, 2, 0}}) {
    Tuple key;
    size_t h = kHashTupleSeed;
    for (size_t c : cols) {
      key.push_back(row[c]);
      h = HashCombine(h, row[c]);
    }
    EXPECT_EQ(h, HashTuple(key)) << cols.size();
  }
}

// ---------------------------------- Schema ----------------------------------

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", TypeId::kInt64);
  s.AddColumn("name", TypeId::kString, 20);
  return s;
}

TEST(SchemaTest, FindColumn) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.FindColumn("id"), 0);
  EXPECT_EQ(s.FindColumn("name"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(SchemaTest, EstimatedRowWidth) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.EstimatedRowWidth(), 8 + 20 + 16);
}

TEST(SchemaTest, ResolveColumnExact) {
  const Schema s = TwoColSchema();
  auto r = ResolveColumn(s, "name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1);
}

TEST(SchemaTest, ResolveColumnSuffix) {
  Schema s;
  s.AddColumn("n1.n_name", TypeId::kString);
  s.AddColumn("n1.n_nationkey", TypeId::kInt64);
  auto r = ResolveColumn(s, "n_name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0);
}

TEST(SchemaTest, ResolveColumnAmbiguousFails) {
  Schema s;
  s.AddColumn("n1.n_name", TypeId::kString);
  s.AddColumn("n2.n_name", TypeId::kString);
  EXPECT_FALSE(ResolveColumn(s, "n_name").ok());
  EXPECT_TRUE(ResolveColumn(s, "n1.n_name").ok());
}

TEST(SchemaTest, ResolveColumnMissingFails) {
  EXPECT_FALSE(ResolveColumn(TwoColSchema(), "zzz").ok());
}

// ---------------------------------- Table -----------------------------------

TEST(TableTest, AppendAndRead) {
  Table t(1, "people", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::String("ann")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Int64(2), Value::String("bob")}).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(0, 1).string_value(), "ann");
  Tuple row;
  t.GetRow(1, {true, true}, &row);
  EXPECT_EQ(row[0].int64_value(), 2);
  EXPECT_EQ(row[1].string_value(), "bob");
}

// GetRow reads the cells its mask marks, nulls the others, and resizes the
// tuple to the schema's width whatever it held before.
TEST(TableTest, MaskedGetRowReadsOnlyMarkedCells) {
  Schema s;
  s.AddColumn("id", TypeId::kInt64);
  s.AddColumn("name", TypeId::kString);
  s.AddColumn("price", TypeId::kDecimal, 2);
  Table t(1, "t", s);
  ASSERT_TRUE(t.AppendRow({Value::Int64(7), Value::String("a long string "
                                                          "past the SSO size"),
                           Value::MakeDecimal(Decimal(250, 2))})
                  .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(8), Value::Null(), Value::Null()}).ok());

  Tuple row;
  t.GetRow(0, {true, true, true}, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].int64_value(), 7);
  EXPECT_EQ(row[1].string_value(), "a long string past the SSO size");
  EXPECT_EQ(row[2].decimal_value().ToString(), "2.50");

  // Reusing the full row: unmarked cells become null, marked ones are read.
  t.GetRow(0, {false, true, false}, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1].string_value(), "a long string past the SSO size");
  EXPECT_TRUE(row[2].is_null());

  // A marked null cell reads as null; a too-wide tuple shrinks to the schema.
  row.assign(5, Value::Int64(1));
  t.GetRow(1, {true, false, true}, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].int64_value(), 8);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_TRUE(row[2].is_null());

  // Nothing marked: a row of nulls.
  row.clear();
  t.GetRow(0, {false, false, false}, &row);
  ASSERT_EQ(row.size(), 3u);
  for (const Value& v : row) EXPECT_TRUE(v.is_null());
}

TEST(TableTest, RejectsArityMismatch) {
  Table t(1, "t", TwoColSchema());
  EXPECT_FALSE(t.AppendRow({Value::Int64(1)}).ok());
}

TEST(TableTest, RejectsTypeMismatch) {
  Table t(1, "t", TwoColSchema());
  EXPECT_FALSE(t.AppendRow({Value::String("x"), Value::String("y")}).ok());
}

TEST(TableTest, NullsRoundTrip) {
  Table t(1, "t", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::String("b")}).ok());
  EXPECT_FALSE(t.GetValue(0, 0).is_null());
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  EXPECT_EQ(t.GetValue(1, 1).string_value(), "b");
}

TEST(TableTest, DecimalStoredAtSchemaScale) {
  Schema s;
  s.AddColumn("price", TypeId::kDecimal, 2);
  Table t(1, "t", s);
  // Value at scale 4 is rescaled to the column's scale 2.
  ASSERT_TRUE(t.AppendRow({Value::MakeDecimal(Decimal(12345, 4))}).ok());
  EXPECT_EQ(t.GetValue(0, 0).decimal_value().ToString(), "1.23");
}

TEST(TableTest, PagingMath) {
  Schema s;
  s.AddColumn("a", TypeId::kInt64);  // width 8 -> 1024 rows/page
  Table t(1, "t", s);
  EXPECT_EQ(t.rows_per_page(), 1024);
  EXPECT_EQ(t.num_pages(), 0);
  for (int i = 0; i < 1025; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(i)}).ok());
  }
  EXPECT_EQ(t.num_pages(), 2);
  EXPECT_EQ(t.PageOfRow(0), 0);
  EXPECT_EQ(t.PageOfRow(1023), 0);
  EXPECT_EQ(t.PageOfRow(1024), 1);
}

TEST(TableTest, IndexLookup) {
  Table t(1, "t", TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(i % 3), Value::String("v")}).ok());
  }
  ASSERT_TRUE(t.CreateIndex("id").ok());
  EXPECT_TRUE(t.HasIndex(0));
  EXPECT_EQ(t.IndexLookup(0, 0).size(), 4u);  // rows 0,3,6,9
  EXPECT_EQ(t.IndexLookup(0, 1).size(), 3u);
  EXPECT_TRUE(t.IndexLookup(0, 99).empty());
}

TEST(TableTest, IndexOnMissingColumnFails) {
  Table t(1, "t", TwoColSchema());
  EXPECT_FALSE(t.CreateIndex("zzz").ok());
  EXPECT_FALSE(t.CreateIndex("name").ok());  // not INT64
}

// -------------------------------- BufferPool --------------------------------

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool;
  EXPECT_FALSE(pool.AccessSequential(1, 0));
  EXPECT_TRUE(pool.AccessSequential(1, 0));
  EXPECT_EQ(pool.num_cached_pages(), 1u);
}

TEST(BufferPoolTest, DistinctTablesDistinctPages) {
  BufferPool pool;
  EXPECT_FALSE(pool.AccessSequential(1, 0));
  EXPECT_FALSE(pool.AccessSequential(2, 0));
  EXPECT_EQ(pool.num_cached_pages(), 2u);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool::Config cfg;
  cfg.capacity_pages = 2;
  BufferPool pool(cfg);
  pool.AccessSequential(1, 0);
  pool.AccessSequential(1, 1);
  pool.AccessSequential(1, 0);  // refresh page 0
  pool.AccessSequential(1, 2);  // evicts page 1 (LRU)
  EXPECT_EQ(pool.num_cached_pages(), 2u);
  EXPECT_TRUE(pool.AccessSequential(1, 0));
  EXPECT_FALSE(pool.AccessSequential(1, 1));  // was evicted
}

TEST(BufferPoolTest, FlushAllColdStart) {
  BufferPool pool;
  EXPECT_FALSE(pool.AccessSequential(1, 0));
  pool.FlushAll();
  EXPECT_EQ(pool.num_cached_pages(), 0u);
  EXPECT_FALSE(pool.AccessSequential(1, 0));
}

TEST(BufferPoolTest, AccessReturnsHitStatus) {
  BufferPool pool;
  EXPECT_FALSE(pool.AccessSequential(1, 0));  // cold: miss
  EXPECT_TRUE(pool.AccessSequential(1, 0));   // cached: hit
  EXPECT_FALSE(pool.AccessRandom(1, 7));
  EXPECT_TRUE(pool.AccessRandom(1, 7));
}

// Regression for the key packing: the old (table_id << 40) | page_index
// left page_index unmasked, so a page index with bits above 2^40 silently
// aliased a page of a DIFFERENT table. The masked layout keeps the fields
// in their own bit ranges.
TEST(BufferPoolTest, MakeKeyFieldBoundaries) {
  // In-range values round-trip into disjoint keys.
  EXPECT_NE(BufferPool::MakeKey(1, 0), BufferPool::MakeKey(2, 0));
  EXPECT_NE(BufferPool::MakeKey(1, 0), BufferPool::MakeKey(1, 1));

  // Extremes of each field stay in their own bits.
  const int max_table = (1 << BufferPool::kTableIdBits) - 1;
  const int64_t max_page = (int64_t{1} << BufferPool::kPageIndexBits) - 1;
  EXPECT_EQ(BufferPool::MakeKey(max_table, max_page), ~uint64_t{0});
  EXPECT_EQ(BufferPool::MakeKey(0, max_page), (uint64_t{1} << 40) - 1);
  EXPECT_EQ(BufferPool::MakeKey(max_table, 0),
            ~uint64_t{0} << BufferPool::kPageIndexBits);

#ifdef NDEBUG
  // The old collision: table 1 with page 2^41 used to equal table 3 page 0
  // ((1 << 40) | (1 << 41) == 3 << 40). With masking the out-of-range page
  // wraps within table 1's range instead of bleeding into the table bits.
  // Debug builds assert on this precondition violation, so the masked
  // fallback is only observable (and only tested) with NDEBUG.
  EXPECT_NE(BufferPool::MakeKey(1, int64_t{1} << 41),
            BufferPool::MakeKey(3, 0));
  EXPECT_EQ(BufferPool::MakeKey(1, int64_t{1} << 41),
            BufferPool::MakeKey(1, 0));
#endif
}

TEST(BufferPoolTest, ColdReadCostsMeasurableTime) {
  BufferPool::Config cfg;
  cfg.io_work_passes = 50;
  BufferPool pool(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < 200; ++p) pool.AccessSequential(1, p);
  const double cold_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0).count();
  const auto t1 = std::chrono::steady_clock::now();
  for (int p = 0; p < 200; ++p) pool.AccessSequential(1, p);
  const double warm_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t1).count();
  EXPECT_GT(cold_ms, warm_ms);  // the I/O simulation does real work
}

}  // namespace
}  // namespace qpp

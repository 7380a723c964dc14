#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "storage/table.h"
#include "tpch/schema.h"

namespace qpp::tpch {

/// Configuration for the TPC-H data generator.
struct DbgenConfig {
  /// TPC-H scale factor; SF 1 is the nominal 1 GB database (6M lineitem).
  double scale_factor = 0.01;
  /// Master seed — the generator is fully deterministic given (sf, seed).
  uint64_t seed = 20120401;
};

/// \brief From-scratch TPC-H data generator (the dbgen substitute).
///
/// Follows the TPC-H sizing and value-domain rules: fixed region/nation
/// contents, spec-shaped string domains (brands, types, containers,
/// segments, priorities, ship modes), money columns with spec ranges,
/// order/line date relationships (ship/commit/receipt offsets from the order
/// date, return flags derived from dates), and l_extendedprice derived from
/// quantity and the part's retail price formula.
///
/// Simplifications vs. the official dbgen, documented in DESIGN.md: order
/// keys are dense (the spec leaves key gaps), comments use a small fixed
/// vocabulary, and per-column pseudo-random streams are forked from one
/// master seed instead of the spec's fixed stream table. None of these
/// affect the optimizer-estimate or runtime behaviour the experiments rely
/// on.
class Dbgen {
 public:
  explicit Dbgen(DbgenConfig config) : config_(config) {}

  /// Generates all eight tables, ordered by TableId, each with the
  /// primary-key-style hash index the paper's setup declares on its leading
  /// key column.
  Result<std::vector<std::unique_ptr<Table>>> Generate();

  const DbgenConfig& config() const { return config_; }

 private:
  Status GenerateRegion(Table* t);
  Status GenerateNation(Table* t);
  Status GenerateSupplier(Table* t, Rng* rng);
  Status GeneratePart(Table* t, Rng* rng);
  Status GeneratePartsupp(Table* t, Rng* rng);
  Status GenerateCustomer(Table* t, Rng* rng);
  /// Orders and lineitem are generated together so o_totalprice and
  /// o_orderstatus can be derived from the generated lines, as in the spec.
  Status GenerateOrdersAndLineitem(Table* orders, Table* lineitem, Rng* rng);

  DbgenConfig config_;
};

/// Retail price formula from the spec: depends only on the part key, so the
/// lineitem generator can compute l_extendedprice without a lookup.
Decimal PartRetailPrice(int64_t partkey);

}  // namespace qpp::tpch

#include "tpch/dbgen.h"

#include <algorithm>
#include <string>

#include "tpch/lists.h"

namespace qpp::tpch {
namespace {

// TPC-H calendar anchors.
const Date kStartDate = Date::FromYmd(1992, 1, 1);
const Date kEndDate = Date::FromYmd(1998, 12, 31);
const Date kCurrentDate = Date::FromYmd(1995, 6, 17);

std::string Pick(const std::vector<std::string>& list, Rng* rng) {
  return list[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(list.size()) - 1))];
}

std::string CommentText(Rng* rng, int target_len) {
  const auto& words = CommentWords();
  std::string out;
  while (static_cast<int>(out.size()) < target_len) {
    if (!out.empty()) out += ' ';
    out += Pick(words, rng);
  }
  if (static_cast<int>(out.size()) > target_len) out.resize(target_len);
  return out;
}

std::string Phone(int nationkey, Rng* rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", 10 + nationkey,
                static_cast<int>(rng->UniformInt(100, 999)),
                static_cast<int>(rng->UniformInt(100, 999)),
                static_cast<int>(rng->UniformInt(1000, 9999)));
  return buf;
}

std::string Address(Rng* rng) {
  static const char kAlnum[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,";
  const int len = static_cast<int>(rng->UniformInt(10, 30));
  std::string out;
  out.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    out += kAlnum[rng->UniformInt(0, static_cast<int64_t>(sizeof(kAlnum)) - 2)];
  }
  return out;
}

Decimal Money(Rng* rng, int64_t lo_cents, int64_t hi_cents) {
  return Decimal(rng->UniformInt(lo_cents, hi_cents), 2);
}

}  // namespace

Decimal PartRetailPrice(int64_t partkey) {
  // Spec 4.2.3: (90000 + ((partkey/10) mod 20001) + 100*(partkey mod 1000))/100
  const int64_t cents =
      90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000);
  return Decimal(cents, 2);
}

Result<std::vector<std::unique_ptr<Table>>> Dbgen::Generate() {
  if (config_.scale_factor <= 0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  std::vector<std::unique_ptr<Table>> tables;
  tables.reserve(kNumTables);
  for (int id = 0; id < kNumTables; ++id) {
    const TableId tid = static_cast<TableId>(id);
    tables.push_back(
        std::make_unique<Table>(id, TableName(tid), TableSchema(tid)));
  }
  Rng master(config_.seed);
  Rng supplier_rng = master.Fork();
  Rng part_rng = master.Fork();
  Rng partsupp_rng = master.Fork();
  Rng customer_rng = master.Fork();
  Rng orders_rng = master.Fork();

  QPP_RETURN_NOT_OK(GenerateRegion(tables[kRegion].get()));
  QPP_RETURN_NOT_OK(GenerateNation(tables[kNation].get()));
  QPP_RETURN_NOT_OK(GenerateSupplier(tables[kSupplier].get(), &supplier_rng));
  QPP_RETURN_NOT_OK(GeneratePart(tables[kPart].get(), &part_rng));
  QPP_RETURN_NOT_OK(GeneratePartsupp(tables[kPartsupp].get(), &partsupp_rng));
  QPP_RETURN_NOT_OK(GenerateCustomer(tables[kCustomer].get(), &customer_rng));
  QPP_RETURN_NOT_OK(GenerateOrdersAndLineitem(
      tables[kOrders].get(), tables[kLineitem].get(), &orders_rng));

  QPP_RETURN_NOT_OK(tables[kRegion]->CreateIndex("r_regionkey"));
  QPP_RETURN_NOT_OK(tables[kNation]->CreateIndex("n_nationkey"));
  QPP_RETURN_NOT_OK(tables[kSupplier]->CreateIndex("s_suppkey"));
  QPP_RETURN_NOT_OK(tables[kPart]->CreateIndex("p_partkey"));
  QPP_RETURN_NOT_OK(tables[kPartsupp]->CreateIndex("ps_partkey"));
  QPP_RETURN_NOT_OK(tables[kCustomer]->CreateIndex("c_custkey"));
  QPP_RETURN_NOT_OK(tables[kOrders]->CreateIndex("o_orderkey"));
  QPP_RETURN_NOT_OK(tables[kLineitem]->CreateIndex("l_orderkey"));
  return tables;
}

Status Dbgen::GenerateRegion(Table* t) {
  Rng rng(config_.seed ^ 0x5245474EULL);
  for (size_t i = 0; i < RegionNames().size(); ++i) {
    Tuple row = {Value::Int64(static_cast<int64_t>(i)),
                 Value::String(RegionNames()[i]),
                 Value::String(CommentText(&rng, 50))};
    QPP_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

Status Dbgen::GenerateNation(Table* t) {
  Rng rng(config_.seed ^ 0x4E4154ULL);
  for (size_t i = 0; i < NationNames().size(); ++i) {
    Tuple row = {Value::Int64(static_cast<int64_t>(i)),
                 Value::String(NationNames()[i]),
                 Value::Int64(NationRegionKeys()[i]),
                 Value::String(CommentText(&rng, 50))};
    QPP_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

Status Dbgen::GenerateSupplier(Table* t, Rng* rng) {
  const int64_t n = TableCardinality(kSupplier, config_.scale_factor);
  for (int64_t k = 1; k <= n; ++k) {
    const int nation = static_cast<int>(rng->UniformInt(0, 24));
    char name[32];
    std::snprintf(name, sizeof(name), "Supplier#%09lld",
                  static_cast<long long>(k));
    Tuple row = {Value::Int64(k),
                 Value::String(name),
                 Value::String(Address(rng)),
                 Value::Int64(nation),
                 Value::String(Phone(nation, rng)),
                 Value::MakeDecimal(Money(rng, -99999, 999999)),
                 Value::String(CommentText(rng, 50))};
    QPP_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

Status Dbgen::GeneratePart(Table* t, Rng* rng) {
  const int64_t n = TableCardinality(kPart, config_.scale_factor);
  const auto& colors = Colors();
  for (int64_t k = 1; k <= n; ++k) {
    // p_name: 5 distinct color words.
    std::string pname;
    for (int w = 0; w < 5; ++w) {
      if (w) pname += ' ';
      pname += Pick(colors, rng);
    }
    const int m = static_cast<int>(rng->UniformInt(1, 5));
    const int b = static_cast<int>(rng->UniformInt(1, 5));
    char mfgr[24], brand[16];
    std::snprintf(mfgr, sizeof(mfgr), "Manufacturer#%d", m);
    std::snprintf(brand, sizeof(brand), "Brand#%d%d", m, b);
    const std::string type = Pick(TypeSyllable1(), rng) + " " +
                             Pick(TypeSyllable2(), rng) + " " +
                             Pick(TypeSyllable3(), rng);
    const std::string container =
        Pick(Containers1(), rng) + " " + Pick(Containers2(), rng);
    Tuple row = {Value::Int64(k),
                 Value::String(pname),
                 Value::String(mfgr),
                 Value::String(brand),
                 Value::String(type),
                 Value::Int64(rng->UniformInt(1, 50)),
                 Value::String(container),
                 Value::MakeDecimal(PartRetailPrice(k)),
                 Value::String(CommentText(rng, 12))};
    QPP_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

Status Dbgen::GeneratePartsupp(Table* t, Rng* rng) {
  const int64_t parts = TableCardinality(kPart, config_.scale_factor);
  const int64_t suppliers = TableCardinality(kSupplier, config_.scale_factor);
  for (int64_t pk = 1; pk <= parts; ++pk) {
    for (int64_t i = 0; i < 4; ++i) {
      // Spec formula spreads the 4 suppliers of a part across the range.
      const int64_t sk =
          1 + (pk + i * (suppliers / 4 + (pk - 1) / suppliers)) % suppliers;
      Tuple row = {Value::Int64(pk), Value::Int64(sk),
                   Value::Int64(rng->UniformInt(1, 9999)),
                   Value::MakeDecimal(Money(rng, 100, 100000)),
                   Value::String(CommentText(rng, 40))};
      QPP_RETURN_NOT_OK(t->AppendRow(row));
    }
  }
  return Status::OK();
}

Status Dbgen::GenerateCustomer(Table* t, Rng* rng) {
  const int64_t n = TableCardinality(kCustomer, config_.scale_factor);
  for (int64_t k = 1; k <= n; ++k) {
    const int nation = static_cast<int>(rng->UniformInt(0, 24));
    char name[32];
    std::snprintf(name, sizeof(name), "Customer#%09lld",
                  static_cast<long long>(k));
    Tuple row = {Value::Int64(k),
                 Value::String(name),
                 Value::String(Address(rng)),
                 Value::Int64(nation),
                 Value::String(Phone(nation, rng)),
                 Value::MakeDecimal(Money(rng, -99999, 999999)),
                 Value::String(Pick(Segments(), rng)),
                 Value::String(CommentText(rng, 60))};
    QPP_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

Status Dbgen::GenerateOrdersAndLineitem(Table* orders, Table* lineitem,
                                        Rng* rng) {
  const int64_t num_orders = TableCardinality(kOrders, config_.scale_factor);
  const int64_t customers = TableCardinality(kCustomer, config_.scale_factor);
  const int64_t parts = TableCardinality(kPart, config_.scale_factor);
  const int64_t suppliers = TableCardinality(kSupplier, config_.scale_factor);
  const int order_date_span =
      kEndDate.days_since_epoch() - kStartDate.days_since_epoch() - 151;

  for (int64_t ok = 1; ok <= num_orders; ++ok) {
    const Date odate =
        kStartDate.AddDays(static_cast<int>(rng->UniformInt(0, order_date_span)));
    const int num_lines = static_cast<int>(rng->UniformInt(1, 7));
    Decimal total(0, 2);
    int f_count = 0;  // lines with linestatus 'F'
    std::vector<Tuple> lines;
    lines.reserve(static_cast<size_t>(num_lines));
    for (int ln = 1; ln <= num_lines; ++ln) {
      const int64_t partkey = rng->UniformInt(1, parts);
      // Spec-style supplier correlation: one of the part's 4 suppliers.
      const int64_t i = rng->UniformInt(0, 3);
      const int64_t suppkey =
          1 + (partkey + i * (suppliers / 4 + (partkey - 1) / suppliers)) %
                  suppliers;
      const int qty = static_cast<int>(rng->UniformInt(1, 50));
      const Decimal quantity(qty * 100, 2);
      const Decimal extended =
          PartRetailPrice(partkey).Mul(Decimal(qty, 0)).Rescale(2);
      const Decimal discount(rng->UniformInt(0, 10), 2);
      const Decimal tax(rng->UniformInt(0, 8), 2);
      const Date shipdate =
          odate.AddDays(static_cast<int>(rng->UniformInt(1, 121)));
      const Date commitdate =
          odate.AddDays(static_cast<int>(rng->UniformInt(30, 90)));
      const Date receiptdate =
          shipdate.AddDays(static_cast<int>(rng->UniformInt(1, 30)));
      const bool shipped = receiptdate <= kCurrentDate;
      std::string returnflag = "N";
      if (shipped) returnflag = rng->Bernoulli(0.5) ? "R" : "A";
      const std::string linestatus = shipdate > kCurrentDate ? "O" : "F";
      if (linestatus == "F") ++f_count;
      // o_totalprice per spec: sum of extprice * (1+tax) * (1-discount).
      const Decimal one(100, 2);
      const Decimal line_total =
          extended.Mul(one.Add(tax)).Mul(one.Sub(discount)).Rescale(2);
      total = total.Add(line_total);
      lines.push_back({Value::Int64(ok), Value::Int64(partkey),
                       Value::Int64(suppkey), Value::Int64(ln),
                       Value::MakeDecimal(quantity),
                       Value::MakeDecimal(extended),
                       Value::MakeDecimal(discount), Value::MakeDecimal(tax),
                       Value::String(returnflag), Value::String(linestatus),
                       Value::MakeDate(shipdate), Value::MakeDate(commitdate),
                       Value::MakeDate(receiptdate),
                       Value::String(Pick(ShipInstructions(), rng)),
                       Value::String(Pick(ShipModes(), rng)),
                       Value::String(CommentText(rng, 20))});
    }
    std::string status = "P";
    if (f_count == num_lines) status = "F";
    else if (f_count == 0) status = "O";
    char clerk[32];
    std::snprintf(clerk, sizeof(clerk), "Clerk#%09lld",
                  static_cast<long long>(rng->UniformInt(
                      1, std::max<int64_t>(1, num_orders / 1000))));
    Tuple orow = {Value::Int64(ok),
                  Value::Int64(rng->UniformInt(1, customers)),
                  Value::String(status),
                  Value::MakeDecimal(total),
                  Value::MakeDate(odate),
                  Value::String(Pick(Priorities(), rng)),
                  Value::String(clerk),
                  Value::Int64(0),
                  Value::String(CommentText(rng, 40))};
    QPP_RETURN_NOT_OK(orders->AppendRow(orow));
    for (const Tuple& l : lines) QPP_RETURN_NOT_OK(lineitem->AppendRow(l));
  }
  return Status::OK();
}

}  // namespace qpp::tpch

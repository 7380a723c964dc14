// Soak test for bounded learning: 100k harvested queries through one card
// and one KDE feedback loop. The card loop sees a new signature on every
// harvest, so its LRU eviction runs the whole time; once the bounds are
// reached, sizes stay put, superseded snapshots are freed and RSS stays
// flat.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "card/feedback.h"
#include "golden.h"
#include "kde/feedback.h"
#include "workload/query_log.h"

namespace qpp {
namespace {

constexpr int kHarvests = 100000;
/// RSS is compared between this harvest and the last one.
constexpr int kRssBaselineAt = 10000;
/// Allowed RSS growth over the last 90k harvests (~0.1 MB measured on a
/// 4-vCPU x86-64 Linux host, RelWithDebInfo build).
/// Retaining every harvested card observation, two per harvest here, grows
/// RSS by ~7 MB.
constexpr double kMaxRssGrowthMb = 2.0;

/// Resident set size of this process in MB (Linux /proc/self/statm).
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// ASan keeps freed blocks in a quarantine (256 MB by default), so RSS
/// there measures the allocator, not the program; the size and snapshot
/// bounds are still checked.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssMeaningful = false;
#else
constexpr bool kRssMeaningful = true;
#endif

/// A two-operator record: an aggregate whose signature never changes over
/// a band scan of the golden KDE bundle's "sensor" table whose signature is
/// new on every call.
QueryRecord SoakRecord(int i) {
  QueryRecord record;
  record.ops.resize(2);
  OperatorRecord& agg = record.ops[0];
  agg.node_id = 0;
  agg.left_child = 1;
  agg.op = PlanOp::kHashAggregate;
  agg.card_signature = 1;
  agg.card_class = 1;
  agg.est.rows = 1.0;
  agg.actual.valid = true;
  agg.actual.rows = 1.0;

  OperatorRecord& scan = record.ops[1];
  scan.node_id = 1;
  scan.parent_id = 0;
  scan.op = PlanOp::kSeqScan;
  scan.card_signature = 2 + static_cast<uint64_t>(i);
  scan.card_class = 2;
  scan.card_features = {static_cast<double>(i % 7), 1.0, 2.0};
  scan.est.rows = 4.0;
  scan.actual.valid = true;
  scan.actual.rows = static_cast<double>(1 + i % 5);
  const double lo = static_cast<double>(i % 60);
  scan.bounds.table = "sensor";
  scan.bounds.table_rows = 12.0;
  scan.bounds.exhaustive = true;
  for (const char* column : {"x", "y"}) {
    ColumnBound cb;
    cb.column = column;
    cb.lo = lo;
    cb.hi = lo + 30.0;
    cb.has_lo = cb.has_hi = true;
    scan.bounds.columns.push_back(cb);
  }
  return record;
}

TEST(LearnSoakTest, HarvestsStayBoundedAndFreeOldSnapshots) {
  card::CardFeedbackConfig card_cfg;
  card_cfg.cache.max_signatures = 64;
  card_cfg.cache.max_observations_per_signature = 8;
  card::CardFeedbackLoop card(card_cfg);
  kde::KdeFeedbackLoop kde;
  ASSERT_TRUE(kde.LoadFromFile(TestDataDir() + "/golden_kde.qppk").ok());

  const std::weak_ptr<const kde::KdeSnapshot> early_kde =
      kde.CurrentSnapshot();
  ASSERT_FALSE(early_kde.expired());
  std::weak_ptr<const card::CardSnapshot> early_card;
  double rss_baseline = 0.0;
  const size_t max_observations =
      card_cfg.cache.max_signatures *
      card_cfg.cache.max_observations_per_signature;
  for (int i = 1; i <= kHarvests; ++i) {
    const QueryRecord record = SoakRecord(i);
    ASSERT_TRUE(card.HarvestRecord(record).ok());
    ASSERT_TRUE(kde.HarvestRecord(record).ok());
    if (i == 100) {
      const auto snap = card.CurrentSnapshot();
      ASSERT_NE(snap, nullptr);
      early_card = snap;
    }
    if (i % 1000 == 0) {
      ASSERT_LE(card.cache()->size(), card_cfg.cache.max_signatures);
      ASSERT_LE(card.cache()->observation_count(), max_observations);
    }
    if (i == kRssBaselineAt) rss_baseline = RssMb();
  }
  const double rss_growth = RssMb() - rss_baseline;
  std::printf("RSS growth from harvest %d to %d: %.3f MB\n", kRssBaselineAt,
              kHarvests, rss_growth);

  EXPECT_EQ(card.harvested_queries(), static_cast<uint64_t>(kHarvests));
  EXPECT_EQ(card.cache()->size(), card_cfg.cache.max_signatures);
  EXPECT_EQ(card.cache()->evictions(),
            kHarvests + 1 - card_cfg.cache.max_signatures);
  EXPECT_EQ(kde.harvested_queries(), static_cast<uint64_t>(kHarvests));
  EXPECT_GT(kde.bandwidth_updates(), 0u);
  EXPECT_TRUE(early_card.expired());
  EXPECT_TRUE(early_kde.expired());
  if (kRssMeaningful) {
    EXPECT_LT(rss_growth, kMaxRssGrowthMb);
  }
}

}  // namespace
}  // namespace qpp

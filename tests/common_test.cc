#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/bundle.h"
#include "common/date.h"
#include "common/decimal.h"
#include "common/published.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace qpp {
namespace {

// ----------------------------- Status / Result ------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "Not found: missing table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),   Status::OutOfRange("x").code(),
      Status::NotImplemented("x").code(),  Status::Internal("x").code(),
      Status::IOError("x").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  QPP_ASSIGN_OR_RETURN(int h, Half(x));
  QPP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

// ----------------------------------- Rng ------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.Gaussian();
  EXPECT_NEAR(Mean(v), 0.0, 0.03);
  EXPECT_NEAR(Stddev(v), 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.Exponential(2.0);
  EXPECT_NEAR(Mean(v), 0.5, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(15);
  auto p = rng.Permutation(50);
  std::set<size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --------------------------------- Decimal ----------------------------------

TEST(DecimalTest, FromStringBasics) {
  auto d = Decimal::FromString("123.45");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->unscaled(), 12345);
  EXPECT_EQ(d->scale(), 2);
  EXPECT_EQ(d->ToString(), "123.45");
}

TEST(DecimalTest, FromStringNegative) {
  auto d = Decimal::FromString("-0.07");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->unscaled(), -7);
  EXPECT_EQ(d->ToString(), "-0.07");
}

TEST(DecimalTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(Decimal::FromString("").ok());
  EXPECT_FALSE(Decimal::FromString("abc").ok());
  EXPECT_FALSE(Decimal::FromString("1.2.3").ok());
  EXPECT_FALSE(Decimal::FromString("-").ok());
}

TEST(DecimalTest, FromDoubleRounds) {
  // 1.125 is exactly representable in binary, so the half case is exact.
  EXPECT_EQ(Decimal::FromDouble(1.125, 2).unscaled(), 113);  // half away from 0
  EXPECT_EQ(Decimal::FromDouble(-1.125, 2).unscaled(), -113);
  EXPECT_EQ(Decimal::FromDouble(2.0, 0).unscaled(), 2);
  EXPECT_EQ(Decimal::FromDouble(1.2, 1).unscaled(), 12);
}

TEST(DecimalTest, AddAlignsScales) {
  const Decimal a(150, 2);   // 1.50
  const Decimal b(25, 1);    // 2.5
  const Decimal sum = a.Add(b);
  EXPECT_EQ(sum.ToString(), "4.00");
  EXPECT_EQ(sum.scale(), 2);
}

TEST(DecimalTest, SubCrossesZero) {
  const Decimal a(100, 2);
  const Decimal b(250, 2);
  EXPECT_EQ(a.Sub(b).ToString(), "-1.50");
}

TEST(DecimalTest, MulAddsScales) {
  const Decimal a(150, 2);  // 1.50
  const Decimal b(200, 2);  // 2.00
  const Decimal p = a.Mul(b);
  EXPECT_EQ(p.scale(), 4);
  EXPECT_EQ(p.ToString(), "3.0000");
}

TEST(DecimalTest, MulLargeValuesExact) {
  // 99999.99 * 99999.99 = 9999998000.0001
  const Decimal a(9999999, 2);
  const Decimal p = a.Mul(a);
  EXPECT_EQ(p.scale(), 4);
  EXPECT_EQ(p.unscaled(), 99999980000001LL);
}

TEST(DecimalTest, DivProducesExtendedScale) {
  const Decimal a(100, 2);  // 1.00
  const Decimal b(300, 2);  // 3.00
  const Decimal q = a.Div(b);
  EXPECT_EQ(q.scale(), 4);
  EXPECT_NEAR(q.ToDouble(), 1.0 / 3.0, 1e-4);
}

TEST(DecimalTest, DivByZeroYieldsZero) {
  EXPECT_EQ(Decimal(100, 2).Div(Decimal(0, 2)).ToDouble(), 0.0);
}

TEST(DecimalTest, RescaleRounds) {
  EXPECT_EQ(Decimal(149, 2).Rescale(1).unscaled(), 15);   // 1.49 -> 1.5
  EXPECT_EQ(Decimal(144, 2).Rescale(1).unscaled(), 14);   // 1.44 -> 1.4
  EXPECT_EQ(Decimal(-149, 2).Rescale(1).unscaled(), -15);
  EXPECT_EQ(Decimal(15, 1).Rescale(3).unscaled(), 1500);
}

TEST(DecimalTest, CompareMixedScales) {
  EXPECT_TRUE(Decimal(150, 2) < Decimal(16, 1));   // 1.50 < 1.6
  EXPECT_TRUE(Decimal(150, 2) == Decimal(15, 1));  // 1.50 == 1.5
  EXPECT_TRUE(Decimal(-5, 0) < Decimal(0, 2));
  EXPECT_TRUE(Decimal(5, 0) > Decimal(-5, 0));
}

// Regression tests for extreme-value paths that previously hit signed
// overflow / out-of-range float->int UB (caught by the UBSan gate). The
// contract at the int64 boundary is saturation, not wraparound.

TEST(DecimalTest, FromStringRejectsOverflow) {
  // One digit past INT64_MAX's 19 digits must be a clean error, not a
  // silently wrapped value.
  EXPECT_FALSE(Decimal::FromString("9223372036854775808").ok());
  EXPECT_FALSE(Decimal::FromString("-9223372036854775808.1").ok());
  EXPECT_FALSE(Decimal::FromString("99999999999999999999999").ok());
  auto max = Decimal::FromString("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->unscaled(), std::numeric_limits<int64_t>::max());
}

TEST(DecimalTest, FromDoubleSaturatesAndHandlesNan) {
  EXPECT_EQ(Decimal::FromDouble(1e30, 2).unscaled(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Decimal::FromDouble(-1e30, 2).unscaled(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Decimal::FromDouble(std::nan(""), 2).unscaled(), 0);
  EXPECT_EQ(Decimal::FromDouble(std::numeric_limits<double>::infinity(), 0)
                .unscaled(),
            std::numeric_limits<int64_t>::max());
}

TEST(DecimalTest, ArithmeticSaturatesAtInt64) {
  const Decimal max(std::numeric_limits<int64_t>::max(), 0);
  const Decimal min(std::numeric_limits<int64_t>::min(), 0);
  EXPECT_EQ(max.Add(Decimal(1, 0)).unscaled(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(min.Sub(Decimal(1, 0)).unscaled(),
            std::numeric_limits<int64_t>::min());
  // Negating INT64_MIN saturates instead of overflowing.
  EXPECT_EQ(Decimal(0, 0).Sub(min).unscaled(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(max.Mul(max).unscaled(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(max.Mul(Decimal(-2, 0)).unscaled(),
            std::numeric_limits<int64_t>::min());
}

TEST(DecimalTest, ToStringHandlesInt64Min) {
  // |INT64_MIN| is not representable as int64; magnitude math must be
  // unsigned.
  EXPECT_EQ(Decimal(std::numeric_limits<int64_t>::min(), 0).ToString(),
            "-9223372036854775808");
  EXPECT_EQ(Decimal(std::numeric_limits<int64_t>::min(), 2).ToString(),
            "-92233720368547758.08");
}

TEST(DecimalTest, DivByHugeDenominator) {
  // Exercises the limb division path with a denominator far above the limb
  // base; previously overflowed the partial remainder.
  const Decimal num(1000, 2);  // 10.00
  const Decimal denom(std::numeric_limits<int64_t>::max(), 0);
  EXPECT_EQ(num.Div(denom).unscaled(), 0);
  const Decimal big(4000000000000000000LL, 0);
  const Decimal q = Decimal(8000000000000000000LL, 0).Div(big);
  EXPECT_NEAR(q.ToDouble(), 2.0, 1e-9);
}

// Property sweep: decimal arithmetic agrees with double arithmetic to
// rounding tolerance across a deterministic sample of operand pairs.
class DecimalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecimalPropertyTest, ArithmeticMatchesDouble) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Decimal a(rng.UniformInt(-1000000, 1000000), 2);
    const Decimal b(rng.UniformInt(-1000000, 1000000), 2);
    EXPECT_NEAR(a.Add(b).ToDouble(), a.ToDouble() + b.ToDouble(), 1e-6);
    EXPECT_NEAR(a.Sub(b).ToDouble(), a.ToDouble() - b.ToDouble(), 1e-6);
    EXPECT_NEAR(a.Mul(b).ToDouble(), a.ToDouble() * b.ToDouble(), 1e-2);
    if (b.unscaled() != 0) {
      EXPECT_NEAR(a.Div(b).ToDouble(), a.ToDouble() / b.ToDouble(),
                  std::abs(a.ToDouble() / b.ToDouble()) * 1e-3 + 1e-3);
    }
    const int cmp = a.Compare(b);
    const double diff = a.ToDouble() - b.ToDouble();
    if (diff < 0) {
      EXPECT_EQ(cmp, -1);
    } else if (diff > 0) {
      EXPECT_EQ(cmp, 1);
    } else {
      EXPECT_EQ(cmp, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecimalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DecimalTest, StringRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const Decimal d(rng.UniformInt(-10000000, 10000000),
                    static_cast<int>(rng.UniformInt(0, 6)));
    auto parsed = Decimal::FromString(d.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->Compare(d), 0) << d.ToString();
  }
}

// ----------------------------------- Date -----------------------------------

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(Date::FromYmd(1970, 1, 1).days_since_epoch(), 0);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(Date::FromYmd(1992, 1, 1).days_since_epoch(), 8035);
  EXPECT_EQ(Date::FromYmd(1998, 12, 31).ToString(), "1998-12-31");
}

TEST(DateTest, ParseAndFormatRoundTrip) {
  auto d = Date::FromString("1995-06-17");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "1995-06-17");
  EXPECT_EQ(d->year(), 1995);
  EXPECT_EQ(d->month(), 6);
  EXPECT_EQ(d->day(), 17);
}

TEST(DateTest, ParseRejectsInvalid) {
  EXPECT_FALSE(Date::FromString("1995-13-01").ok());
  EXPECT_FALSE(Date::FromString("1995-02-30").ok());
  EXPECT_FALSE(Date::FromString("19950230").ok());
  EXPECT_FALSE(Date::FromString("").ok());
}

TEST(DateTest, LeapYearHandling) {
  EXPECT_TRUE(Date::FromString("1996-02-29").ok());
  EXPECT_FALSE(Date::FromString("1900-02-29").ok());  // 1900 not a leap year
  EXPECT_TRUE(Date::FromString("2000-02-29").ok());   // 2000 is
}

TEST(DateTest, AddDays) {
  const Date d = Date::FromYmd(1995, 12, 31);
  EXPECT_EQ(d.AddDays(1).ToString(), "1996-01-01");
  EXPECT_EQ(d.AddDays(-365).ToString(), "1994-12-31");
}

TEST(DateTest, AddMonthsClampsDay) {
  EXPECT_EQ(Date::FromYmd(1995, 1, 31).AddMonths(1).ToString(), "1995-02-28");
  EXPECT_EQ(Date::FromYmd(1996, 1, 31).AddMonths(1).ToString(), "1996-02-29");
  EXPECT_EQ(Date::FromYmd(1995, 11, 30).AddMonths(3).ToString(), "1996-02-29");
}

TEST(DateTest, AddYears) {
  EXPECT_EQ(Date::FromYmd(1993, 6, 15).AddYears(4).ToString(), "1997-06-15");
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date::FromYmd(1992, 1, 1), Date::FromYmd(1992, 1, 2));
  EXPECT_LE(Date::FromYmd(1992, 1, 1), Date::FromYmd(1992, 1, 1));
}

class DateRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTripTest, CivilConversionsInvert) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const int32_t days = static_cast<int32_t>(rng.UniformInt(-40000, 40000));
    const Date d(days);
    const Date rebuilt = Date::FromYmd(d.year(), d.month(), d.day());
    EXPECT_EQ(rebuilt.days_since_epoch(), days);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DateRoundTripTest, ::testing::Values(1, 2, 3));

// ---------------------------------- Stats -----------------------------------

TEST(StatsTest, MeanVarianceStddev) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(Stddev(v), std::sqrt(1.25));
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(StatsTest, RelativeErrorMetrics) {
  const std::vector<double> actual = {10, 100};
  const std::vector<double> est = {5, 110};  // errors 0.5, 0.1
  EXPECT_NEAR(MeanRelativeError(actual, est), 0.3, 1e-12);
  EXPECT_NEAR(MaxRelativeError(actual, est), 0.5, 1e-12);
  EXPECT_NEAR(MinRelativeError(actual, est), 0.1, 1e-12);
}

TEST(StatsTest, RelativeErrorSkipsZeroActuals) {
  EXPECT_NEAR(MeanRelativeError({0, 10}, {5, 20}), 1.0, 1e-12);
}

// Regression for the deduped per-pair helper: the former per-file RelErr
// copies returned 0.0 for actual == 0, silently biasing averages toward
// zero; the shared helper makes the undefined case explicit instead.
TEST(StatsTest, RelativeErrorSingle) {
  ASSERT_TRUE(RelativeError(10.0, 5.0).has_value());
  EXPECT_NEAR(*RelativeError(10.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(*RelativeError(-10.0, -5.0), 0.5, 1e-12);
  EXPECT_NEAR(*RelativeError(4.0, 4.0), 0.0, 1e-12);
  EXPECT_FALSE(RelativeError(0.0, 5.0).has_value());
  EXPECT_FALSE(RelativeError(0.0, 0.0).has_value());
}

// The aggregate metrics must agree with folding the per-pair helper, zeros
// skipped — one convention everywhere.
TEST(StatsTest, RelativeErrorAggregatesMatchSingle) {
  const std::vector<double> actual = {0, 10, 100};
  const std::vector<double> est = {5, 5, 110};
  double sum = 0.0;
  int n = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (auto rel = RelativeError(actual[i], est[i])) {
      sum += *rel;
      ++n;
    }
  }
  ASSERT_EQ(n, 2);
  EXPECT_NEAR(MeanRelativeError(actual, est), sum / n, 1e-12);
}

TEST(StatsTest, RSquaredPerfectFit) {
  const std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(RSquared(y, y), 1.0);
  EXPECT_DOUBLE_EQ(PredictiveRisk(y, y), 1.0);
}

TEST(StatsTest, RSquaredMeanPredictorIsZero) {
  const std::vector<double> y = {1, 2, 3};
  const std::vector<double> mean_pred = {2, 2, 2};
  EXPECT_DOUBLE_EQ(RSquared(y, mean_pred), 0.0);
}

// ---------------------------------- Bundle ----------------------------------

constexpr BundleFormat kTestFormat{"qpp-test-bundle v1", "test bundle"};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

TEST(BundleTest, RoundTripsHeaderFieldsAndPayload) {
  const std::string path = ::testing::TempDir() + "/common_bundle.qpp";
  const std::string payload = "line one\nline|two\n";
  ASSERT_TRUE(WriteBundle(path, kTestFormat, payload, {{"method", "hybrid"}})
                  .ok());
  const std::string file = ReadAll(path);
  EXPECT_EQ(file.substr(0, file.find("checksum ")),
            "qpp-test-bundle v1\nmethod hybrid\nbytes 18\n");
  EXPECT_EQ(file.substr(file.size() - payload.size()), payload);
  auto header = ReadBundleHeader(path, kTestFormat, {"method"});
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->values, std::vector<std::string>{"hybrid"});
  EXPECT_EQ(header->payload_bytes, payload.size());
  auto read = ReadBundlePayload(path, kTestFormat, {"method"});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(BundleTest, RejectsCorruptTruncatedAndForeignFilesNamingThePath) {
  const std::string path = ::testing::TempDir() + "/common_bundle_bad.qpp";
  ASSERT_TRUE(WriteBundle(path, kTestFormat, "0123456789abcdef\n").ok());
  const std::string good = ReadAll(path);
  const auto error = [&](const std::string& bytes) {
    WriteAll(path, bytes);
    auto read = ReadBundlePayload(path, kTestFormat);
    EXPECT_FALSE(read.ok());
    const std::string message = read.status().message();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    return message;
  };
  std::string flipped = good;
  flipped[flipped.size() - 3] ^= 0x01;
  EXPECT_NE(error(flipped).find("checksum mismatch"), std::string::npos);
  EXPECT_NE(error(good.substr(0, good.size() - 4)).find("truncated"),
            std::string::npos);
  EXPECT_NE(error("qpp-model-bundle v1\n" + good.substr(good.find('\n') + 1))
                .find("not a qpp test bundle"),
            std::string::npos);
  WriteAll(path, good);
  EXPECT_FALSE(ReadBundlePayload(path, kTestFormat, {"method"}).ok());
}

TEST(BundleTest, PayloadHelpersAreStrict) {
  EXPECT_EQ(SplitPipe("a||b"), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitPipe(""), std::vector<std::string>{""});
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e-3", "x"), 2.5e-3);
  EXPECT_FALSE(ParseDouble("2.5x", "x").ok());
  EXPECT_FALSE(ParseDouble("", "x").ok());
  EXPECT_EQ(*ParseU64("18446744073709551615", "n"), UINT64_MAX);
  EXPECT_FALSE(ParseU64("12 ", "n").ok());
  std::ostringstream out;
  AppendDouble(&out, 0.1);
  EXPECT_EQ(out.str(), "0.10000000000000001");
}

// --------------------------------- Published --------------------------------

/// A generation whose every element equals its version, so a reader can
/// tell a torn or mutated snapshot from an intact one.
struct Generation {
  uint64_t version = 0;
  std::vector<uint64_t> payload;
};

std::shared_ptr<const Generation> MakeGeneration(uint64_t v) {
  return std::make_shared<const Generation>(
      Generation{v, std::vector<uint64_t>(v % 16 + 1, v)});
}

bool Intact(const Generation& g) {
  for (uint64_t x : g.payload) {
    if (x != g.version) return false;
  }
  return g.payload.size() == g.version % 16 + 1;
}

TEST(PublishedTest, UnreferencedGenerationIsFreedByTheNextPublish) {
  Published<Generation> slot;
  EXPECT_EQ(slot.Load(), nullptr);
  EXPECT_EQ(slot.version(), 0u);
  EXPECT_EQ(slot.Publish(MakeGeneration), 1u);
  const std::weak_ptr<const Generation> first = slot.Load();
  ASSERT_FALSE(first.expired());
  EXPECT_EQ(slot.Publish(MakeGeneration), 2u);
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(slot.Load()->version, 2u);
}

TEST(PublishedTest, HeldGenerationAnswersUnchangedAfterManyPublishes) {
  Published<Generation> slot;
  slot.Publish(MakeGeneration);
  const std::shared_ptr<const Generation> held = slot.Load();
  const std::vector<uint64_t> before = held->payload;
  for (int i = 0; i < 1000; ++i) slot.Publish(MakeGeneration);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->payload, before);
  EXPECT_EQ(slot.version(), 1001u);
  EXPECT_EQ(slot.Load()->version, 1001u);
}

TEST(PublishedTest, RacingPublishersNumberGenerationsInOrder) {
  Published<Generation> slot;
  constexpr int kPublishers = 4;
  constexpr int kEach = 200;
  uint64_t last_made = 0;  // only touched inside make, which is serialized
  std::vector<std::vector<uint64_t>> returned(kPublishers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kPublishers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        returned[static_cast<size_t>(t)].push_back(
            slot.Publish([&last_made](uint64_t v) {
              EXPECT_EQ(v, last_made + 1);
              last_made = v;
              return MakeGeneration(v);
            }));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  for (const auto& versions : returned) {
    for (size_t i = 1; i < versions.size(); ++i) {
      EXPECT_LT(versions[i - 1], versions[i]);
    }
    all.insert(versions.begin(), versions.end());
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kPublishers * kEach));
  EXPECT_EQ(*all.rbegin(), static_cast<uint64_t>(kPublishers * kEach));
  EXPECT_EQ(slot.version(), static_cast<uint64_t>(kPublishers * kEach));
}

TEST(PublishedTest, ReadersRacePublishers) {
  Published<Generation> slot;
  slot.Publish(MakeGeneration);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&slot, &stop] {
      uint64_t seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const Generation> g = slot.Load();
        ASSERT_NE(g, nullptr);
        ASSERT_TRUE(Intact(*g));
        ASSERT_GE(g->version, seen);
        seen = g->version;
      }
    });
  }
  std::thread publisher([&slot] {
    for (int i = 0; i < 2000; ++i) slot.Publish(MakeGeneration);
  });
  publisher.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(slot.version(), 2001u);
}

}  // namespace
}  // namespace qpp

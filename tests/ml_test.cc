#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "ml/linreg.h"
#include "ml/svr.h"
#include "ml/validation.h"

namespace qpp {
namespace {

// -------------------------------- Cholesky ----------------------------------

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> b = {10, 8};
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, b, 2, &x));
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsNonSpd) {
  std::vector<double> a = {1, 2, 2, 1};  // indefinite
  std::vector<double> b = {1, 1};
  std::vector<double> x;
  EXPECT_FALSE(CholeskySolve(a, b, 2, &x));
}

TEST(CholeskyTest, IdentitySolve) {
  std::vector<double> a = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> b = {3, -1, 2};
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve(a, b, 3, &x));
  EXPECT_NEAR(x[0], 3, 1e-12);
  EXPECT_NEAR(x[1], -1, 1e-12);
  EXPECT_NEAR(x[2], 2, 1e-12);
}

// ----------------------------- LinearRegression -----------------------------

TEST(LinRegTest, RecoversExactLinearFunction) {
  Rng rng(1);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.UniformDouble(0, 10);
    const double b = rng.UniformDouble(-5, 5);
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 7.0);
  }
  LinearRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.coefficients()[0], 3.0, 1e-4);
  EXPECT_NEAR(m.coefficients()[1], -2.0, 1e-4);
  EXPECT_NEAR(m.intercept(), 7.0, 1e-4);
  EXPECT_NEAR(m.Predict({2.0, 1.0}), 3 * 2 - 2 * 1 + 7, 1e-4);
}

TEST(LinRegTest, HandlesNoisyData) {
  Rng rng(2);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.UniformDouble(0, 1);
    x.push_back({a});
    y.push_back(5.0 * a + rng.Gaussian(0, 0.1));
  }
  LinearRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.coefficients()[0], 5.0, 0.1);
}

TEST(LinRegTest, ConstantFeatureDoesNotBlowUp) {
  FeatureMatrix x = {{1, 5}, {1, 6}, {1, 7}, {1, 8}};
  std::vector<double> y = {10, 12, 14, 16};
  LinearRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.Predict({1, 9}), 18.0, 1e-4);
}

TEST(LinRegTest, CollinearFeaturesHandledByRidge) {
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = i;
    x.push_back({v, 2 * v});  // perfectly collinear
    y.push_back(3 * v);
  }
  LinearRegression m(1e-4);
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.Predict({10, 20}), 30.0, 0.5);
}

TEST(LinRegTest, RejectsBadInput) {
  LinearRegression m;
  EXPECT_FALSE(m.Fit({}, {}).ok());
  EXPECT_FALSE(m.Fit({{1}}, {1, 2}).ok());
  EXPECT_FALSE(m.Fit({{1, 2}, {1}}, {1, 2}).ok());
}

TEST(LinRegTest, SerializationRoundTrip) {
  FeatureMatrix x = {{1, 2}, {2, 3}, {3, 5}, {4, 4}};
  std::vector<double> y = {1, 2, 3, 4};
  LinearRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  auto restored = DeserializeModel(m.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const auto& row : x) {
    EXPECT_NEAR((*restored)->Predict(row), m.Predict(row), 1e-12);
  }
}

// ----------------------------------- SVR ------------------------------------

TEST(SvrTest, FitsLinearFunction) {
  Rng rng(3);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    const double a = rng.UniformDouble(0, 1);
    x.push_back({a});
    y.push_back(10.0 * a + 5.0);
  }
  SvRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  double err = 0;
  for (int i = 0; i < 150; ++i) err += std::abs(m.Predict(x[i]) - y[i]);
  EXPECT_LT(err / 150, 0.5);
  EXPECT_GT(m.num_support_vectors(), 0);
}

TEST(SvrTest, FitsNonlinearFunction) {
  // RBF kernel should capture a sine that linear regression cannot.
  Rng rng(4);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.UniformDouble(0, 2 * M_PI);
    x.push_back({a});
    y.push_back(std::sin(a));
  }
  SvrConfig cfg;
  cfg.gamma = 20.0;
  SvRegression svr(cfg);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  LinearRegression lin;
  ASSERT_TRUE(lin.Fit(x, y).ok());
  double svr_err = 0, lin_err = 0;
  for (int i = 0; i < 200; ++i) {
    svr_err += std::abs(svr.Predict(x[i]) - y[i]);
    lin_err += std::abs(lin.Predict(x[i]) - y[i]);
  }
  EXPECT_LT(svr_err, lin_err * 0.3);
}

TEST(SvrTest, LinearKernelWorks) {
  SvrConfig cfg;
  cfg.kernel = KernelType::kLinear;
  SvRegression m(cfg);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(2.0 * i + 1);
  }
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.Predict({30.0}), 61.0, 61.0 * 0.1);
}

TEST(SvrTest, ConstantTargetPredictsConstant) {
  FeatureMatrix x = {{1}, {2}, {3}, {4}};
  std::vector<double> y = {5, 5, 5, 5};
  SvRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  EXPECT_NEAR(m.Predict({2.5}), 5.0, 0.5);
}

TEST(SvrTest, RejectsBadInput) {
  SvRegression m;
  EXPECT_FALSE(m.Fit({}, {}).ok());
  EXPECT_FALSE(m.Fit({{1}}, {1, 2}).ok());
}

TEST(SvrTest, SerializationRoundTrip) {
  Rng rng(5);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    const double a = rng.UniformDouble(0, 1);
    const double b = rng.UniformDouble(0, 1);
    x.push_back({a, b});
    y.push_back(a * a + b);
  }
  SvRegression m;
  ASSERT_TRUE(m.Fit(x, y).ok());
  auto restored = DeserializeModel(m.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (int i = 0; i < 80; i += 7) {
    EXPECT_NEAR((*restored)->Predict(x[i]), m.Predict(x[i]), 1e-9);
  }
}

TEST(ModelFactoryTest, MakesBothFamilies) {
  EXPECT_FALSE(DeserializeModel("garbage|1|2").ok());
  EXPECT_FALSE(DeserializeModel("").ok());
}

// Malformed numbers are errors, never exceptions or silent zeros; the valid
// payloads beside them show each case fails for the field it breaks.
TEST(ModelFactoryTest, MalformedNumbersAreErrors) {
  EXPECT_TRUE(DeserializeModel("linreg|0|1|1|2").ok());
  EXPECT_TRUE(DeserializeModel("svr|0|1|0.1|1|0|1|1|1|0|1|0.5|0").ok());
  for (const char* text : {
           "linreg|abc|0|0", "linreg|0|1|1|2x", "linreg|0|1|one|2",
           "linreg|0|1|2|2",
           "svr|2|1|0.1|1|0|1|1|1|0|1|0.5|0",   // kernel out of range
           "svr|0|1|0.1|1|0|1|1|1|0|1|zz|0",    // bad dual coefficient
           "svr|0|1|0.1|1|0|1|1|x|0|1|0.5|0",   // bad support count
           // 9 + 2d + sv(1+d) wraps to the field count for d = 2^63, sv = 2.
           "svr|0|1|0.1|1|0|1|9223372036854775808|2|0|0"}) {
    EXPECT_FALSE(DeserializeModel(text).ok()) << text;
  }
}

// ------------------------------- Validation ---------------------------------

TEST(KFoldTest, PartitionsAllSamples) {
  Rng rng(6);
  auto folds = KFold(100, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> tested;
  for (const auto& f : folds) {
    EXPECT_EQ(f.train.size() + f.test.size(), 100u);
    for (size_t idx : f.test) {
      EXPECT_TRUE(tested.insert(idx).second) << "sample tested twice";
    }
  }
  EXPECT_EQ(tested.size(), 100u);
}

TEST(KFoldTest, TrainAndTestDisjoint) {
  Rng rng(7);
  auto folds = KFold(30, 3, &rng);
  for (const auto& f : folds) {
    std::set<size_t> train(f.train.begin(), f.train.end());
    for (size_t idx : f.test) EXPECT_FALSE(train.count(idx));
  }
}

TEST(StratifiedKFoldTest, BalancesStrata) {
  // 3 strata of 10 samples each; every fold's test set should hold 2 of each.
  std::vector<int> strata;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 10; ++i) strata.push_back(s);
  }
  Rng rng(8);
  auto folds = StratifiedKFold(strata, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  for (const auto& f : folds) {
    int per_stratum[3] = {0, 0, 0};
    for (size_t idx : f.test) per_stratum[strata[idx]]++;
    EXPECT_EQ(per_stratum[0], 2);
    EXPECT_EQ(per_stratum[1], 2);
    EXPECT_EQ(per_stratum[2], 2);
  }
}

TEST(CrossValidateTest, NearZeroErrorOnLearnableData) {
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(2.0 * i + 10);
  }
  Rng rng(9);
  auto folds = KFold(100, 5, &rng);
  LinearRegression proto;
  auto cv = CrossValidate(proto, x, y, folds);
  ASSERT_TRUE(cv.ok());
  EXPECT_LT(cv->mean_relative_error, 1e-4);
  EXPECT_EQ(cv->predictions.size(), 100u);
}

TEST(CrossValidateTest, RejectsEmptyData) {
  LinearRegression proto;
  EXPECT_FALSE(CrossValidate(proto, {}, {}, {}).ok());
}

}  // namespace
}  // namespace qpp

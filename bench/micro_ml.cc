// Microbenchmarks for the ML substrate: model fitting and prediction cost.
// The paper's online method builds models at query arrival time, so model
// build latency is a first-class concern (Section 4).

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/check.h"
#include "common/rng.h"
#include "ml/linreg.h"
#include "ml/svr.h"
#include "ml/validation.h"

namespace qpp {
namespace {

void MakeData(int n, int d, FeatureMatrix* x, std::vector<double>* y) {
  Rng rng(42);
  x->clear();
  y->clear();
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(d));
    double target = 0;
    for (int j = 0; j < d; ++j) {
      row[static_cast<size_t>(j)] = rng.UniformDouble(0, 1);
      target += (j + 1) * row[static_cast<size_t>(j)];
    }
    x->push_back(std::move(row));
    y->push_back(target + rng.Gaussian(0, 0.1));
  }
}

void BM_LinRegFit(benchmark::State& state) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeData(static_cast<int>(state.range(0)), 9, &x, &y);
  for (auto _ : state) {
    LinearRegression m;
    benchmark::DoNotOptimize(m.Fit(x, y));
  }
}
BENCHMARK(BM_LinRegFit)->Arg(100)->Arg(500)->Arg(2000);

void BM_LinRegPredict(benchmark::State& state) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeData(500, 9, &x, &y);
  LinearRegression m;
  bench::CheckOk(m.Fit(x, y), "LinearRegression::Fit");
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Predict(x[0]));
  }
}
BENCHMARK(BM_LinRegPredict);

void BM_SvrFit(benchmark::State& state) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeData(static_cast<int>(state.range(0)), 31, &x, &y);
  for (auto _ : state) {
    SvRegression m;
    benchmark::DoNotOptimize(m.Fit(x, y));
  }
}
BENCHMARK(BM_SvrFit)->Arg(50)->Arg(200)->Arg(500);

void BM_SvrPredict(benchmark::State& state) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeData(200, 31, &x, &y);
  SvRegression m;
  bench::CheckOk(m.Fit(x, y), "SvRegression::Fit");
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Predict(x[0]));
  }
}
BENCHMARK(BM_SvrPredict);

// 5-fold cross-validation of a linear model, the whole CrossValidate call.
void BM_CrossValidate(benchmark::State& state) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeData(400, 9, &x, &y);
  Rng rng(7);
  const std::vector<Fold> folds = KFold(y.size(), 5, &rng);
  LinearRegression proto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CrossValidate(proto, x, y, folds));
  }
}
BENCHMARK(BM_CrossValidate);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("micro_ml");

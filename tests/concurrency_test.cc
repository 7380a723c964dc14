// Determinism and safety contract of the training-side parallelism: the
// thread pool itself, bit-identical results from CrossValidate at 1 vs 4
// threads, and one OnlinePredictor shared by several predicting threads.
// These tests are the ones scripts/tier1.sh re-runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/linreg.h"
#include "ml/svr.h"
#include "ml/validation.h"
#include "qpp/online.h"
#include "workload/synthetic.h"

namespace qpp {
namespace {

// ------------------------------- ThreadPool ---------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  Status st = pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsOk) {
  ThreadPool pool(4);
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) {
                    return Status::Internal("never called");
                  }).ok());
}

TEST(ThreadPoolTest, ReportsLowestFailingIndex) {
  ThreadPool pool(4);
  // Indices 3 and 7 both fail; the reported Status must be index 3's
  // regardless of which thread finished first.
  for (int repeat = 0; repeat < 20; ++repeat) {
    Status st = pool.ParallelFor(16, [&](size_t i) {
      if (i == 3) return Status::InvalidArgument("boom at 3");
      if (i == 7) return Status::OutOfRange("boom at 7");
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), "boom at 3");
  }
}

TEST(ThreadPoolTest, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(8, [&](size_t i) -> Status {
    if (i == 5) throw std::runtime_error("kaboom");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("kaboom"), std::string::npos);
}

TEST(ThreadPoolTest, SubmitDeliversStatusThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return Status::OK(); });
  auto bad = pool.Submit([]() -> Status { throw std::runtime_error("sub"); });
  EXPECT_TRUE(ok.get().ok());
  Status st = bad.get();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("sub"), std::string::npos);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_hits(64);
  Status st = pool.ParallelFor(8, [&](size_t outer) {
    return pool.ParallelFor(8, [&](size_t inner) {
      inner_hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  size_t sum = 0;  // unsynchronized on purpose: everything runs on this thread
  Status st = pool.ParallelFor(100, [&](size_t i) {
    sum += i;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(sum, 4950u);
}

// ------------------------- Deterministic training ---------------------------

void MakeRegressionData(int n, int d, uint64_t seed, FeatureMatrix* x,
                        std::vector<double>* y) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(d));
    double target = 0;
    for (int j = 0; j < d; ++j) {
      row[static_cast<size_t>(j)] = rng.UniformDouble(0, 1);
      if (j % 2 == 0) target += (j + 1) * row[static_cast<size_t>(j)];
    }
    x->push_back(std::move(row));
    y->push_back(target + rng.Gaussian(0, 0.05));
  }
}

TEST(DeterminismTest, CrossValidateBitIdenticalAcrossThreadCounts) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionData(120, 6, 21, &x, &y);
  Rng rng(33);
  const auto folds = KFold(x.size(), 5, &rng);

  const LinearRegression linreg;
  const SvRegression svr;
  const RegressionModel* const prototypes[] = {&linreg, &svr};
  for (const RegressionModel* proto : prototypes) {
    const char* name = ModelTypeName(proto->type());
    ThreadPool serial(1), parallel(4);
    auto cv1 = CrossValidate(*proto, x, y, folds, &serial);
    auto cv4 = CrossValidate(*proto, x, y, folds, &parallel);
    ASSERT_TRUE(cv1.ok() && cv4.ok());
    // Bit-identical, not just close: fold fits are self-contained and the
    // merge order is fixed, so == must hold exactly.
    EXPECT_EQ(cv1->mean_relative_error, cv4->mean_relative_error) << name;
    ASSERT_EQ(cv1->predictions.size(), cv4->predictions.size());
    for (size_t i = 0; i < cv1->predictions.size(); ++i) {
      EXPECT_EQ(cv1->predictions[i], cv4->predictions[i])
          << name << " sample " << i;
    }
  }
}

TEST(DeterminismTest, SvrKernelCacheDoesNotChangeTheModel) {
  // A cache too small to hold every kernel row must still produce the exact
  // same fit: eviction changes what is recomputed, never the values.
  FeatureMatrix x;
  std::vector<double> y;
  MakeRegressionData(90, 5, 9, &x, &y);
  SvrConfig roomy;
  roomy.kernel_cache_bytes = 64u << 20;
  SvrConfig tight;
  tight.kernel_cache_bytes = 4 * 90 * sizeof(double);  // ~4 rows resident
  SvRegression a(roomy), b(tight);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_EQ(a.Serialize(), b.Serialize());
  for (size_t i = 0; i < x.size(); i += 11) {
    EXPECT_EQ(a.Predict(x[i]), b.Predict(x[i]));
  }
}

// ----------------------------- OnlinePredictor ------------------------------

TEST(DeterminismTest, SharedOnlinePredictorMatchesSerialAndBuildsEachKeyOnce) {
  // OnlinePredictor trains an unseen sub-plan outside its lock while other
  // threads wanting the same key wait for it. Threads that start at
  // different points of the query list reach the same keys in different
  // orders; each must still see the serial predictions bit for bit, and
  // every key must be built once.
  const QueryLog training = SyntheticServingLog(120);
  const QueryLog queries = SyntheticServingLog(30, 1.0, 777);
  std::vector<const QueryRecord*> refs;
  for (const QueryRecord& q : training.queries) refs.push_back(&q);
  OperatorModelSet op_models;
  ASSERT_TRUE(op_models.Train(refs).ok());

  const size_t n = queries.queries.size();
  const OnlinePredictor serial(refs, &op_models);
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] =
        serial.PredictQuery(queries.queries[i], FeatureMode::kEstimate);
  }
  ASSERT_GT(serial.models_built(), 0);

  constexpr size_t kThreads = 4;
  const OnlinePredictor shared(refs, &op_models);
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(n));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + t * n / kThreads) % n;
        got[t][i] =
            shared.PredictQuery(queries.queries[i], FeatureMode::kEstimate);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[t][i], expected[i]) << "thread " << t << " query " << i;
    }
  }
  EXPECT_EQ(shared.models_built(), serial.models_built());
}

}  // namespace
}  // namespace qpp

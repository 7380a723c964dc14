// learn_mixed: the *learn* pipeline with reads beside writes. A writer
// thread replays executed TPC-H records through the feedback loops (serve
// retrain, learned cardinality, KDE bandwidths), replanning each with the
// learned estimator attached; partway through it scales every label by a
// fixed factor (scripted drift), so the serve loop retrains and publishes.
// A reader thread calls PredictionService::Predict at a fixed rate
// meanwhile.
#include <time.h>

#include <atomic>
#include <thread>

#include "card/feedback.h"
#include "card/learned_estimator.h"
#include "common/stats.h"
#include "exec/driver.h"
#include "fixture.h"
#include "kde/feedback.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "serve/feedback.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "spans.h"
#include "workload/templates.h"

namespace e2e {
namespace {

/// Executed queries kept per operator-level template. Their parameters
/// come from a fixed seed, so every run replays the same work; the run's
/// seed orders the replay and the reader's picks.
constexpr int kQueriesPerTemplate = 2;
constexpr uint64_t kKeptPoolSeed = 20120402;
/// Scripted drift: the writer runs in episodes that alternate between the
/// measured labels and every label multiplied by kDriftFactor, which is
/// large enough that a model fitted to either errs past the feedback
/// loop's drift threshold on the other. Each episode is a fixed number of
/// passes over the kept records, so every run does the same work.
constexpr double kDriftFactor = 8.0;
constexpr int kPassesPerEpisode = 12;
/// Episodes per run: one per this many seconds of --seconds.
constexpr double kSecondsPerEpisode = 1.0;
/// Reader calls per second.
constexpr double kReaderRate = 2000.0;

/// One executed query, kept with the seed that re-creates its plan.
struct Kept {
  uint64_t plan_seed = 0;
  qpp::QueryRecord record;
};

/// The learn pipeline's state, built once per set-up.
struct LearnStack {
  std::unique_ptr<qpp::Database> db;
  std::unique_ptr<qpp::kde::KdeFeedbackLoop> kde;
  std::unique_ptr<qpp::card::CardFeedbackLoop> card;
  std::unique_ptr<qpp::card::LearnedCardinalityEstimator> estimator;
  std::unique_ptr<qpp::serve::ModelRegistry> registry;
  std::unique_ptr<qpp::serve::PredictionService> service;
  std::vector<Kept> kept;
};

std::unique_ptr<LearnStack> BuildStack(const qpp::QueryLog& corpus) {
  auto s = std::make_unique<LearnStack>();
  s->db = BuildTpchDatabase();
  s->kde = std::make_unique<qpp::kde::KdeFeedbackLoop>();
  {
    ScopedSpan span(Layer::kKde, "kde.build");
    CheckSetup(s->kde->BuildFromDatabase(*s->db), "kde build");
  }
  s->card = std::make_unique<qpp::card::CardFeedbackLoop>();
  s->estimator =
      std::make_unique<qpp::card::LearnedCardinalityEstimator>(s->card.get());
  auto trained = TrainPredictor(qpp::PredictionMethod::kHybrid, corpus,
                                "qpp.train.hybrid");
  CheckSetup(trained.status(), "train hybrid");
  s->registry = std::make_unique<qpp::serve::ModelRegistry>();
  s->registry->Publish(*trained, "fixed-label corpus");
  s->service = std::make_unique<qpp::serve::PredictionService>(
      s->registry.get());

  // Execute the templates once with the learned estimator attached, so
  // every record carries its card signatures (C) and predicate bounds (B).
  qpp::Optimizer optimizer(s->db.get());
  optimizer.set_cardinality_estimator(s->estimator.get());
  qpp::Rng master(kKeptPoolSeed);
  for (int template_id : qpp::tpch::OperatorLevelTemplates()) {
    for (int i = 0; i < kQueriesPerTemplate; ++i) {
      Kept k;
      k.plan_seed = master.Next();
      qpp::Rng rng(k.plan_seed);
      qpp::tpch::TemplateContext ctx{&optimizer, s->db.get(), &rng};
      auto plan = [&] {
        ScopedSpan span(Layer::kOptimizer, "optimizer.plan");
        return qpp::tpch::GenerateTemplateQuery(template_id, &ctx);
      }();
      CheckSetup(plan.status(), "plan seed query");
      qpp::ExecutionOptions exec_opts;
      exec_opts.collect_rows = false;
      auto result = [&] {
        ScopedSpan span(Layer::kExec, "exec.execute");
        return qpp::ExecutePlan(plan->root.get(), s->db.get(), exec_opts);
      }();
      CheckSetup(result.status(), "execute seed query");
      ScopedSpan span(Layer::kWorkload, "workload.record");
      k.record = qpp::RecordFromPlan(*plan, result->latency_ms);
      s->kept.push_back(std::move(k));
    }
  }
  return s;
}

/// The record with every time label scaled by `factor`.
qpp::QueryRecord Relabeled(const qpp::QueryRecord& in, double factor) {
  qpp::QueryRecord out = in;
  out.latency_ms *= factor;
  for (auto& op : out.ops) {
    op.actual.start_time_ms *= factor;
    op.actual.run_time_ms *= factor;
  }
  return out;
}

struct ReaderStats {
  /// Call latencies per one-second window; the headline percentiles are
  /// medians over windows, so one stall of the machine moves one window.
  std::vector<std::vector<double>> window_latency_us;
  uint64_t calls = 0;
  uint64_t failed = 0;
  bool versions_monotone = true;
  /// (model version, when it first answered) for every version seen.
  std::vector<std::pair<uint64_t, int64_t>> first_answers;
};

/// Calls Predict at kReaderRate until `stop`, timing each call.
void RunReader(const LearnStack& s, uint64_t seed,
               const std::atomic<bool>& stop, ReaderStats* out) {
  ScopedSpan root(Layer::kBench, "reader");
  qpp::Rng rng(seed ^ 0x5eed);
  const auto period_ns = static_cast<int64_t>(1e9 / kReaderRate);
  const int64_t start = NowNs();
  int64_t due = start;
  uint64_t last_version = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto& rec =
        s.kept[static_cast<size_t>(rng.UniformInt(
                   0, static_cast<int64_t>(s.kept.size()) - 1))]
            .record;
    const int64_t t0 = NowNs();
    auto p = [&] {
      ScopedSpan span(Layer::kServe, "serve.predict");
      return s.service->Predict(rec);
    }();
    const int64_t t1 = NowNs();
    ++out->calls;
    if (!p.ok()) {
      ++out->failed;
    } else {
      const auto w = static_cast<size_t>((t0 - start) / 1000000000);
      if (w >= out->window_latency_us.size()) {
        out->window_latency_us.resize(w + 1);
      }
      out->window_latency_us[w].push_back(static_cast<double>(t1 - t0) / 1e3);
      if (p->model_version < last_version) out->versions_monotone = false;
      if (p->model_version != last_version) {
        out->first_answers.emplace_back(p->model_version, t1);
      }
      last_version = p->model_version;
    }
    due += period_ns;
    ScopedSpan span(Layer::kIdle, "idle.sleep");
    const timespec ts{static_cast<time_t>(due / 1000000000),
                      static_cast<long>(due % 1000000000)};
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
}

}  // namespace

int RunLearnMixed(const Options& opt, Report* rep) {
  auto corpus = LoadPinnedCorpus(opt.corpus_path);
  CheckSetup(corpus.status(), "fixed-label corpus");
  std::vector<double> setup_s;
  std::unique_ptr<LearnStack> s;
  {
    ScopedSpan root(Layer::kBench, "setup");
    for (int i = 0; i < (opt.tiny ? 1 : 3); ++i) {
      s.reset();
      const int64_t t0 = NowNs();
      s = BuildStack(*corpus);
      setup_s.push_back(SecondsSince(t0));
    }
  }

  qpp::serve::FeedbackConfig fb_cfg;
  fb_cfg.retrain_config.method = qpp::PredictionMethod::kHybrid;
  // Retrain on the last two passes only, so each retrain follows the
  // current labels instead of an ever-growing mix.
  fb_cfg.max_retained_queries = 2 * s->kept.size();
  uint64_t retrains = 0;
  qpp::Optimizer optimizer(s->db.get());
  optimizer.set_cardinality_estimator(s->estimator.get());
  qpp::obs::MetricsRegistry::Global()->ResetAllValues();

  const double rss_start = CurrentRssMb();
  std::atomic<bool> stop{false};
  ReaderStats reader;
  std::thread reader_thread([&] { RunReader(*s, opt.seed, stop, &reader); });

  // Fixed work: the same episodes every run, so memory retained per
  // harvest is comparable; --seconds sets how many.
  const int passes = opt.tiny ? 2 : kPassesPerEpisode;
  const int episodes =
      1 + std::max(2, static_cast<int>(opt.tiny ? 0 : opt.seconds /
                                                          kSecondsPerEpisode));
  uint64_t records = 0;
  uint64_t failed = 0;
  uint64_t learned_nodes = 0;
  uint64_t total_nodes = 0;
  std::vector<double> records_per_s;
  std::vector<double> episode_mre;
  /// (start, version serving at start) of every drift episode.
  std::vector<std::pair<int64_t, uint64_t>> marks;
  std::vector<size_t> order(s->kept.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  qpp::Rng order_rng(opt.seed);
  {
    ScopedSpan root(Layer::kBench, "run");
    for (int e = 0; e < episodes; ++e) {
      // Episode 0 serves the measured labels (and lets the loop adapt the
      // fixed-corpus model to them); later episodes alternate between
      // drifted and measured labels.
      const double factor = e % 2 == 1 ? kDriftFactor : 1.0;
      // A fresh feedback loop per episode (same registry, card and KDE
      // loops): drift is always judged from an empty error window, so
      // retrain visibility does not depend on the last episode's timing.
      qpp::serve::FeedbackLoop feedback(s->registry.get(), fb_cfg);
      const int64_t episode_start = NowNs();
      if (e > 0) {
        marks.emplace_back(episode_start, s->registry->current_version());
      }
      const uint64_t records_before = records;
      for (int pass = 0; pass < passes; ++pass) {
        order_rng.Shuffle(&order);
        for (size_t index : order) {
          const Kept& k = s->kept[index];
          qpp::Rng rng(k.plan_seed);
          qpp::tpch::TemplateContext ctx{&optimizer, s->db.get(), &rng};
          auto plan = [&] {
            ScopedSpan span(Layer::kOptimizer, "optimizer.plan_learned");
            return qpp::tpch::GenerateTemplateQuery(k.record.template_id,
                                                    &ctx);
          }();
          if (plan.ok()) {
            CountEstimateSources(*plan->root, &learned_nodes, &total_nodes);
          }
          const qpp::QueryRecord rec = Relabeled(k.record, factor);
          const uint64_t triggered = feedback.retrains_triggered();
          qpp::Status st = [&] {
            ScopedSpan span(Layer::kServe, "serve.observe");
            return feedback.Observe(rec);
          }();
          if (feedback.retrains_triggered() != triggered) {
            // Apply feedback synchronously: the next observation is scored
            // by the retrained model, so every run retrains at the same
            // records and learns the same models (the reader still races
            // the publish).
            ScopedSpan span(Layer::kServe, "serve.wait_retrain");
            feedback.WaitForRetrain();
          }
          if (st.ok()) {
            ScopedSpan span(Layer::kCard, "card.harvest");
            st = s->card->HarvestRecord(rec);
          }
          if (st.ok()) {
            ScopedSpan span(Layer::kKde, "kde.harvest");
            st = s->kde->HarvestRecord(rec);
          }
          ++records;
          if (!plan.ok() || !st.ok()) ++failed;
        }
      }
      feedback.WaitForRetrain();
      retrains += feedback.retrains_published();
      const double episode_s = SecondsSince(episode_start);
      if (e == 0) continue;
      records_per_s.push_back(static_cast<double>(records - records_before) /
                              episode_s);
      // The model serving at the episode's end against its labels.
      ScopedSpan span(Layer::kQpp, "qpp.episode_error");
      const auto current = s->registry->Current();
      std::vector<double> actual;
      std::vector<double> predicted;
      for (const Kept& k : s->kept) {
        const qpp::QueryRecord rec = Relabeled(k.record, factor);
        auto p = current->predictor->PredictLatencyMs(rec);
        ++records;
        if (!p.ok()) {
          ++failed;
          continue;
        }
        actual.push_back(rec.latency_ms);
        predicted.push_back(*p);
      }
      episode_mre.push_back(qpp::MeanRelativeError(actual, predicted));
    }
  }
  stop.store(true, std::memory_order_release);
  reader_thread.join();
  const double rss_growth = CurrentRssMb() - rss_start;

  // Retrain visibility per episode: from its first relabeled Observe to the
  // reader's first answer from a version published during it.
  std::vector<double> visible_ms;
  uint64_t missed_retrains = 0;
  for (size_t e = 0; e < marks.size(); ++e) {
    const uint64_t last = e + 1 < marks.size() ? marks[e + 1].second
                                               : s->registry->current_version();
    bool seen = false;
    for (const auto& [version, at] : reader.first_answers) {
      if (version > marks[e].second && version <= last) {
        visible_ms.push_back(static_cast<double>(at - marks[e].first) / 1e6);
        seen = true;
        break;
      }
    }
    if (!seen) ++missed_retrains;
  }

  rep->Count(records, failed);
  rep->Count(reader.calls, reader.failed);
  rep->Count(static_cast<uint64_t>(episodes - 1), missed_retrains);
  rep->Check(reader.failed == 0, "a reader Predict call failed");
  rep->Check(reader.versions_monotone, "registry version went backwards");
  rep->Check(missed_retrains == 0,
             std::to_string(missed_retrains) +
                 " drift episodes ended without a retrained version");

  std::vector<double> all_latency_us;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  for (const auto& w : reader.window_latency_us) {
    if (w.empty()) continue;
    all_latency_us.insert(all_latency_us.end(), w.begin(), w.end());
    window_p50.push_back(Quantile(w, 0.5));
    window_p99.push_back(Quantile(w, 0.99));
  }
  const double tail = TailQuantileLevel(all_latency_us.size());
  rep->Metric("setup_s", Median(setup_s), "s");
  rep->Metric("learn.records_per_s", Median(records_per_s), "records/s");
  rep->Metric("learn.predict_p50_us", Median(window_p50), "us");
  rep->Metric("learn.predict_p99_us", Median(window_p99), "us");
  rep->Metric("learn.retrain_visible_ms", Median(visible_ms), "ms");
  rep->Metric("learn.rss_growth_mb", rss_growth, "MB");
  rep->Metric("learn.episode_mre", Median(episode_mre), "ratio");
  rep->Note("writer: " + std::to_string(episodes - 1) + " drift episodes of " +
            std::to_string(passes) + " passes over " +
            std::to_string(s->kept.size()) +
            " records; records/s, retrain visibility and error are medians "
            "over episodes");
  rep->Note("reader: " + std::to_string(all_latency_us.size()) +
            " Predict calls; p50/p99 are medians over " +
            std::to_string(window_p99.size()) +
            " one-second windows; whole-run tail " + QuantileLabel(tail) +
            " = " + std::to_string(Quantile(all_latency_us, tail)) + " us");
  rep->Note("registry at version " +
            std::to_string(s->registry->current_version()) + " after " +
            std::to_string(retrains) + " retrains");

  qpp::obs::Histogram* retrain_ms =
      qpp::obs::MetricsRegistry::Global()->GetHistogram(
          "serve.feedback.retrain_ms", {});
  rep->LayerMetric("serve.retrain_ms",
                   retrain_ms != nullptr && retrain_ms->Count() > 0
                       ? retrain_ms->Sum() /
                             static_cast<double>(retrain_ms->Count())
                       : 0.0,
                   "ms");
  rep->LayerMetric("serve.retrains_published",
                   static_cast<double>(retrains),
                   "count");
  rep->LayerMetric("card.snapshots_published",
                   static_cast<double>(s->card->snapshots_published()),
                   "count");
  rep->LayerMetric("kde.snapshots_published",
                   static_cast<double>(s->kde->snapshots_published()),
                   "count");
  rep->LayerMetric("card.learned_share",
                   total_nodes > 0 ? static_cast<double>(learned_nodes) /
                                         static_cast<double>(total_nodes)
                                   : 0.0,
                   "ratio");
  return 0;
}

}  // namespace e2e

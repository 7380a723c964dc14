// Reproduces Figure 8: convergence of the three hybrid plan-ordering
// strategies (size-based, frequency-based, error-based) — training error as
// a function of Algorithm 1 iterations on the 14 operator-level templates,
// large database.

#include <cstdio>

#include "bench/bench_util.h"
#include "qpp/hybrid.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

int main() {
  PrintSectionHeader("Figure 8 - Hybrid Prediction Plan Ordering Strategies");
  std::printf(
      "Paper shape: error-based drops fastest; size-based reaches the same\n"
      "floor more slowly; frequency-based stalls early before improving.\n");
  const QueryLog log = GetWorkload(LargeScaleFactor(),
                                   tpch::OperatorLevelTemplates(), "large");
  std::vector<const QueryRecord*> refs;
  for (const auto& q : log.queries) refs.push_back(&q);

  const PlanOrderingStrategy strategies[] = {
      PlanOrderingStrategy::kErrorBased, PlanOrderingStrategy::kSizeBased,
      PlanOrderingStrategy::kFrequencyBased};

  std::printf("\n%-10s %-18s %-34s %s\n", "iteration", "strategy",
              "chosen sub-plan (truncated)", "train_error(%)");
  for (PlanOrderingStrategy strategy : strategies) {
    HybridConfig cfg;
    cfg.strategy = strategy;
    cfg.max_iterations = 30;
    cfg.target_error = 0.02;
    HybridModel hybrid(cfg);
    Status st = hybrid.Train(refs);
    if (!st.ok()) {
      std::fprintf(stderr, "hybrid training failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("%-10d %-18s %-34s %.1f\n", 0,
                PlanOrderingStrategyName(strategy), "(operator models only)",
                100.0 * hybrid.initial_error());
    for (const HybridIteration& it : hybrid.history()) {
      std::string key = it.structural_key.substr(0, 32);
      if (!it.kept) key += " [rejected]";
      std::printf("%-10d %-18s %-34s %.1f\n", it.iteration,
                  PlanOrderingStrategyName(strategy), key.c_str(),
                  100.0 * it.error_after);
    }
    std::printf("%-10s %-18s kept %zu plan-level models, final error %.1f%%\n\n",
                "summary", PlanOrderingStrategyName(strategy),
                hybrid.plan_models().size(), 100.0 * hybrid.final_error());
  }
  return 0;
}

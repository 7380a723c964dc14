#include "workload/runner.h"

#include "exec/driver.h"
#include "optimizer/optimizer.h"
#include "workload/templates.h"

namespace qpp {

Result<QueryLog> RunWorkload(Database* db, const WorkloadConfig& config) {
  if (config.templates.empty()) {
    return Status::InvalidArgument("no templates in workload");
  }
  Optimizer opt(db);
  opt.set_cardinality_estimator(config.cardinality_estimator);
  QueryLog log;
  Rng master(config.seed);
  for (int template_id : config.templates) {
    Rng template_rng = master.Fork();
    for (int i = 0; i < config.queries_per_template; ++i) {
      tpch::TemplateContext ctx{&opt, db, &template_rng};
      QPP_ASSIGN_OR_RETURN(QueryPlan plan,
                           tpch::GenerateTemplateQuery(template_id, &ctx));
      ExecutionOptions exec_opts;
      exec_opts.cold_start = config.cold_start;
      exec_opts.collect_rows = false;
      QPP_ASSIGN_OR_RETURN(ExecutionResult res,
                           ExecutePlan(plan.root.get(), db, exec_opts));
      if (config.timeout_ms > 0 && res.latency_ms > config.timeout_ms) {
        continue;  // over the cap: dropped, like the paper's one-hour limit
      }
      log.queries.push_back(RecordFromPlan(plan, res.latency_ms));
    }
  }
  return log;
}

}  // namespace qpp

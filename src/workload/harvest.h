#pragma once

#include <functional>

#include "plan/plan.h"
#include "workload/query_log.h"

namespace qpp {

/// \file
/// The Limit-taint walks every feedback harvester (card, kde) shares. A
/// Limit stops pulling from its input early, so actual row counts on a
/// pipelined path below it under-count and must not be learned from. An
/// edge that always consumes its input fully resets that taint: the
/// hash-join build side and the pipeline breakers (Sort, Materialize,
/// HashAggregate) drain their inputs before emitting anything.

/// Calls `visit`, in pre-order, on every executed node of the plan whose
/// actual row count can be trusted.
void ForEachTrustedActual(const PlanNode& root,
                          const std::function<void(const PlanNode&)>& visit);

/// The same walk over a flattened record (ops[0] is the root; an empty
/// record visits nothing).
void ForEachTrustedActual(
    const QueryRecord& record,
    const std::function<void(const OperatorRecord&)>& visit);

}  // namespace qpp

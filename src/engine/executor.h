#ifndef TPCDS_ENGINE_EXECUTOR_H_
#define TPCDS_ENGINE_EXECUTOR_H_

#include <memory>

#include "engine/governor.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/rowset.h"
#include "util/result.h"

namespace tpcds {

class DataFacade;

/// Runs a physical plan against a pinned facade generation. With
/// `options.parallelism` > 1 the
/// executor runs morsel-style intra-query parallelism on a per-query
/// thread pool (0 = one worker per hardware core): partition-parallel
/// scans and filters, partitioned hash-join build + probe, and parallel
/// partial aggregation with deterministic merge. Morsels have a fixed row
/// count independent of the worker count and partial results are always
/// combined in morsel order, so results are byte-identical across
/// parallelism levels. Fills `stats` (row counters and per-operator
/// timings) when non-null.
///
/// Governance: the executor enforces the options' GovernorLimits (deadline,
/// memory budget, row budget) at morsel boundaries. Callers that need to
/// cancel the query from another thread pass their own `governor`, which
/// then takes precedence over the options' limits.
Result<std::shared_ptr<RowSet>> ExecutePlan(const DataFacade* facade,
                                            const PhysicalPlan& plan,
                                            const PlannerOptions& options,
                                            ExecStats* stats = nullptr,
                                            QueryGovernor* governor =
                                                nullptr);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_EXECUTOR_H_

#ifndef TPCDS_ENGINE_PLANNER_H_
#define TPCDS_ENGINE_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/ast.h"
#include "engine/rowset.h"
#include "util/result.h"

namespace tpcds {

class DataFacade;
class QueryGovernor;

/// Execution-strategy switches, exposed so benchmarks can compare plans
/// (paper §2.1: the schema must exercise both star-schema and 3NF paths).
struct PlannerOptions {
  /// Semi-join reduction: before joining, filter the first FROM table (the
  /// fact table in a star query) against the qualifying-key sets of every
  /// filtered dimension it equi-joins — the engine's star transformation.
  /// Off = pure hash-join pipeline (the "3NF" path).
  bool star_transformation = true;

  /// Index-driven joins (paper §2.1's third DSS access path): an
  /// unfiltered base table equi-joined on one integer column is never
  /// scanned; the join probes the table's hash index and fetches matching
  /// rows directly. Off by default — hash joins are the baseline.
  bool index_joins = false;

  /// Intra-query worker threads. 1 = serial (default), 0 = one worker per
  /// hardware core. Results are byte-identical at every setting: morsels
  /// have a fixed row count and partial results always merge in morsel
  /// order, so no ordering or float reassociation depends on this knob.
  int parallelism = 1;

  /// Query-governance limits, enforced at morsel boundaries by a
  /// QueryGovernor (docs/ROBUSTNESS.md). All zero = ungoverned. A query
  /// over any limit returns a clean kDeadlineExceeded / kResourceExhausted
  /// error; queries under the limits are byte-identical to ungoverned runs.
  double timeout_ms = 0.0;          // wall-clock deadline, 0 = unlimited
  int64_t memory_budget_bytes = 0;  // materialised-bytes budget, 0 = unlimited
  int64_t row_budget = 0;           // materialised-rows budget, 0 = unlimited

  /// Vectorized columnar fast path: pushed scan filters run as typed
  /// kernels over the raw storage vectors with selection vectors, zone
  /// maps prune whole morsels, hash/semi joins push their build keys into
  /// probe-side scans as a range and a Bloom filter when the build side
  /// is selective, and join pipelines carry row indices instead of boxed
  /// rows. Off = the row-at-a-time reference path, whose joins key the
  /// same tables. Results are byte-identical either way, at any
  /// parallelism.
  bool vectorized_execution = true;

  /// Fuse `ORDER BY ... LIMIT n` into a Top-K operator: bounded
  /// per-worker heaps keep the best n rows (O(rows·log n), only n sort
  /// keys resident) instead of materialising a full sort. The heaps keep
  /// the exact top-k under a total order (keys, then original row index),
  /// so results are byte-identical to sort-then-limit at any parallelism.
  /// EXPLAIN reports `topk: kept X of Y rows` on fused nodes.
  bool topk_pushdown = true;
};

/// Statistics of one statement execution, for benchmarking and EXPLAIN.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_joined = 0;
  int64_t star_filtered_rows = 0;  // fact rows removed by semi-join filters
  int64_t morsels_pruned = 0;      // scan morsels skipped via zone maps
  int64_t bloom_rejects = 0;       // scan rows rejected by pushed join keys
  int64_t topk_seen = 0;           // rows offered to Top-K bounded heaps
  int64_t topk_kept = 0;           // rows those heaps retained
  int64_t bytes_touched = 0;       // storage payload bytes read by scans
                                   // (morsel-granular; pruned morsels
                                   // excluded)

  /// One entry per physical-plan operator, pre-order with `depth` giving
  /// the tree indentation. `executed` is false for operators skipped at
  /// run time (e.g. a memoised subtree's duplicate listing).
  struct OpStat {
    std::string label;
    int depth = 0;
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    double seconds = 0.0;  // self time, children excluded
    bool executed = false;
    int64_t morsels_pruned = 0;
    int64_t bloom_rejects = 0;
    bool vectorized = false;
    int64_t topk_seen = 0;
    int64_t topk_kept = 0;
    int64_t bytes_touched = 0;
  };
  std::vector<OpStat> operators;
};

/// Plans and executes a parsed SELECT against one pinned dataset
/// generation. The returned RowSet is fully materialised and truncated to
/// its visible columns. `governor`, when supplied, overrides the governor
/// the executor would build from the options' limits — callers hold it to
/// cancel the query from another thread. The caller keeps the facade
/// alive (usually via the shared_ptr it acquired) for the call's
/// duration.
Result<std::shared_ptr<RowSet>> ExecuteSelect(const DataFacade* facade,
                                              const SelectStmt& stmt,
                                              const PlannerOptions& options,
                                              ExecStats* stats = nullptr,
                                              QueryGovernor* governor =
                                                  nullptr);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_PLANNER_H_

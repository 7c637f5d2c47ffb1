#ifndef TPCDS_MAINTENANCE_MAINTENANCE_H_
#define TPCDS_MAINTENANCE_MAINTENANCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/data_facade.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "util/result.h"
#include "util/wal.h"

namespace tpcds {

/// Configuration of one data-maintenance run (the paper's ETL workload,
/// §4.2): a refresh set sized as a fraction of the initial population,
/// applied as dimension updates plus clustered fact inserts and deletes.
struct MaintenanceOptions {
  uint64_t seed = 19620718;
  double scale_factor = 1.0;
  /// Which refresh cycle this is (the benchmark's DM run is cycle 1;
  /// repeated cycles produce disjoint refresh sets).
  int refresh_cycle = 1;
  /// Refresh volume as a fraction of the initial fact population.
  double refresh_fraction = 0.01;
  /// Rows updated per maintained dimension.
  int64_t dimension_updates = 100;
  /// When non-empty, only the named operations run (names as reported in
  /// MaintenanceOpResult, e.g. "scd_update:item"). Recovery tests use this
  /// to re-apply exactly the committed prefix of a crashed run.
  std::vector<std::string> operations;
};

/// Outcome of one maintenance operation, for reporting and the metric.
struct MaintenanceOpResult {
  std::string operation;
  int64_t rows_affected = 0;
  double seconds = 0.0;
};

struct MaintenanceReport {
  std::vector<MaintenanceOpResult> operations;
  double TotalSeconds() const;
  int64_t TotalRows() const;
};

/// Runs the full 12-operation data-maintenance workload against `db`:
///
///   1-3   history-keeping SCD updates: item, store, web_site (Fig. 9)
///   4-6   non-history SCD updates: customer, customer_address, promotion
///         (Fig. 8)
///   7-9   clustered fact inserts per channel with business-key to
///         surrogate-key translation (Fig. 10)
///   10-12 clustered fact range-deletes per channel
///
/// All mutations flow through a WalSession. Without a writer (`wal` null),
/// the run is atomic as a whole: any failure rolls every operation back
/// via the in-memory undo log (O(changed rows), not whole-table clones)
/// and clears the report. With a writer attached, each operation commits
/// individually — a failure undoes only the broken operation's tail, the
/// committed prefix stays both in memory and in the log, and the report
/// keeps the committed operations; crash recovery replays exactly those.
Status RunDataMaintenance(Database* db, const MaintenanceOptions& options,
                          MaintenanceReport* report,
                          WalWriter* wal = nullptr);

/// The twelve tables the maintenance workload mutates (six dimensions,
/// six fact tables). Copy-on-write generation builds clone exactly these.
const std::vector<std::string>& MaintainedTables();

/// Generation-based variant of RunDataMaintenance: forks a copy-on-write
/// build generation (cloning only MaintainedTables(); all other tables are
/// shared by reference), applies the full 12-operation workload to the
/// fork, and publishes the result back into `db` with one atomic
/// generation swap. Queries running concurrently against a previously
/// acquired DataFacade keep reading the old generation untouched; the old
/// tables are retired when the last such reader drains its shared_ptr.
///
/// Commit semantics mirror the in-place path: without a WAL the swap only
/// happens when every operation succeeded (a failure discards the fork —
/// `db` never sees partial state, no undo needed). With a WAL attached the
/// committed prefix is published even on failure, matching what crash
/// recovery replays. Optimizer statistics carry over with the cloned
/// tables; before the swap is published, every maintained table that has
/// statistics applies EngineTable::GetOrComputeStats' rule, so only a
/// table with more than a tenth of its rows changed since its last
/// analysis is re-analysed. When `provider` is non-null, the new
/// generation's snapshot is published to it after the swap.
Status RunMaintenanceGeneration(Database* db,
                                const MaintenanceOptions& options,
                                MaintenanceReport* report,
                                WalWriter* wal = nullptr,
                                DataFacadeProvider* provider = nullptr);

/// Outcome of a read/refresh duty cycle (RunRefreshDutyCycle).
struct DutyCycleReport {
  int cycles_attempted = 0;
  /// Cycles whose generation build failed (e.g. a fault window fired
  /// mid-build); without a WAL the fork is discarded and the published
  /// state is untouched, with a WAL the committed prefix is published.
  int cycles_failed = 0;
  /// Error text of each failed cycle, in order.
  std::vector<std::string> errors;
  /// Per-operation results of every committed operation across cycles.
  MaintenanceReport operations;
};

/// The read/refresh duty cycle of a workload profile: fires
/// RunMaintenanceGeneration every `period_ms` (first firing after one
/// period) while concurrent query streams stay live through the
/// provider's facade swaps. Each firing advances options.refresh_cycle
/// from base_options.refresh_cycle, so cycles touch disjoint refresh
/// sets. Runs at most `cycles` firings (>= 1), stopping early when
/// `stop` (optional) becomes true between firings. Cycle failures are
/// recorded in the report, not returned: a chaos drill wants the crashed
/// cycle AND the cycles after it.
Status RunRefreshDutyCycle(Database* db,
                           const MaintenanceOptions& base_options,
                           int cycles, double period_ms,
                           DutyCycleReport* report, WalWriter* wal = nullptr,
                           DataFacadeProvider* provider = nullptr,
                           const std::atomic<bool>* stop = nullptr);

// --- individual operations (exposed for unit tests) ----------------------
// Each accepts an optional WalSession; when omitted, mutations apply
// directly (a private in-memory session) with no rollback capability.

/// Fig. 9: for each updated business key, close the open revision (set
/// rec_end_date) and insert a new open revision. Returns rows touched
/// (closed + inserted).
Result<int64_t> UpdateHistoryKeepingDimension(Database* db,
                                              const std::string& table,
                                              int64_t num_updates,
                                              uint64_t seed,
                                              WalSession* wal = nullptr);

/// Fig. 8: find each business key's row and overwrite changeable
/// attributes in place. Returns rows updated.
Result<int64_t> UpdateNonHistoryDimension(Database* db,
                                          const std::string& table,
                                          int64_t num_updates, uint64_t seed,
                                          WalSession* wal = nullptr);

/// Fig. 10: insert freshly generated fact rows for `channel`
/// ("store"/"catalog"/"web"), clustered in a refresh date window, with the
/// update file carrying business keys that are translated to surrogate
/// keys through the dimensions. Returns rows inserted (sales + returns).
Result<int64_t> InsertFactRefresh(Database* db, const std::string& channel,
                                  const MaintenanceOptions& options,
                                  WalSession* wal = nullptr);

/// Deletes fact rows of `channel` whose sale date falls in the refresh
/// window preceding the inserted one — the clustered-by-date delete that
/// models dropping a partition. Returns rows deleted (sales + returns).
Result<int64_t> DeleteFactRange(Database* db, const std::string& channel,
                                const MaintenanceOptions& options,
                                WalSession* wal = nullptr);

/// The refresh window (begin, end date) of a given cycle: one week per
/// cycle, walking backwards from the end of the 5-year sales window.
std::pair<Date, Date> RefreshWindow(int refresh_cycle);

}  // namespace tpcds

#endif  // TPCDS_MAINTENANCE_MAINTENANCE_H_

#ifndef TPCDS_ENGINE_DATABASE_H_
#define TPCDS_ENGINE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsgen/options.h"
#include "engine/data_facade.h"
#include "engine/planner.h"
#include "engine/table.h"
#include "util/result.h"

namespace tpcds {

/// A query result ready for display: column headers plus row-major values.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Renders up to `max_rows` as aligned text (all rows when 0).
  std::string ToString(size_t max_rows = 20) const;

  /// Renders the full result as CSV with a header row — the output format
  /// for data-mining extraction queries, whose large results feed
  /// external tools (paper §4.1). Fields containing commas, quotes or
  /// newlines are quoted; NULL renders as an empty field.
  std::string ToCsv() const;
};

/// The embedded columnar database: catalog of EngineTables, a loader fed
/// directly by the data generator, and the SQL entry point. This is the
/// "system under test" substrate the benchmark driver measures.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates empty tables for the full 24-table TPC-DS schema.
  Status CreateTpcdsTables();

  /// Creates one custom table (tests use this for mini-schemas). Without
  /// a `table_class`, star plans take such a table as a fact only when it
  /// comes first in FROM.
  Status CreateTable(const std::string& name,
                     std::vector<EngineTable::ColumnMeta> columns,
                     std::optional<TableClass> table_class = std::nullopt);

  /// Generates and loads every TPC-DS table at options.scale_factor.
  /// Sales and returns of each channel are produced in one generator pass.
  Status LoadTpcdsData(const GeneratorOptions& options);

  /// Generates and loads one table.
  Status LoadTable(const std::string& name, const GeneratorOptions& options);

  EngineTable* FindTable(const std::string& name);
  const EngineTable* FindTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;
  int64_t TotalRows() const;

  /// Does nothing: a stub for tpcbench/ like EngineTable::ComputedStats.
  void AnalyzeStorage() {}

  /// Immutable snapshot of the current tables stamped with the current
  /// generation id. The facade shares table storage (shared_ptr per
  /// table), so this is O(#tables). Queries executed through Query() pin
  /// such a snapshot for their whole lifetime.
  std::shared_ptr<const DataFacade> Snapshot() const;

  /// Monotonic dataset generation: starts at 1, advances on
  /// AdoptTablesFrom, and is restored from the manifest on checkpoint
  /// load/attach.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t g) { generation_ = g; }

  /// Copy-on-write fork for a maintenance generation build: the fork
  /// shares every table except those named in `cow_tables`, which are
  /// deep-cloned so maintenance can mutate them without disturbing
  /// readers of the current generation. Unknown names are an error.
  Result<std::unique_ptr<Database>> ForkForMaintenance(
      const std::vector<std::string>& cow_tables) const;

  /// Commits a finished generation build: adopts every table of `build`
  /// (sharing its pointers) and advances the generation id. Tables in
  /// this database but not in `build` are an error (a build forks all
  /// tables, mutating only its private clones).
  Status AdoptTablesFrom(Database* build);

  /// Serialises every table's raw columnar storage into `dir` (implemented
  /// in engine/checkpoint.cc). One binary file per table plus a MANIFEST,
  /// which is written last (via tmp + rename) so a crash mid-checkpoint
  /// never leaves a manifest pointing at missing or partial table files.
  /// Derived state (hash indexes, zone maps) is not checkpointed — it
  /// rebuilds lazily after load.
  Status SaveCheckpoint(const std::string& dir) const;

  /// Restores the database from a checkpoint directory into this (empty)
  /// database; table schemas come from the manifest. Any CRC mismatch in
  /// manifest or table sections yields kDataLoss. This is the deep
  /// (heap-materialising, fully CRC-verified) path.
  Status LoadCheckpoint(const std::string& dir);

  /// O(1) cold start: attaches the checkpoint via mmap without
  /// materialising column payloads — columns point straight into the
  /// mapped files (zero-copy strings included) and copy-on-write to heap
  /// only if mutated. Header and directory CRCs, section bounds and
  /// alignment are verified; payload bytes are trusted (use LoadCheckpoint
  /// when end-to-end verification is required, e.g. crash recovery).
  Status AttachCheckpoint(const std::string& dir);

  /// Parses and executes a SELECT with the database's default planner
  /// options.
  Result<QueryResult> Query(const std::string& sql);
  /// Parses and executes with explicit options (benchmarks use this to
  /// compare the star-transformation and hash-join paths). A non-null
  /// `governor` overrides the options' limits and lets another thread
  /// cancel the running query.
  Result<QueryResult> Query(const std::string& sql,
                            const PlannerOptions& options,
                            ExecStats* stats = nullptr,
                            QueryGovernor* governor = nullptr);

  /// Executes the statement and renders its physical operator tree with
  /// per-operator rows, self time and counters (ExecStats::operators),
  /// plus the statement's totals — an EXPLAIN ANALYZE equivalent.
  Result<std::string> Explain(const std::string& sql);

  PlannerOptions& default_options() { return default_options_; }

 private:
  std::map<std::string, std::shared_ptr<EngineTable>> tables_;
  uint64_t generation_ = 1;
  PlannerOptions default_options_;
};

/// Executes a SELECT against a pinned facade generation — the overlap
/// path: query streams run on the generation they acquired while data
/// maintenance builds and publishes the next one. The caller's shared_ptr
/// keeps the generation alive for the query's duration.
Result<QueryResult> QueryFacade(const DataFacade& facade,
                                const std::string& sql,
                                const PlannerOptions& options,
                                ExecStats* stats = nullptr,
                                QueryGovernor* governor = nullptr);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_DATABASE_H_

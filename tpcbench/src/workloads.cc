#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "calibration.h"
#include "digest.h"
#include "driver/driver.h"
#include "dsgen/generator.h"
#include "engine/audit.h"
#include "engine/executor.h"
#include "engine/parser.h"
#include "engine/plan.h"
#include "engine/recovery.h"
#include "maintenance/maintenance.h"
#include "metric/metric.h"
#include "qgen/qgen.h"
#include "sample_stats.h"
#include "schema/schema.h"
#include "service/service.h"
#include "templates/templates.h"
#include "trace.h"
#include "util/flatfile.h"
#include "util/wal.h"

#ifndef TPCBENCH_BUILD_TYPE
#define TPCBENCH_BUILD_TYPE "unknown"
#endif

namespace tpcbench {
namespace {

namespace fs = std::filesystem;
using tpcds::Database;
using tpcds::Status;

// Set-up is repeated and its median reported, so one slow load does not
// move setup_s; the last database is the one the workload runs on.
constexpr int kSetupRepeats = 3;
// S for the throughput workload: the execution rules' minimum for SF <= 100.
constexpr int kThroughputStreams = 3;
// In-run repeats: one per kUnitSeconds of --seconds (a round or a pass
// takes about that long at reference speed), and at least kMinUnits. The
// count depends on --seconds alone, never on how fast the host runs, so
// every run of a workload does the same work: each maintenance cycle
// changes the data, and a run that got through more cycles would time
// different work. Each end-to-end metric is a median over the repeats, and
// each workload times enough statements that at least ten lie beyond
// query_p95_ms (throughput 891, refresh 297).
constexpr double kUnitSeconds = 5.0;
constexpr int kMinUnits = 3;
// The refresh workload's maintenance falls due once every this many
// statements of the reader's stream (three times a pass), so every pass
// overlaps the same cycles however fast the machine is. A fixed wall-clock
// period made a slow pass overlap more cycles, which amplified host drift.
constexpr size_t kStatementsPerCycle = 33;
// A statement's calibration is the median of its own slice and this many
// of its stream's slices on either side.
constexpr size_t kSmoothSlices = 2;

/// CPU time of the calling thread. Every workload executes statements at
/// parallelism 1, so a statement's CPU is its thread's.
double ThreadCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double TableMb(const tpcds::EngineTable& table) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bytes += table.column(c).PayloadByteSize();
  }
  return static_cast<double>(bytes) / 1e6;
}

double DirectoryMb(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / 1e6;
}

double Ms(double seconds) { return seconds * 1e3; }

// ---------------------------------------------------------------------------
// Per-layer accounting of one query run (traced runs).

enum OpKind { kOpScan, kOpHashJoin, kOpSemiJoin, kOpAggregate, kOpSort,
              kOpOther, kOpKinds };
constexpr const char* kOpNames[kOpKinds] = {
    "scan", "hash_join", "semi_join", "aggregate", "sort", "other"};

OpKind KindOf(tpcds::PlanKind kind) {
  switch (kind) {
    case tpcds::PlanKind::kScan: return kOpScan;
    case tpcds::PlanKind::kHashJoin:
    case tpcds::PlanKind::kIndexJoin: return kOpHashJoin;
    case tpcds::PlanKind::kSemiJoinReduce: return kOpSemiJoin;
    case tpcds::PlanKind::kAggregate: return kOpAggregate;
    case tpcds::PlanKind::kSort:
    case tpcds::PlanKind::kTopK: return kOpSort;
    default: return kOpOther;
  }
}

/// Adds every executed operator's self time (PlanNode::stats, the
/// executor's own numbers) to its kind; shared (memoised) nodes count once.
void AddOperatorTimes(const tpcds::PlanNode* node,
                      std::set<const tpcds::PlanNode*>* seen, double* op_ms) {
  if (node == nullptr || !seen->insert(node).second) return;
  if (node->stats.executed) op_ms[KindOf(node->kind)] += Ms(node->stats.seconds);
  for (const auto& child : node->children) {
    AddOperatorTimes(child.get(), seen, op_ms);
  }
}

struct QueryRunLayers {
  double qgen_ms = 0.0;
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double exec_ms = 0.0;
  double op_ms[kOpKinds] = {};
  double cpu_ms = 0.0;
  int64_t table_rows = 0;
  int64_t bytes_touched = 0;
  int64_t morsels_pruned = 0;
  int64_t bloom_rejects = 0;
  int64_t result_rows = 0;
  double queue_ms = 0.0;     // service path: QueryOutcome::queue_ms
  double overhead_ms = 0.0;  // service path: total_ms - exec_ms

  void Add(const QueryRunLayers& o) {
    qgen_ms += o.qgen_ms;
    parse_ms += o.parse_ms;
    plan_ms += o.plan_ms;
    exec_ms += o.exec_ms;
    for (int k = 0; k < kOpKinds; ++k) op_ms[k] += o.op_ms[k];
    cpu_ms += o.cpu_ms;
    table_rows += o.table_rows;
    bytes_touched += o.bytes_touched;
    morsels_pruned += o.morsels_pruned;
    bloom_rejects += o.bloom_rejects;
    result_rows += o.result_rows;
    queue_ms += o.queue_ms;
    overhead_ms += o.overhead_ms;
  }
};

/// How a query run's statements reach the engine.
enum class Path {
  kService,   // Session::Execute on a QueryService
  kComposed,  // ParseSql -> BuildPlan -> ExecutePlan, one span per layer
};

struct QueryRunSpec {
  Path path = Path::kService;
  std::vector<int> streams;
  tpcds::PlannerOptions options;
  tpcds::QueryService* service = nullptr;  // kService
  /// kComposed reads the provider's current generation when set, else a
  /// snapshot of the benchmark's database (as Database::Query does).
  const tpcds::DataFacadeProvider* provider = nullptr;
  bool traced = false;
  bool keep_results = false;
  const char* unit_name = "unit.query_run";
  /// Called before each statement with its position in the stream.
  std::function<void(size_t)> before_statement;
};

struct StatementResult {
  int stream = 0;
  int template_id = 0;
  double latency_ms = 0.0;
  /// The calibration slice run on the statement's thread just before it:
  /// when it started and how long it took.
  double slice_at = 0.0;
  double slice_s = 0.0;
  /// Brings the latency to reference speed: Calibration::Factor of the
  /// median of this slice and its stream's kSmoothSlices nearest on either
  /// side, so that one disturbed slice does not skew a heavy statement.
  double factor = 1.0;
  int64_t rows = 0;
  /// The spec's provider's publish count when the statement finished; an
  /// unchanged count means it ran on the generation current before it.
  uint64_t publishes = 0;
  std::string error;  // empty on success
  std::vector<std::vector<tpcds::Value>> answer;  // kept on request
};

/// A statement's latency at reference speed.
double NormalizedMs(const StatementResult& s) { return s.latency_ms * s.factor; }

struct QueryRun {
  double wall_s = 0.0;
  /// The run's time at reference speed: the largest sum, over its
  /// streams, of the stream's normalized statement latencies.
  double normalized_s = 0.0;
  std::vector<StatementResult> statements;
  QueryRunLayers layers;
  bool traced = false;
};

struct Cycle {
  double due = 0.0;      // SteadyNow() when it fell due (or started)
  double seconds = 0.0;  // due time (start, when none is given) to publish
  double late_ms = 0.0;  // due time to start
  bool traced = false;
  double fork_ms = 0.0;
  double ops_ms = 0.0;
  double adopt_ms = 0.0;
  double stats_ms = 0.0;
  double publish_ms = 0.0;
  int64_t rows = 0;
  double cloned_mb = 0.0;
};

// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : opt_(options) {
    if (opt_.trace) tracer_ = std::make_unique<Tracer>();
    cfg_.scale_factor = kScaleFactor;
    cfg_.seed = opt_.seed;
    cfg_.max_query_attempts = 1;  // a failed statement is a failure
    report_.workload = opt_.workload;
    report_.nproc =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    report_.build_type = TPCBENCH_BUILD_TYPE;
    report_.seed = opt_.seed;
    report_.revision = opt_.revision;
    report_.traced = opt_.trace;
  }

  tpcds::Result<RunReport> Run();

 private:
  Tracer* tracer() const { return tracer_.get(); }
  bool traced() const { return tracer_ != nullptr; }
  /// Untraced repeats of the workload's unit; a traced run adds one, so
  /// that traced and reference units alternate.
  int Units() const {
    int units = std::max(
        kMinUnits, static_cast<int>(std::lround(opt_.seconds / kUnitSeconds)));
    return traced() ? units + 1 : units;
  }
  void Attempt(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    report_.attempted += n;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++report_.failed;
    if (report_.failures.size() < 20) report_.failures.push_back(what);
  }
  /// Counts one check as an attempt and a failure unless `ok`.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
  }

  tpcds::MaintenanceOptions DmOptions(int cycle) const {
    tpcds::MaintenanceOptions dm;
    dm.seed = cfg_.seed;
    dm.scale_factor = cfg_.scale_factor;
    dm.refresh_cycle = cycle;
    dm.refresh_fraction = cfg_.refresh_fraction;
    dm.dimension_updates = cfg_.dimension_updates;
    return dm;
  }

  Status Setup();
  Status TracedSetup();
  void MeasureDsgen();
  Status Checkpoint(const std::string& dir);
  Status LoadExpected();
  void CheckWarmup(const QueryRun& run);
  void CheckRepeat(const QueryRun& run, uint64_t publishes);

  QueryRun RunStatements(const QueryRunSpec& spec);
  tpcds::Result<std::vector<std::vector<tpcds::Value>>> Execute(
      const QueryRunSpec& spec, const std::string& sql,
      const tpcds::Session* session, int64_t parent, QueryRunLayers* layers);
  tpcds::Result<std::vector<std::vector<tpcds::Value>>> Composed(
      const QueryRunSpec& spec, const std::string& sql, Tracer* tracer,
      int64_t parent, QueryRunLayers* layers);
  Cycle MaintenanceCycle(int cycle, bool traced, double due,
                         tpcds::WalWriter* wal,
                         tpcds::DataFacadeProvider* provider);

  Status Throughput();
  Status Refresh();

  void AddQueryRun(QueryRun run);
  void AddCycle(const Cycle& c, double factor);
  void ReportEndToEnd();
  void ReportLayers();
  void Metric(const std::string& name, const std::string& unit, double value,
              std::vector<double> samples = {});

  const RunOptions& opt_;
  const Calibration cal_;
  std::unique_ptr<Tracer> tracer_;
  tpcds::BenchmarkConfig cfg_;
  std::unique_ptr<Database> db_;

  std::mutex mu_;  // guards report_'s counters and failure list
  RunReport report_;

  // Answers: stored for the default seed, and this run's warm-up answers
  // every repeat must reproduce.
  std::optional<DigestTable> expected_;
  DigestTable reference_;

  // Set-up measurements, at reference speed; raw_* are as measured.
  std::vector<double> setup_repeats_;  // load test + analyze, per repeat
  std::vector<double> load_s_;         // RunLoadTest alone, per repeat
  double setup_extra_s_ = 0.0;         // checkpoint + warm-up pass
  std::vector<double> raw_setup_s_;
  double raw_setup_extra_s_ = 0.0;

  // Timed phase, untraced units (end-to-end metrics and trace references),
  // at reference speed; raw_* are as measured.
  std::vector<double> run_s_;
  std::vector<std::vector<double>> run_latencies_ms_;
  std::vector<double> dm_s_;
  std::vector<double> raw_run_s_;
  std::vector<double> raw_latencies_ms_;
  std::vector<double> raw_dm_s_;
  std::vector<double> slice_ms_;  // every statement's calibration slice
  double peak_rss_mb_ = 0.0;  // at the end of the timed phase
  // Traced units.
  std::vector<QueryRun> traced_runs_;
  std::vector<Cycle> traced_cycles_;
  std::vector<uint64_t> wal_bytes_;
  int64_t rows_changed_ = 0;
  tpcds::ServiceCounters service_counters_;
  std::map<std::string, double> layer_;  // single-event per-layer values
};

/// The factor of a query run: its statements' median calibration slice.
double RunFactor(const QueryRun& run) {
  std::vector<double> slices;
  for (const StatementResult& s : run.statements) slices.push_back(s.slice_s);
  return Calibration::Factor(Median(std::move(slices)));
}

// --- set-up ----------------------------------------------------------------

Status Bench::Setup() {
  if (traced()) return TracedSetup();
  for (int r = 0; r < kSetupRepeats; ++r) {
    db_.reset();  // one database resident at a time
    auto db = std::make_unique<Database>();
    tpcds::Result<double> load_s = 0.0;
    double seconds = 0.0;
    double factor = Sampled(cal_, [&] {
      double start = SteadyNow();
      load_s = tpcds::RunLoadTest(cfg_, db.get());
      if (load_s.ok()) db->AnalyzeStorage();
      seconds = SteadyNow() - start;
    });
    TPCDS_RETURN_NOT_OK(load_s.status());
    setup_repeats_.push_back(seconds * factor);
    raw_setup_s_.push_back(seconds);
    load_s_.push_back(*load_s * factor);
    db_ = std::move(db);
  }
  return Status::OK();
}

/// The traced set-up: dsgen alone, then the load test composed from its
/// public parts with one span per layer, then analyze.
Status Bench::TracedSetup() {
  MeasureDsgen();
  Tracer* t = tracer();
  db_ = std::make_unique<Database>();
  double start = SteadyNow();
  ScopedSpan root(t, "unit.setup", 0);
  {
    ScopedSpan s(t, "engine.load", root.id());
    TPCDS_RETURN_NOT_OK(db_->CreateTpcdsTables());
    tpcds::GeneratorOptions gen;
    gen.scale_factor = cfg_.scale_factor;
    gen.master_seed = cfg_.seed;
    TPCDS_RETURN_NOT_OK(db_->LoadTpcdsData(gen));
    layer_["engine.load_s"] = s.End();
  }
  {
    // RunLoadTest's auxiliary join indexes on the catalog channel.
    ScopedSpan s(t, "engine.index", root.id());
    for (const char* name : {"catalog_sales", "catalog_returns"}) {
      tpcds::EngineTable* table = db_->FindTable(name);
      if (table == nullptr) continue;
      for (size_t c = 0; c < table->num_columns(); ++c) {
        const std::string& col = table->column_meta(c).name;
        if (col.ends_with("_item_sk") || col.ends_with("_date_sk")) {
          table->GetOrBuildIntIndex(static_cast<int>(c));
        }
      }
    }
  }
  {
    ScopedSpan s(t, "audit.validate", root.id());
    TPCDS_ASSIGN_OR_RETURN(tpcds::AuditReport audit,
                           tpcds::ValidateConstraints(db_.get(),
                                                      tpcds::TpcdsSchema()));
    layer_["audit.validate_s"] = s.End();
    Check(audit.TotalViolations() == 0, "constraint violations after load");
  }
  load_s_.push_back(SteadyNow() - start);
  {
    ScopedSpan s(t, "stats.analyze", root.id());
    db_->AnalyzeStorage();
    layer_["stats.analyze_s"] = s.End();
  }
  setup_repeats_.push_back(SteadyNow() - start);
  double table_mb = 0.0;
  for (const std::string& name : db_->TableNames()) {
    table_mb += TableMb(*db_->FindTable(name));
  }
  layer_["engine.table_mb"] = table_mb;
  return Status::OK();
}

/// Counts the rows a sink receives and drops them.
class CountingSink : public tpcds::RowSink {
 public:
  Status Append(const std::vector<std::string>&) override {
    ++rows;
    return Status::OK();
  }
  int64_t rows = 0;
};

/// dsgen alone: every table generated into a discarding sink, in load
/// order, so generation cost is separated from the engine's load.
void Bench::MeasureDsgen() {
  tpcds::GeneratorOptions gen;
  gen.scale_factor = cfg_.scale_factor;
  gen.master_seed = cfg_.seed;
  CountingSink sink;
  ScopedSpan span(tracer(), "dsgen.generate", 0);
  Status status = Status::OK();
  for (const std::string& table : tpcds::GeneratorTableNames()) {
    if (!status.ok()) break;
    if (table.ends_with("_returns")) continue;
    if (table.ends_with("_sales")) {
      status = tpcds::GenerateSalesChannel(table, gen, &sink, &sink);
      continue;
    }
    auto generator = tpcds::MakeGenerator(table, gen);
    status = generator.ok() ? (*generator)->Generate(&sink)
                            : generator.status();
  }
  layer_["dsgen.generate_s"] = span.End();
  layer_["dsgen.rows"] = static_cast<double>(sink.rows);
  Check(status.ok(), "dsgen: " + status.ToString());
}

Status Bench::Checkpoint(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  Status status;
  double seconds = 0.0;
  double factor = Sampled(cal_, [&] {
    ScopedSpan span(tracer(), "checkpoint.save", 0);
    status = db_->SaveCheckpoint(dir);
    seconds = span.End();
  });
  TPCDS_RETURN_NOT_OK(status);
  setup_extra_s_ += seconds * factor;
  raw_setup_extra_s_ += seconds;
  layer_["checkpoint.save_s"] = seconds;
  layer_["checkpoint.mb"] = DirectoryMb(dir);
  return Status::OK();
}

// --- answers -----------------------------------------------------------------

Status Bench::LoadExpected() {
  if (opt_.digests_path.empty() || opt_.seed != kDefaultSeed) {
    return Status::OK();
  }
  uint64_t seed = 0;
  double sf = 0.0;
  TPCDS_ASSIGN_OR_RETURN(expected_, LoadDigests(opt_.digests_path, &seed, &sf));
  if (seed != opt_.seed || sf != kScaleFactor) {
    return Status::InvalidArgument("digest file is for another seed or SF");
  }
  return Status::OK();
}

/// Warm-up answers: compared with the stored ones (default seed) and kept
/// as the reference later repeats on the same data must reproduce.
void Bench::CheckWarmup(const QueryRun& run) {
  const DigestTable* stored = expected_ ? &*expected_ : nullptr;
  for (const StatementResult& s : run.statements) {
    StatementKey key{s.stream, s.template_id};
    std::string label = "q" + std::to_string(s.template_id) + " stream " +
                        std::to_string(s.stream);
    Attempt();
    if (!s.error.empty()) {
      Fail(label + ": " + s.error);
      continue;
    }
    ExpectedAnswer ref;
    if (stored != nullptr) {
      auto it = stored->find(key);
      if (it == stored->end()) {
        Fail(label + ": no stored answer");
        continue;
      }
      std::string diff = CompareAnswer(it->second, s.answer);
      if (!diff.empty()) Fail(label + " differs from the stored answer: " + diff);
      ref.kind = it->second.kind;
    }
    ref.digest = DigestRows(s.answer, ref.kind);
    reference_[key] = ref;
  }
}

/// Compares with the warm-up's answers every statement of `run` that
/// finished while the provider's publish count was still `publishes`,
/// i.e. that ran on the warm-up's data.
void Bench::CheckRepeat(const QueryRun& run, uint64_t publishes) {
  for (const StatementResult& s : run.statements) {
    if (!s.error.empty()) continue;  // already counted as failed
    if (s.publishes != publishes) continue;
    auto it = reference_.find({s.stream, s.template_id});
    if (it == reference_.end()) continue;
    Attempt();
    std::string diff = CompareAnswer(it->second, s.answer);
    if (!diff.empty()) {
      Fail("q" + std::to_string(s.template_id) + " stream " +
           std::to_string(s.stream) + " repeat differs: " + diff);
    }
  }
}

// --- query runs ----------------------------------------------------------

QueryRun Bench::RunStatements(const QueryRunSpec& spec) {
  const std::vector<tpcds::QueryTemplate>& templates = tpcds::AllTemplates();
  // Every run issues the default seed's statements; the run's seed varies
  // the data. Substitutions drawn from the run's seed changed the work so
  // much that a seed's query_p50_ms differed from another's by up to 20%.
  tpcds::QueryGenerator qgen(kDefaultSeed);
  Tracer* t = spec.traced ? tracer() : nullptr;
  QueryRun run;
  run.traced = t != nullptr;
  std::mutex mu;  // guards run
  std::string unit = spec.unit_name;
  if (spec.path == Path::kService) unit += ".service";
  if (spec.path == Path::kComposed) unit += ".composed";
  ScopedSpan root(t, unit, 0);

  auto stream_body = [&](int stream) {
    std::vector<StatementResult> local;
    QueryRunLayers layers;
    std::optional<tpcds::Session> session;
    if (spec.path == Path::kService) {
      tpcds::SessionOptions so;
      so.tenant = "stream-" + std::to_string(stream);
      session.emplace(spec.service->OpenSession(so));
    }
    const std::vector<int> order = qgen.StreamPermutation(stream, templates);
    for (size_t position = 0; position < order.size(); ++position) {
      if (spec.before_statement) spec.before_statement(position);
      const tpcds::QueryTemplate& tmpl =
          templates[static_cast<size_t>(order[position])];
      StatementResult sr;
      sr.stream = stream;
      sr.template_id = tmpl.id;
      {
        ScopedSpan cs(t, "calibration.slice", root.id());
        sr.slice_at = SteadyNow();
        sr.slice_s = cal_.Slice();
      }
      ScopedSpan st(t, "statement", root.id(), stream * 1000 + tmpl.id);
      tpcds::Result<std::string> sql = [&] {
        ScopedSpan s(t, "qgen.instantiate", st.id());
        tpcds::Result<std::string> r = qgen.Instantiate(tmpl, stream);
        layers.qgen_ms += Ms(s.End());
        return r;
      }();
      if (!sql.ok()) {
        sr.error = sql.status().ToString();
        local.push_back(std::move(sr));
        continue;
      }
      double start = SteadyNow();
      auto answer = Execute(spec, *sql, session ? &*session : nullptr,
                            st.id(), &layers);
      sr.latency_ms = Ms(SteadyNow() - start);
      if (spec.provider != nullptr) sr.publishes = spec.provider->PublishCount();
      if (answer.ok()) {
        sr.rows = static_cast<int64_t>(answer->size());
        layers.result_rows += sr.rows;
        if (spec.keep_results) sr.answer = std::move(*answer);
      } else {
        sr.error = answer.status().ToString();
      }
      local.push_back(std::move(sr));
    }
    for (size_t j = 0; j < local.size(); ++j) {
      std::vector<double> near;
      for (size_t k = j > kSmoothSlices ? j - kSmoothSlices : 0;
           k <= j + kSmoothSlices && k < local.size(); ++k) {
        near.push_back(local[k].slice_s);
      }
      local[j].factor = Calibration::Factor(Median(std::move(near)));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (StatementResult& s : local) run.statements.push_back(std::move(s));
    run.layers.Add(layers);
  };

  double start = SteadyNow();
  if (spec.streams.size() == 1) {
    stream_body(spec.streams[0]);
  } else {
    std::vector<std::jthread> clients;
    for (int stream : spec.streams) clients.emplace_back(stream_body, stream);
  }
  run.wall_s = SteadyNow() - start;
  root.End();
  std::map<int, double> stream_s;
  for (const StatementResult& s : run.statements) {
    stream_s[s.stream] += NormalizedMs(s) / 1e3;
  }
  for (const auto& [stream, seconds] : stream_s) {
    run.normalized_s = std::max(run.normalized_s, seconds);
  }
  Attempt(static_cast<int64_t>(run.statements.size()));
  for (const StatementResult& s : run.statements) {
    if (!s.error.empty()) {
      Fail("q" + std::to_string(s.template_id) + " stream " +
           std::to_string(s.stream) + ": " + s.error);
    }
  }
  return run;
}

tpcds::Result<std::vector<std::vector<tpcds::Value>>> Bench::Execute(
    const QueryRunSpec& spec, const std::string& sql,
    const tpcds::Session* session, int64_t parent, QueryRunLayers* layers) {
  Tracer* t = spec.traced ? tracer() : nullptr;
  switch (spec.path) {
    case Path::kService: {
      double submit = SteadyNow();
      tpcds::QueryOutcome out = session->Execute(sql);
      layers->queue_ms += out.queue_ms;
      layers->overhead_ms += out.total_ms - out.exec_ms;
      if (t != nullptr) {
        // The service's own account of the statement: queue wait, then
        // execution; what remains of its total is service overhead.
        int64_t svc = t->NewId();
        double queued = submit + out.queue_ms / 1e3;
        t->Record("service.queue", svc, submit, queued);
        t->Record("service.exec", svc, queued, queued + out.exec_ms / 1e3);
        t->Record("service.statement", parent, submit,
                  submit + out.total_ms / 1e3, -1, svc);
      }
      if (out.disposition != tpcds::QueryDisposition::kCompleted) {
        return out.status.ok() ? Status::Internal(
                                     tpcds::QueryDispositionToString(
                                         out.disposition))
                               : out.status;
      }
      return std::move(out.result.rows);
    }
    case Path::kComposed:
      return Composed(spec, sql, t, parent, layers);
  }
  return Status::Internal("unknown path");
}

/// Database::Query composed from its public parts, one span per layer.
tpcds::Result<std::vector<std::vector<tpcds::Value>>> Bench::Composed(
    const QueryRunSpec& spec, const std::string& sql, Tracer* t,
    int64_t parent, QueryRunLayers* layers) {
  std::shared_ptr<const tpcds::DataFacade> facade =
      spec.provider != nullptr ? spec.provider->Acquire() : db_->Snapshot();
  std::shared_ptr<tpcds::SelectStmt> stmt;
  {
    ScopedSpan s(t, "parser.parse", parent);
    auto parsed = tpcds::ParseSql(sql);
    layers->parse_ms += Ms(s.End());
    if (!parsed.ok()) return parsed.status();
    stmt = std::move(*parsed);
  }
  std::optional<tpcds::PhysicalPlan> plan;
  {
    ScopedSpan s(t, "plan.build", parent);
    auto built = tpcds::BuildPlan(facade.get(), *stmt, spec.options);
    layers->plan_ms += Ms(s.End());
    if (!built.ok()) return built.status();
    plan.emplace(std::move(*built));
  }
  tpcds::ExecStats stats;
  std::shared_ptr<tpcds::RowSet> rows;
  {
    double cpu = ThreadCpuSeconds();
    ScopedSpan s(t, "executor.exec", parent);
    auto executed =
        tpcds::ExecutePlan(facade.get(), *plan, spec.options, &stats);
    layers->exec_ms += Ms(s.End());
    layers->cpu_ms += Ms(ThreadCpuSeconds() - cpu);
    if (!executed.ok()) return executed.status();
    rows = std::move(*executed);
  }
  std::set<const tpcds::PlanNode*> seen;
  for (const auto& [name, cte] : plan->ctes) {
    AddOperatorTimes(cte.get(), &seen, layers->op_ms);
  }
  AddOperatorTimes(plan->root.get(), &seen, layers->op_ms);
  layers->table_rows += stats.rows_scanned;
  layers->bytes_touched += stats.bytes_touched;
  layers->morsels_pruned += stats.morsels_pruned;
  layers->bloom_rejects += stats.bloom_rejects;
  return std::move(rows->rows);
}

// --- maintenance -----------------------------------------------------------

/// One maintenance cycle. Untraced it is RunMaintenanceGeneration; traced,
/// the same generation build composed from its public parts. `due` is
/// when an open-loop schedule wanted it to start (0 = now).
Cycle Bench::MaintenanceCycle(int cycle, bool traced_cycle, double due,
                              tpcds::WalWriter* wal,
                              tpcds::DataFacadeProvider* provider) {
  Cycle c;
  Tracer* t = traced_cycle ? tracer() : nullptr;
  c.traced = t != nullptr;
  tpcds::MaintenanceOptions dm = DmOptions(cycle);
  tpcds::MaintenanceReport report;
  if (c.traced) {
    for (const std::string& name : tpcds::MaintainedTables()) {
      c.cloned_mb += TableMb(*db_->FindTable(name));
    }
  }
  double start = SteadyNow();
  if (due <= 0.0) due = start;
  c.due = due;
  c.late_ms = Ms(start - due);
  Status status;
  if (!c.traced) {
    status = tpcds::RunMaintenanceGeneration(db_.get(), dm, &report, wal,
                                             provider);
  } else {
    int64_t root = t->NewId();
    if (start > due) t->Record("maintenance.late", root, due, start, cycle);
    status = [&]() -> Status {
      std::unique_ptr<Database> build;
      {
        ScopedSpan s(t, "maintenance.fork", root, cycle);
        TPCDS_ASSIGN_OR_RETURN(
            build, db_->ForkForMaintenance(tpcds::MaintainedTables()));
        c.fork_ms = Ms(s.End());
      }
      Status ops;
      {
        ScopedSpan s(t, "maintenance.ops", root, cycle);
        ops = tpcds::RunDataMaintenance(build.get(), dm, &report, wal);
        c.ops_ms = Ms(s.End());
      }
      if (!ops.ok() && wal == nullptr) return ops;
      std::vector<std::string> recollect;
      for (const std::string& name : tpcds::MaintainedTables()) {
        const tpcds::EngineTable* old = db_->FindTable(name);
        if (old != nullptr && old->ComputedStats() != nullptr) {
          recollect.push_back(name);
        }
      }
      {
        ScopedSpan s(t, "maintenance.adopt", root, cycle);
        TPCDS_RETURN_NOT_OK(db_->AdoptTablesFrom(build.get()));
        c.adopt_ms = Ms(s.End());
      }
      {
        ScopedSpan s(t, "maintenance.stats", root, cycle);
        for (const std::string& name : recollect) {
          db_->FindTable(name)->GetOrComputeStats();
        }
        c.stats_ms = Ms(s.End());
      }
      if (provider != nullptr) {
        ScopedSpan s(t, "maintenance.publish", root, cycle);
        provider->Publish(db_->Snapshot());
        c.publish_ms = Ms(s.End());
      }
      return ops;
    }();
    t->Record("unit.dm_cycle", 0, due, SteadyNow(), cycle, root);
  }
  c.seconds = SteadyNow() - due;
  c.rows = report.TotalRows();
  Check(status.ok(),
        "maintenance cycle " + std::to_string(cycle) + ": " +
            status.ToString());
  return c;
}

void Bench::AddQueryRun(QueryRun run) {
  for (const StatementResult& s : run.statements) {
    slice_ms_.push_back(Ms(s.slice_s));
  }
  if (run.traced) {
    run.statements.clear();  // answers are checked; keep only the layers
    traced_runs_.push_back(std::move(run));
    return;
  }
  run_s_.push_back(run.normalized_s);
  raw_run_s_.push_back(run.wall_s);
  std::vector<double> latencies;
  for (const StatementResult& s : run.statements) {
    if (!s.error.empty()) continue;
    latencies.push_back(NormalizedMs(s));
    raw_latencies_ms_.push_back(s.latency_ms);
  }
  run_latencies_ms_.push_back(std::move(latencies));
}

void Bench::AddCycle(const Cycle& c, double factor) {
  if (c.traced) {
    traced_cycles_.push_back(c);
    return;
  }
  dm_s_.push_back(c.seconds * factor);
  raw_dm_s_.push_back(c.seconds);
}

// --- workloads -------------------------------------------------------------

/// throughput: the execution rules with S = 3. Each round is one
/// RunQueryRun (3 client threads through a QueryService) followed by one
/// maintenance generation without a WAL.
Status Bench::Throughput() {
  report_.streams = kThroughputStreams;
  report_.parallelism = 1;
  cfg_.streams = kThroughputStreams;
  cfg_.planner.parallelism = 1;
  TPCDS_RETURN_NOT_OK(Setup());

  // The service RunQueryRun builds: one worker slot per stream, unbounded
  // queue, no memory cap.
  tpcds::ServiceConfig svc;
  svc.worker_slots = kThroughputStreams;
  svc.max_queue_depth = 0;
  svc.planner = cfg_.planner;
  QueryRunSpec spec;
  spec.path = Path::kService;
  spec.streams = {1, 2, 3};
  spec.options = cfg_.planner;

  {
    // Warm-up: the round's statements through the same service shape,
    // answers kept for the checks.
    double warm_start = SteadyNow();
    tpcds::QueryService service(svc, *db_);
    spec.service = &service;
    spec.keep_results = true;
    QueryRun warm = RunStatements(spec);
    double seconds = SteadyNow() - warm_start;
    setup_extra_s_ += seconds * RunFactor(warm);
    raw_setup_extra_s_ += seconds;
    CheckWarmup(warm);
    spec.keep_results = false;
  }

  for (int i = 0; i < Units(); ++i) {
    if (!traced()) {
      // RunQueryRun's query run (a fresh service, one client thread per
      // stream), run here so that each statement has its calibration
      // slice. Round 1 runs on the warm-up's data and must repeat its
      // answers.
      tpcds::QueryService service(svc, *db_);
      spec.service = &service;
      spec.keep_results = i == 0;
      QueryRun run = RunStatements(spec);
      if (i == 0) CheckRepeat(run, 0);
      tpcds::ServiceCounters counters = service.Counters();
      Check(counters.Balanced() && counters.PoolDrained(),
            "service counters unbalanced or pool not drained: " +
                counters.ToString());
      spec.keep_results = false;
      AddQueryRun(std::move(run));
    } else {
      // Traced rounds alternate the service path (RunQueryRun's own
      // parts, with the service's queue/exec split; the reference for the
      // overhead) and the composed path (the executor's layers).
      std::optional<tpcds::QueryService> service;
      spec.traced = true;
      spec.path = i % 2 == 0 ? Path::kService : Path::kComposed;
      if (spec.path == Path::kService) service.emplace(svc, *db_);
      spec.service = service ? &*service : nullptr;
      AddQueryRun(RunStatements(spec));
      if (service.has_value()) {
        tpcds::ServiceCounters counters = service->Counters();
        Check(counters.Balanced() && counters.PoolDrained(),
              "service counters unbalanced or pool not drained: " +
                  counters.ToString());
        service_counters_.completed += counters.completed;
        service_counters_.failed += counters.failed;
        service_counters_.shed += counters.shed;
        service_counters_.rejected_queue_full += counters.rejected_queue_full;
        service_counters_.rejected_deadline += counters.rejected_deadline;
        service_counters_.peak_queue_depth = std::max(
            service_counters_.peak_queue_depth, counters.peak_queue_depth);
      }
    }
    Cycle c;
    double factor = Sampled(cal_, [&] {
      c = MaintenanceCycle(i + 1, traced() && i % 2 == 1, 0.0, nullptr,
                           nullptr);
    });
    AddCycle(c, factor);
  }
  peak_rss_mb_ = PeakRssMb();
  return Status::OK();
}

/// refresh: one reader session runs passes of its 99 statements through
/// a QueryService over a DataFacadeProvider while WAL-logged maintenance
/// cycles fall due at fixed points of its stream and run beside it on this
/// thread. Statements that ran before the first publish must repeat the
/// warm-up's answers; afterwards recovery from checkpoint + WAL must
/// reproduce the live database exactly.
Status Bench::Refresh() {
  report_.streams = 1;
  report_.parallelism = 1;
  cfg_.planner.parallelism = 1;
  TPCDS_RETURN_NOT_OK(Setup());
  const std::string dir = opt_.out_dir + "/refresh-" + std::to_string(::getpid());
  const std::string ckpt_dir = dir + "/checkpoint";
  const std::string wal_path = dir + "/wal";
  std::error_code ec;
  fs::create_directories(dir, ec);
  TPCDS_RETURN_NOT_OK(Checkpoint(ckpt_dir));

  tpcds::DataFacadeProvider provider;
  provider.Publish(db_->Snapshot());
  tpcds::ServiceConfig svc;
  svc.worker_slots = 1;
  svc.max_queue_depth = 0;
  svc.planner = cfg_.planner;
  tpcds::QueryService service(svc, &provider);

  QueryRunSpec spec;
  spec.path = Path::kService;
  spec.streams = {1};
  spec.options = cfg_.planner;
  spec.service = &service;
  spec.provider = &provider;
  spec.unit_name = "unit.reader_pass";
  {
    spec.keep_results = true;
    double warm_start = SteadyNow();
    QueryRun warm = RunStatements(spec);
    double seconds = SteadyNow() - warm_start;
    setup_extra_s_ += seconds * RunFactor(warm);
    raw_setup_extra_s_ += seconds;
    CheckWarmup(warm);
    spec.keep_results = false;
  }

  tpcds::WalWriter wal;
  TPCDS_RETURN_NOT_OK(wal.Open(wal_path));
  const uint64_t swaps_before = provider.PublishCount();
  std::mutex due_mu;  // guards due and reader_done
  std::condition_variable due_cv;
  std::deque<double> due;  // cycles fallen due, not yet started
  bool reader_done = false;
  spec.before_statement = [&](size_t position) {
    if (position % kStatementsPerCycle != kStatementsPerCycle / 2) return;
    std::lock_guard<std::mutex> lock(due_mu);
    due.push_back(SteadyNow());
    due_cv.notify_all();
  };
  std::vector<QueryRun> passes;
  std::vector<Cycle> cycles;
  {
    std::jthread reader([&] {
      for (int i = 0; i < Units(); ++i) {
        QueryRunSpec pass = spec;
        pass.traced = traced();
        pass.keep_results = true;
        if (traced() && i % 2 == 1) pass.path = Path::kComposed;
        passes.push_back(RunStatements(pass));
      }
      std::lock_guard<std::mutex> lock(due_mu);
      reader_done = true;
      due_cv.notify_all();
    });
    // Every cycle that fell due runs, late if the previous one still ran.
    uint64_t wal_size = 0;
    for (int cycle = 1;; ++cycle) {
      double due_s = 0.0;
      {
        std::unique_lock<std::mutex> lock(due_mu);
        due_cv.wait(lock, [&] { return reader_done || !due.empty(); });
        if (due.empty()) break;
        due_s = due.front();
        due.pop_front();
      }
      Cycle c = MaintenanceCycle(cycle, traced() && cycle % 2 == 0, due_s,
                                 &wal, &provider);
      uint64_t size = fs::file_size(wal_path, ec);
      wal_bytes_.push_back(size - wal_size);
      wal_size = size;
      rows_changed_ += c.rows;
      cycles.push_back(c);
    }
  }
  peak_rss_mb_ = PeakRssMb();
  layer_["facade.swaps"] =
      static_cast<double>(provider.PublishCount() - swaps_before);
  // A cycle is normalized by the reader's calibration slices that ran
  // while it did (the nearest one when none did).
  std::vector<std::pair<double, double>> slices;  // (start, seconds)
  for (const QueryRun& pass : passes) {
    for (const StatementResult& s : pass.statements) {
      slices.emplace_back(s.slice_at, s.slice_s);
    }
  }
  std::sort(slices.begin(), slices.end());
  for (const Cycle& c : cycles) {
    std::vector<double> during;
    for (const auto& [at, seconds] : slices) {
      if (at >= c.due && at <= c.due + c.seconds) during.push_back(seconds);
    }
    if (during.empty() && !slices.empty()) {
      auto nearest = std::min_element(
          slices.begin(), slices.end(), [&](const auto& a, const auto& b) {
            return std::abs(a.first - c.due) < std::abs(b.first - c.due);
          });
      during.push_back(nearest->second);
    }
    AddCycle(c, Calibration::Factor(Median(std::move(during))));
  }
  for (QueryRun& pass : passes) {
    CheckRepeat(pass, swaps_before);
    AddQueryRun(std::move(pass));
  }
  tpcds::ServiceCounters counters = service.Counters();
  service_counters_ = counters;
  Check(counters.Balanced() && counters.PoolDrained(),
        "service counters unbalanced or pool not drained: " +
            counters.ToString());

  // Invariants, outside the timed phase.
  TPCDS_RETURN_NOT_OK(wal.Close());
  {
    Database recovered;
    double replay_start = SteadyNow();
    auto recovery = tpcds::Recover(&recovered, ckpt_dir, wal_path);
    layer_["recovery.replay_s"] = SteadyNow() - replay_start;
    Check(recovery.ok(), "recovery: " + recovery.status().ToString());
    if (recovery.ok()) {
      Check(tpcds::HashDatabaseContent(recovered) ==
                tpcds::HashDatabaseContent(*db_),
            "recovered database differs from the live one");
    }
  }
  auto audit = tpcds::ValidateConstraints(db_.get(), tpcds::TpcdsSchema());
  Check(audit.ok() && audit->TotalViolations() == 0,
        "constraint violations after the last cycle");
  fs::remove_all(dir, ec);
  return Status::OK();
}

// --- reporting -------------------------------------------------------------

void Bench::Metric(const std::string& name, const std::string& unit,
                   double value, std::vector<double> samples) {
  if (samples.empty()) samples.push_back(value);
  report_.metrics.push_back(MetricValue{name, unit, value, std::move(samples)});
}

void Bench::ReportEndToEnd() {
  std::vector<double> setups;
  for (double s : setup_repeats_) setups.push_back(s + setup_extra_s_);
  Metric("setup_s", "s", Median(setups), setups);
  Metric("query_run_s", "s", Median(run_s_), run_s_);

  std::vector<double> all;
  std::vector<double> p50s;
  std::vector<double> p95s;
  for (const auto& lat : run_latencies_ms_) {
    all.insert(all.end(), lat.begin(), lat.end());
    p50s.push_back(Median(lat));
    p95s.push_back(TailPercentile(lat, 0.95, 0).value_or(0.0));
  }
  Metric("query_p50_ms", "ms", Median(all), p50s);
  std::optional<double> p95 = TailPercentile(all, 0.95);
  Check(p95.has_value(), "too few statements for query_p95_ms");
  Metric("query_p95_ms", "ms", p95.value_or(0.0), p95s);

  // QphDS@SF on this run's medians; T_QR counts for both query runs. The
  // in-run samples pair the i-th query run with the i-th cycle.
  auto qphds = [&](double t_qr, double t_dm) {
    tpcds::MetricInputs in;
    in.scale_factor = kScaleFactor;
    in.streams = report_.streams;
    in.t_load_sec = Median(load_s_);
    in.t_qr1_sec = t_qr;
    in.t_qr2_sec = t_qr;
    in.t_dm_sec = t_dm;
    return tpcds::QphDs(in);
  };
  std::vector<double> qph;
  for (size_t i = 0; i < std::min(run_s_.size(), dm_s_.size()); ++i) {
    qph.push_back(qphds(run_s_[i], dm_s_[i]));
  }
  Metric("qphds", "QphDS", qphds(Median(run_s_), Median(dm_s_)), qph);
  Metric("dm_s", "s", Median(dm_s_), dm_s_);
  Metric("peak_rss_mb", "MB", peak_rss_mb_);

  // The same medians as measured, before normalization, for the record.
  char line[320];
  std::snprintf(line, sizeof(line),
                "as measured: setup_s %.4g, query_run_s %.4g, "
                "query_p50_ms %.4g, query_p95_ms %.4g, dm_s %.4g; "
                "calibration slice median %.4g ms (reference %.4g ms)",
                Median(raw_setup_s_) + raw_setup_extra_s_,
                Median(raw_run_s_), Median(raw_latencies_ms_),
                TailPercentile(raw_latencies_ms_, 0.95, 0).value_or(0.0),
                Median(raw_dm_s_), Median(slice_ms_),
                Ms(Calibration::kReferenceSliceS));
  report_.notes.push_back(line);
}

/// Median over units of one per-unit quantity.
template <typename T, typename F>
double MedianOf(const std::vector<T>& units, F f) {
  std::vector<double> v;
  for (const T& u : units) v.push_back(f(u));
  return Median(v);
}

void Bench::ReportLayers() {
  std::vector<Span> spans = tracer()->Spans();
  auto self = SelfTimeByRoot(spans);
  std::map<int64_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) roots[s.id] = &s;
  }

  std::vector<QueryRun> composed;   // executor layers
  std::vector<QueryRun> reference;  // untraced or service-path units
  for (const QueryRun& r : traced_runs_) {
    (r.layers.exec_ms > 0.0 ? composed : reference).push_back(r);
  }
  auto L = [](const QueryRun& r) -> const QueryRunLayers& { return r.layers; };
  auto& v = layer_;
  v["qgen.instantiate_ms"] = MedianOf(composed, [&](auto& r) { return L(r).qgen_ms; });
  v["parser.parse_ms"] = MedianOf(composed, [&](auto& r) { return L(r).parse_ms; });
  v["plan.build_ms"] = MedianOf(composed, [&](auto& r) { return L(r).plan_ms; });
  v["executor.exec_ms"] = MedianOf(composed, [&](auto& r) { return L(r).exec_ms; });
  for (int k = 0; k < kOpKinds; ++k) {
    v[std::string("executor.") + kOpNames[k] + "_ms"] =
        MedianOf(composed, [&](auto& r) { return L(r).op_ms[k]; });
  }
  v["executor.op_coverage"] = MedianOf(composed, [&](auto& r) {
    double ops = 0.0;
    for (double ms : L(r).op_ms) ops += ms;
    return L(r).exec_ms > 0.0 ? ops / L(r).exec_ms : 0.0;
  });
  v["executor.cpu_ms"] = MedianOf(composed, [&](auto& r) { return L(r).cpu_ms; });
  v["executor.table_rows"] = MedianOf(composed, [&](auto& r) { return double(L(r).table_rows); });
  v["executor.bytes_touched"] = MedianOf(composed, [&](auto& r) { return double(L(r).bytes_touched); });
  v["executor.morsels_pruned"] = MedianOf(composed, [&](auto& r) { return double(L(r).morsels_pruned); });
  v["executor.bloom_rejects"] = MedianOf(composed, [&](auto& r) { return double(L(r).bloom_rejects); });
  v["executor.result_rows"] = MedianOf(composed, [&](auto& r) { return double(L(r).result_rows); });
  // Layer times are summed over the run's streams, so the share is of
  // their summed statement time, not of the run's wall time.
  v["trace.parse_plan_share"] = MedianOf(composed, [&](auto& r) {
    double statement_ms =
        L(r).qgen_ms + L(r).parse_ms + L(r).plan_ms + L(r).exec_ms;
    return statement_ms > 0.0
               ? (L(r).parse_ms + L(r).plan_ms) / statement_ms
               : 0.0;
  });

  std::vector<QueryRun> service_runs;
  for (const QueryRun& r : reference) {
    if (r.layers.queue_ms > 0.0 || r.layers.overhead_ms > 0.0) {
      service_runs.push_back(r);
    }
  }
  v["service.queue_ms"] = MedianOf(service_runs, [&](auto& r) { return L(r).queue_ms; });
  v["service.overhead_ms"] = MedianOf(service_runs, [&](auto& r) { return L(r).overhead_ms; });
  v["service.peak_queue_depth"] = double(service_counters_.peak_queue_depth);
  v["service.completed"] = double(service_counters_.completed);
  v["service.failed"] = double(service_counters_.failed);
  v["service.shed"] = double(service_counters_.shed);
  v["service.rejected"] = double(service_counters_.rejected_queue_full +
                                 service_counters_.rejected_deadline);

  const auto& cyc = traced_cycles_;
  v["maintenance.fork_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.fork_ms; });
  v["maintenance.ops_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.ops_ms; });
  v["maintenance.adopt_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.adopt_ms; });
  v["maintenance.stats_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.stats_ms; });
  v["maintenance.publish_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.publish_ms; });
  v["maintenance.late_ms"] = MedianOf(cyc, [](const Cycle& c) { return c.late_ms; });
  v["maintenance.rows_changed"] = MedianOf(cyc, [](const Cycle& c) { return double(c.rows); });
  v["maintenance.cloned_mb"] = MedianOf(cyc, [](const Cycle& c) { return c.cloned_mb; });
  v["maintenance.stats_share"] = MedianOf(cyc, [](const Cycle& c) {
    return c.seconds > 0.0 ? c.stats_ms / Ms(c.seconds) : 0.0;
  });
  std::vector<double> wal_mb;
  uint64_t wal_total = 0;
  for (uint64_t b : wal_bytes_) {
    wal_mb.push_back(static_cast<double>(b) / 1e6);
    wal_total += b;
  }
  v["wal.mb"] = Median(wal_mb);
  v["wal.bytes_per_row"] =
      rows_changed_ > 0 ? double(wal_total) / double(rows_changed_) : 0.0;

  // Overhead of the traced units against the untraced ones of this run,
  // both as measured.
  std::vector<double> ref_walls;
  for (const QueryRun& r : reference) ref_walls.push_back(r.wall_s);
  if (ref_walls.empty()) ref_walls = raw_run_s_;
  double traced_qr = MedianOf(composed, [](const QueryRun& r) { return r.wall_s; });
  v["trace.qr_overhead"] =
      ref_walls.empty() || Median(ref_walls) == 0.0
          ? 0.0
          : traced_qr / Median(ref_walls) - 1.0;
  double traced_dm = MedianOf(cyc, [](const Cycle& c) { return c.seconds; });
  v["trace.dm_overhead"] =
      raw_dm_s_.empty() || Median(raw_dm_s_) == 0.0
          ? 0.0
          : traced_dm / Median(raw_dm_s_) - 1.0;
  v["trace.spans"] = static_cast<double>(spans.size());
  v["calibration.slice_ms"] = Median(slice_ms_);

  // Coverage: the share of span time (summed over threads) that a module
  // layer, not a wrapper, accounts for, over the timed traced units.
  double attributed = 0.0;
  double total = 0.0;
  std::map<std::string, std::map<std::string, std::vector<double>>> table;
  std::map<std::string, std::vector<double>> unit_walls;
  for (const auto& [root_id, by_name] : self) {
    auto it = roots.find(root_id);
    if (it == roots.end()) continue;
    const std::string& unit = it->second->name;
    unit_walls[unit].push_back(Ms(it->second->end_s - it->second->start_s));
    for (const auto& [name, seconds] : by_name) {
      table[unit][IsLayerSpan(name) ? name : "(unattributed)"].push_back(
          Ms(seconds));
      if (unit == "unit.setup" || !unit.starts_with("unit.")) continue;
      total += seconds;
      if (IsLayerSpan(name)) attributed += seconds;
    }
  }
  v["trace.coverage"] = total > 0.0 ? attributed / total : 0.0;

  std::string out =
      "per-layer self time (median ms per traced unit; share of the unit's "
      "span time, summed over its threads):\n";
  for (const auto& [unit, names] : table) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %s: %zu units, median wall %.1f ms\n",
                  unit.c_str(), unit_walls[unit].size(),
                  Median(unit_walls[unit]));
    out += line;
    std::map<std::string, double> medians;
    double sum = 0.0;
    for (const auto& [name, values] : names) {
      // Layers absent from some units count 0 there.
      std::vector<double> padded = values;
      padded.resize(unit_walls[unit].size(), 0.0);
      medians[name] = Median(padded);
      sum += medians[name];
    }
    for (const auto& [name, med] : medians) {
      std::snprintf(line, sizeof(line), "    %-24s %10.2f ms  %5.1f%%\n",
                    name.c_str(), med, sum > 0.0 ? 100.0 * med / sum : 0.0);
      out += line;
    }
  }
  report_.self_time_table = out;

  static const std::pair<const char*, const char*> kLayers[] = {
      {"dsgen.generate_s", "s"}, {"dsgen.rows", "count"},
      {"engine.load_s", "s"}, {"engine.table_mb", "MB"},
      {"audit.validate_s", "s"}, {"stats.analyze_s", "s"},
      {"checkpoint.save_s", "s"}, {"checkpoint.mb", "MB"},
      {"qgen.instantiate_ms", "ms"}, {"parser.parse_ms", "ms"},
      {"plan.build_ms", "ms"}, {"executor.exec_ms", "ms"},
      {"executor.scan_ms", "ms"}, {"executor.hash_join_ms", "ms"},
      {"executor.semi_join_ms", "ms"}, {"executor.aggregate_ms", "ms"},
      {"executor.sort_ms", "ms"}, {"executor.other_ms", "ms"},
      {"executor.op_coverage", "ratio"}, {"executor.cpu_ms", "ms"},
      {"executor.table_rows", "count"},
      {"executor.bytes_touched", "B"}, {"executor.morsels_pruned", "count"},
      {"executor.bloom_rejects", "count"}, {"executor.result_rows", "count"},
      {"service.queue_ms", "ms"}, {"service.overhead_ms", "ms"},
      {"service.peak_queue_depth", "count"}, {"service.completed", "count"},
      {"service.failed", "count"}, {"service.shed", "count"},
      {"service.rejected", "count"}, {"maintenance.fork_ms", "ms"},
      {"maintenance.ops_ms", "ms"}, {"maintenance.adopt_ms", "ms"},
      {"maintenance.stats_ms", "ms"}, {"maintenance.publish_ms", "ms"},
      {"maintenance.late_ms", "ms"}, {"maintenance.rows_changed", "count"},
      {"maintenance.cloned_mb", "MB"}, {"maintenance.stats_share", "ratio"},
      {"wal.mb", "MB"}, {"wal.bytes_per_row", "B"},
      {"recovery.replay_s", "s"}, {"facade.swaps", "count"},
      {"trace.coverage", "ratio"}, {"trace.qr_overhead", "ratio"},
      {"trace.dm_overhead", "ratio"}, {"trace.parse_plan_share", "ratio"},
      {"trace.spans", "count"}, {"calibration.slice_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) {
    auto it = v.find(name);
    Metric(name, unit, it == v.end() ? 0.0 : it->second);
  }

  std::error_code ec;
  fs::create_directories(opt_.out_dir, ec);
  report_.trace_path = opt_.out_dir + "/trace-" + opt_.workload + "-" +
                       std::to_string(opt_.seed) + ".json";
  Status written = WriteChromeTrace(report_.trace_path, spans);
  if (!written.ok()) report_.trace_path = "(" + written.ToString() + ")";
}

tpcds::Result<RunReport> Bench::Run() {
  TPCDS_RETURN_NOT_OK(LoadExpected());
  Status status;
  if (opt_.workload == "throughput") {
    status = Throughput();
  } else if (opt_.workload == "refresh") {
    status = Refresh();
  } else {
    return Status::InvalidArgument("unknown workload: " + opt_.workload);
  }
  TPCDS_RETURN_NOT_OK(status);
  if (traced()) {
    ReportLayers();
  } else {
    ReportEndToEnd();
  }
  return report_;
}

}  // namespace

tpcds::Result<RunReport> RunWorkload(const RunOptions& options) {
  Bench bench(options);
  return bench.Run();
}

Status RecordDigests(const std::string& path) {
  tpcds::BenchmarkConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = kDefaultSeed;
  Database db;
  TPCDS_RETURN_NOT_OK(tpcds::RunLoadTest(cfg, &db).status());
  db.AnalyzeStorage();
  const std::vector<tpcds::QueryTemplate>& templates = tpcds::AllTemplates();
  tpcds::QueryGenerator qgen(kDefaultSeed);
  tpcds::PlannerOptions serial;
  tpcds::PlannerOptions parallel;
  parallel.parallelism = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  DigestTable table;
  for (int stream = 1; stream <= kThroughputStreams; ++stream) {
    for (const tpcds::QueryTemplate& tmpl : templates) {
      TPCDS_ASSIGN_OR_RETURN(std::string sql, qgen.Instantiate(tmpl, stream));
      TPCDS_ASSIGN_OR_RETURN(tpcds::QueryResult result, db.Query(sql, serial));
      TPCDS_ASSIGN_OR_RETURN(
          DigestKind kind,
          ClassifyStatement(*db.Snapshot(), sql, result, serial));
      ExpectedAnswer answer{kind, DigestRows(result.rows, kind)};
      // The executor promises identical answers at every parallelism;
      // a statement that breaks that promise is recorded by count only.
      TPCDS_ASSIGN_OR_RETURN(tpcds::QueryResult again,
                             db.Query(sql, parallel));
      if (DigestRows(again.rows, kind) != answer.digest) {
        answer.kind = DigestKind::kCount;
        answer.digest = DigestRows(result.rows, DigestKind::kCount);
      }
      table[{stream, tmpl.id}] = answer;
    }
  }
  return SaveDigests(path, kDefaultSeed, kScaleFactor, table);
}

}  // namespace tpcbench

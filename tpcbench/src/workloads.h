#ifndef TPCBENCH_WORKLOADS_H_
#define TPCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace tpcbench {

/// The benchmark's default seed (dsgen, qgen and maintenance all take it).
inline constexpr uint64_t kDefaultSeed = 19620718;
/// Every workload runs at this scale factor.
inline constexpr double kScaleFactor = 0.1;

struct RunOptions {
  std::string workload;  // "throughput" or "refresh"
  uint64_t seed = kDefaultSeed;
  /// Length of the timed phase at reference speed: it sets how many
  /// repeats of its unit a workload times (one per 5 s, at least 3), the
  /// same on every host.
  double seconds = 20.0;
  /// Traced run: per-layer metrics and a Chrome trace instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Scratch directory for the checkpoint, WAL and trace files.
  std::string out_dir = ".bench_out";
  /// Stored answers for the default seed (digest file); empty = none.
  std::string digests_path;
  /// Source revision, stated in the run record.
  std::string revision = "unknown";
};

/// One reported metric with its in-run samples (the repeats it is a
/// median over; a single sample for metrics that are not timed repeats).
struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;
};

struct RunReport {
  // Run record: what a comparison between two runs must hold fixed.
  std::string workload;
  int nproc = 0;
  std::string build_type;
  double scale_factor = kScaleFactor;
  int streams = 0;
  int parallelism = 0;
  uint64_t seed = 0;
  std::string revision;
  bool traced = false;

  /// Timed operations (statements and maintenance cycles) plus answer and
  /// invariant checks; `failed` counts errors and mismatches among them.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Lines printed before the result (e.g. the unnormalized medians).
  std::vector<std::string> notes;

  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<MetricValue> metrics;
  /// Traced run only: the per-layer self-time table and the trace file.
  std::string self_time_table;
  std::string trace_path;
};

/// Runs one workload end to end in this process: set-up, timed phase,
/// answer and invariant checks.
tpcds::Result<RunReport> RunWorkload(const RunOptions& options);

/// Loads the default-seed database and writes the answer digests of every
/// statement the workloads issue (streams 1-3, all 99 templates) to
/// `path`, classifying each statement's comparison kind.
tpcds::Status RecordDigests(const std::string& path);

}  // namespace tpcbench

#endif  // TPCBENCH_WORKLOADS_H_

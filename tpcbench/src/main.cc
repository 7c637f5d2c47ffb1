// tpcbench: runs one benchmark workload in this process and prints its
// report. The last line of standard output is one JSON object holding the
// metrics, their in-run samples' quartiles and the run record; run.py turns
// it into the benchmark's result line.
//
//   tpcbench --workload throughput|refresh [--seed N] [--seconds S]
//            [--trace 0|1] [--out-dir DIR] [--digests FILE] [--revision R]
//   tpcbench --record-digests FILE

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "json.h"
#include "sample_stats.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tpcbench --workload throughput|refresh "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--digests FILE] [--revision R]\n"
               "       tpcbench --record-digests FILE\n");
  return 2;
}

std::string RenderReport(const tpcbench::RunReport& r) {
  using tpcbench::JsonObject;
  JsonObject metrics;
  JsonObject steadiness;
  for (const tpcbench::MetricValue& m : r.metrics) {
    JsonObject value;
    value.Num("value", m.value);
    value.Str("unit", m.unit);
    metrics.Raw(m.name, value.Render());
    tpcbench::Quartiles q = tpcbench::QuartilesOf(m.samples);
    JsonObject s;
    s.Int("n", static_cast<int64_t>(m.samples.size()));
    s.Num("q1", q.q1);
    s.Num("median", tpcbench::Median(m.samples));
    s.Num("q3", q.q3);
    steadiness.Raw(m.name, s.Render());
  }
  JsonObject record;
  record.Str("workload", r.workload);
  record.Int("nproc", r.nproc);
  record.Str("build_type", r.build_type);
  record.Num("sf", r.scale_factor);
  record.Int("streams", r.streams);
  record.Int("parallelism", r.parallelism);
  record.Int("seed", static_cast<int64_t>(r.seed));
  record.Str("revision", r.revision);
  record.Bool("trace", r.traced);
  JsonObject out;
  out.Bool("correct", r.failed == 0);
  out.Int("attempted", r.attempted);
  out.Int("failed", r.failed);
  out.Raw("metrics", metrics.Render());
  out.Raw("steadiness", steadiness.Render());
  out.Raw("record", record.Render());
  return out.Render();
}

}  // namespace

int main(int argc, char** argv) {
  tpcbench::RunOptions options;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--digests") {
      options.digests_path = value;
    } else if (flag == "--revision") {
      options.revision = value;
    } else if (flag == "--record-digests") {
      record_path = value;
    } else {
      return Usage();
    }
  }
  if (!record_path.empty()) {
    tpcds::Status status = tpcbench::RecordDigests(record_path);
    if (!status.ok()) {
      std::fprintf(stderr, "record failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", record_path.c_str());
    return 0;
  }
  if (options.workload.empty() || options.seconds <= 0.0) return Usage();

  tpcds::Result<tpcbench::RunReport> report = tpcbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& f : report->failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& note : report->notes) {
    std::printf("%s\n", note.c_str());
  }
  if (report->traced) {
    std::printf("%s", report->self_time_table.c_str());
    std::printf("trace written to %s\n", report->trace_path.c_str());
  }
  std::printf("%s\n", RenderReport(*report).c_str());
  return 0;
}

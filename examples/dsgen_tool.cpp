// dsgen_tool: a command-line clone of the official dsdgen — writes
// '|'-delimited flat files for all (or selected) TPC-DS tables.
//
//   ./examples/dsgen_tool -scale 0.01 -dir /tmp/tpcds_data
//                         [-table store_sales] [-parallel 4 -child 2]
//                         [-rngseed 19620718]
//
// With -parallel N and -child C the tool emits chunk C of N; the
// concatenation of all chunks is bit-identical to a serial run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "dsgen/generator.h"
#include "dsgen/parallel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: dsgen_tool -scale SF [-dir DIR] [-table NAME] "
      "[-parallel N -child C] [-rngseed SEED]\n");
}

}  // namespace

int main(int argc, char** argv) {
  tpcds::GeneratorOptions options;
  options.scale_factor = 0.01;
  std::string dir = ".";
  std::string only_table;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "-scale") {
      options.scale_factor = std::strtod(next(), nullptr);
    } else if (arg == "-dir") {
      dir = next();
    } else if (arg == "-table") {
      only_table = next();
    } else if (arg == "-parallel") {
      options.num_chunks = std::atoi(next());
    } else if (arg == "-child") {
      options.chunk = std::atoi(next());
    } else if (arg == "-threads") {
      threads = std::atoi(next());  // in-process parallel generation
    } else if (arg == "-rngseed") {
      options.master_seed = std::strtoull(next(), nullptr, 10);
    } else {
      Usage();
      return 1;
    }
  }
  if (options.scale_factor <= 0) {
    Usage();
    return 1;
  }
  std::filesystem::create_directories(dir);

  uint64_t total_rows = 0;
  uint64_t total_bytes = 0;
  tpcds::Stopwatch timer;
  for (const std::string& table : tpcds::GeneratorTableNames()) {
    if (!only_table.empty() && table != only_table) continue;
    std::string suffix =
        options.num_chunks > 1
            ? tpcds::StringPrintf("_%d_%d", options.chunk,
                                  options.num_chunks)
            : "";
    std::string path = dir + "/" + table + suffix + ".dat";
    tpcds::FlatFileWriter writer;
    tpcds::Status st = writer.Open(path);
    if (st.ok()) {
      if (threads > 1) {
        tpcds::ThreadPool pool(static_cast<size_t>(threads));
        st = tpcds::GenerateTableParallel(table, options, threads, &pool,
                                          &writer);
      } else {
        auto gen = tpcds::MakeGenerator(table, options);
        st = gen.ok() ? (*gen)->Generate(&writer) : gen.status();
      }
    }
    if (st.ok()) st = writer.Close();
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", table.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("%-24s %12llu rows %14llu bytes -> %s\n", table.c_str(),
                static_cast<unsigned long long>(writer.rows_written()),
                static_cast<unsigned long long>(writer.bytes_written()),
                path.c_str());
    total_rows += writer.rows_written();
    total_bytes += writer.bytes_written();
  }
  std::printf("\n%llu rows, %.1f MB in %.2f s (%.1f MB/s)\n",
              static_cast<unsigned long long>(total_rows),
              static_cast<double>(total_bytes) / 1e6,
              timer.ElapsedSeconds(),
              static_cast<double>(total_bytes) / 1e6 /
                  timer.ElapsedSeconds());
  return 0;
}

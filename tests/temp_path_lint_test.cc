// Lint: every test builds its scratch paths with ProcessTempPath
// (temp_path.h). ctest runs each gtest case as its own process and
// `ctest -j` runs them side by side, so a path taken straight from the
// gtest or system temp directory is shared by concurrently running cases.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#ifndef TPCDS_TESTS_SOURCE_DIR
#error "tests/CMakeLists.txt defines TPCDS_TESTS_SOURCE_DIR"
#endif

namespace tpcds {
namespace {

TEST(TempPathLintTest, TestSourcesTakeTempPathsFromProcessTempPath) {
  // Spelled in two pieces so that this file does not match itself.
  const std::string banned[] = {std::string("Temp") + "Dir(",
                                std::string("temp_directory") + "_path("};
  size_t scanned = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(TPCDS_TESTS_SOURCE_DIR)) {
    if (entry.path().extension() != ".cc") continue;
    ++scanned;
    std::ifstream in(entry.path());
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
      for (const std::string& call : banned) {
        EXPECT_EQ(line.find(call), std::string::npos)
            << entry.path().filename().string() << ":" << n << " calls "
            << call << "); build the path with ProcessTempPath instead";
      }
    }
  }
  EXPECT_GT(scanned, 1u) << "no test sources under " TPCDS_TESTS_SOURCE_DIR;
}

}  // namespace
}  // namespace tpcds

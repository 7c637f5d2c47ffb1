#ifndef TPCDS_TESTS_TEMP_PATH_H_
#define TPCDS_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace tpcds {

/// `leaf` under the gtest temp directory, suffixed with this process's id.
/// ctest runs every test case as its own process and `ctest -j` runs them
/// side by side, so a fixed leaf lets one case remove or rewrite a file
/// that another case is still using (such as a checkpoint it has mmapped).
inline std::string ProcessTempPath(const std::string& leaf) {
  return ::testing::TempDir() + leaf + "_" + std::to_string(::getpid());
}

}  // namespace tpcds

#endif  // TPCDS_TESTS_TEMP_PATH_H_

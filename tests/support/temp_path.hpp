// Per-process temp paths for tests that write files.
//
// gtest_discover_tests runs every test case as its own process and
// `ctest -j` runs many of them at once, all sharing
// ::testing::TempDir(). A fixed leaf name there is a race between
// cases. tmpPath() puts each file in a directory private to the process
// (named by pid, removed at exit) and prefixes it with the running
// test's name.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace fepia::testing {

/// TempDir()/fepia-<pid>/, created on first use and removed recursively
/// when the process exits.
inline const std::string& processTempDir() {
  static const std::string dir = [] {
    std::string d =
        ::testing::TempDir() + "fepia-" + std::to_string(::getpid()) + "/";
    std::filesystem::create_directories(d);
    return d;
  }();
  // Registered after `dir` is complete, so it runs before dir's
  // destructor.
  [[maybe_unused]] static const bool cleanup = std::atexit([] {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }) == 0;
  return dir;
}

/// A path for `leaf` unique to this process and test case:
/// TempDir()/fepia-<pid>/<Suite>.<Test>.<leaf>.
inline std::string tmpPath(const std::string& leaf) {
  std::string test = "global";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : test) {
      if (c == '/') c = '_';  // parameterised names
    }
  }
  return processTempDir() + test + "." + leaf;
}

}  // namespace fepia::testing

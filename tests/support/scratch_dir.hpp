// Per-test scratch directory for tests that write files.
//
// gtest_discover_tests registers every case with ctest as its own process,
// so under `ctest -j` cases run concurrently; two cases writing one fixed
// path (/tmp/foo.txt) overwrite each other's files.  A ScratchDir is named
// after the running test case and the process id, is created empty on
// construction, and is removed with everything in it on destruction.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace stac::test_support {

class ScratchDir {
 public:
  ScratchDir() {
    std::string name = "stac_test";
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += '_';
      name += info->test_suite_name();
      name += '_';
      name += info->name();
    }
    name += '_' + std::to_string(::getpid());
    for (char& ch : name)
      if (ch == '/') ch = '_';  // parameterized suite/case names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// Path of `leaf` inside the directory (the file is not created).
  [[nodiscard]] std::string file(std::string_view leaf) const {
    return (path_ / leaf).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace stac::test_support

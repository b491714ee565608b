// Per-test scratch directories.
//
// gtest_discover_tests registers every TEST as its own ctest, so `ctest -j`
// runs tests of one binary side by side. A file path shared by two tests
// is a race: one test overwrites or deletes the other's files. Every
// artifact path is therefore derived from the running test's suite and
// name, and no two tests ever share a directory.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace g80211::test {

// `<root>/<Suite>.<Name>/`, created on first use. '/' in parameterised
// names becomes '_'.
inline std::filesystem::path artifact_dir(const std::filesystem::path& root) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string leaf = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : leaf) {
    if (c == '/') c = '_';
  }
  const std::filesystem::path dir = root / leaf;
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace g80211::test

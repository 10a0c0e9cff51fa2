#ifndef PCX_TESTS_TEST_PATHS_H_
#define PCX_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

namespace pcx {
namespace test_paths_internal {

/// Every path TestTempPath handed out in this process. The process that
/// asked for them removes them (files, fifos and directories alike) when
/// it exits; a forked child inherits the list but leaves them alone.
struct Registry {
  std::mutex mu;
  std::vector<std::string> paths;
  const pid_t owner = ::getpid();

  ~Registry() {
    if (::getpid() != owner) return;
    std::error_code ignored;
    for (const std::string& path : paths) {
      std::filesystem::remove_all(path, ignored);
    }
  }
};

inline Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

}  // namespace test_paths_internal

/// A temp path private to the running test:
/// `TempDir()/<suite>.<test>.<pid>.<name>`. ctest runs every TEST as its
/// own process, often several at once, so a fixed name under TempDir()
/// would let one test load a file another test is rewriting. Slashes in
/// parameterized suite and test names become underscores.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : stem) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  std::string path = dir + stem + "." + std::to_string(::getpid()) + "." +
                     name;
  test_paths_internal::Registry& registry = test_paths_internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (std::find(registry.paths.begin(), registry.paths.end(), path) ==
      registry.paths.end()) {
    registry.paths.push_back(path);
  }
  return path;
}

}  // namespace pcx

#endif  // PCX_TESTS_TEST_PATHS_H_

// A scratch directory of the test process's own: TempDir()/metacore-<pid>/.
// Suites that write stores and journals put every file there, so files one
// run leaves behind (a crashed run, another checkout sharing the same
// temporary directory) never reach the next run.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace metacore::test {

/// The directory, created on first use and removed with everything in it
/// when the process exits.
inline const std::string& process_temp_dir() {
  struct Dir {
    std::string path;
    Dir()
        : path(testing::TempDir() + "/metacore-" +
               std::to_string(static_cast<long>(::getpid()))) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace metacore::test

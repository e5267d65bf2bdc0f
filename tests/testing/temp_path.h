// Test helper: collision-free scratch paths.
//
// ctest runs every TEST() as its own process, many in parallel, and a suite
// may run twice at once; a fixed scratch name would let one process delete
// or overwrite another's file.  Every path therefore carries the process id.

#ifndef BSDTRACE_TESTS_TESTING_TEMP_PATH_H_
#define BSDTRACE_TESTS_TESTING_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace bsdtrace {

// "<gtest temp dir>/<pid>_<name>": a file or directory name unique to this
// process.  Nothing is created; callers remove what they make.
inline std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') {
    dir += '/';
  }
  return dir + std::to_string(::getpid()) + "_" + name;
}

}  // namespace bsdtrace

#endif  // BSDTRACE_TESTS_TESTING_TEMP_PATH_H_

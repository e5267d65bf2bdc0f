// perfbench: the repository benchmark program.
//
//   perfbench --workload ingest|analyze|sweep|live --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--tiny] [--corrupt-v4]
//
// Builds the workload's inputs from the seed, measures for S seconds of wall
// time, checks every output, and prints one JSON object as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of a
// traced run (spans are written to DIR/spans-<workload>-<seed>.jsonl).
// Progress and diagnostics go to standard error.  Exit status: 0 when a
// result was printed (failed checks are counted in it), 1 when the inputs
// could not be built, 2 on a usage error.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|analyze|sweep|live --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--tiny] [--corrupt-v4]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--tiny") == 0) {
      options.tiny = true;
      continue;
    }
    if (std::strcmp(flag, "--corrupt-v4") == 0) {
      options.corrupt_v4 = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage("missing value after a flag");
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      options.workdir = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUnsigned(value, &options.seed)) {
        return Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 600) {
        return Usage("--seconds takes an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = number == 1;
      have_trace = true;
    } else {
      return Usage("unknown flag");
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  auto result = perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().message().c_str());
    return 1;
  }
  for (const perfbench::Metric& m : result.value().metrics) {
    std::fprintf(stderr, "  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.value().ToJson().c_str());
  return 0;
}

// Microbench for the two-phase sweep engine: times the Fig. 5 cache-size
// sweep done the old way (full AccessReconstructor pass per config) against
// the replay-log way (reconstruct once, replay per config), verifies the
// metrics agree, and emits one machine-readable JSON line plus a
// BENCH_micro_replay.json file so the perf trajectory can be tracked.
//
// Both paths run single-threaded so the ratio isolates the engine change.
// Default trace length is 6 simulated hours — a representative multi-hour
// working day, long enough that the sweep dominates setup noise (set
// BSDTRACE_HOURS to change).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cache/sweep.h"
#include "src/trace/replay_log.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"

namespace bsdtrace {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace
}  // namespace bsdtrace

int main() {
  using namespace bsdtrace;
  double hours = 6.0;
  if (const char* env = std::getenv("BSDTRACE_HOURS")) {
    hours = std::max(0.01, std::atof(env));
  }
  GeneratorOptions options;
  options.duration = Duration::Hours(hours);
  options.seed = 19851201;
  const Trace trace = GenerateTrace(ProfileA5(), options).trace;
  const std::vector<CacheConfig> configs = Fig5Configs();
  std::printf("bench_micro_replay: %zu records, %zu configs, %.2f simulated hours\n",
              trace.size(), configs.size(), hours);

  // Min-of-N timing with an untimed warmup iteration: both phases run in the
  // single-digit-millisecond range at the default trace length, where cold
  // caches, page faults, and frequency ramp-up otherwise dominate the noise.
  constexpr int kReps = 11;
  double reconstruct_s = 1e300;
  double replay_s = 1e300;
  double build_s = 1e300;
  std::vector<CacheMetrics> direct, replayed;
  for (int rep = -1; rep < kReps; ++rep) {
    // Old path: every config pays a full reconstruction.
    auto t0 = std::chrono::steady_clock::now();
    direct.clear();
    for (const CacheConfig& c : configs) {
      direct.push_back(SimulateCache(trace, c));
    }
    if (rep >= 0) {
      reconstruct_s = std::min(reconstruct_s, SecondsSince(t0));
    }

    // New path: reconstruct once into a ReplayLog, replay per config.
    t0 = std::chrono::steady_clock::now();
    const ReplayLog log = ReplayLog::Build(trace);
    const double this_build_s = SecondsSince(t0);
    replayed.clear();
    for (const CacheConfig& c : configs) {
      replayed.push_back(SimulateCache(log, c));
    }
    if (rep >= 0) {
      build_s = std::min(build_s, this_build_s);
      replay_s = std::min(replay_s, SecondsSince(t0));
    }
  }

  bool identical = direct.size() == replayed.size();
  for (size_t i = 0; identical && i < direct.size(); ++i) {
    identical = CacheMetricsBitIdentical(direct[i], replayed[i]);
  }
  const double speedup = replay_s > 0 ? reconstruct_s / replay_s : 0;

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"micro_replay\",\"records\":%zu,\"hours\":%.2f,"
                "\"trace_duration_s\":%.1f,\"configs\":%zu,"
                "\"reconstruct_per_config_s\":%.4f,\"replay_log_s\":%.4f,"
                "\"log_build_s\":%.4f,\"speedup\":%.2f,\"identical\":%s}",
                trace.size(), hours, trace.duration().seconds(), configs.size(), reconstruct_s,
                replay_s, build_s, speedup, identical ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_micro_replay.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: replay-log metrics diverge from the direct path\n");
    return 1;
  }
  return 0;
}

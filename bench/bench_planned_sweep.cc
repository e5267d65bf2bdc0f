// Gate for the planned sweep engine (RunPlannedSweep: one Mattson stack-
// distance pass per (block size, page-in) family plus fused write-policy
// replays).  On the standard A5 trace (BSDTRACE_HOURS, default 24 h) it times
// the replayed engine — one simulator replay per config, plus the delayed-
// write replays needed to cover every Mattson-curve sample — against the
// planned engine over one shared replay log, for the Fig. 5, 6 and 7 config
// families.  Every overlapping cell must be bit-identical (`parity`); the
// speedups are reported only — the plan's work counts, the source of the
// Fig. 5 speedup, are pinned by the PlannedSweep ctest cases instead.  Emits
// one JSON line per family (stdout + BENCH_<name>.json) and exits 1 when
// parity fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/sweep.h"
#include "src/core/experiments.h"
#include "src/trace/replay_log.h"

namespace bsdtrace {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The per-size replays the old engine needs to match the planner's output:
// the planner's Mattson pass yields the fetch-miss column at every curve
// size for free, so the replayed baseline must pay one delayed-write replay
// per (block size, page-in) family per curve size its configs do not cover.
std::vector<CacheConfig> CurveFillConfigs(const std::vector<CacheConfig>& configs) {
  std::map<std::pair<uint32_t, bool>, std::set<uint64_t>> family_sizes;
  for (const CacheConfig& c : configs) {
    if (c.replacement == ReplacementPolicy::kLru && !c.simulate_metadata) {
      family_sizes[{c.block_size, c.simulate_execve_pagein}].insert(c.size_bytes);
    }
  }
  std::vector<CacheConfig> extra;
  for (const auto& [key, sizes] : family_sizes) {
    for (const uint64_t size : SweepCurveSizes()) {
      if (sizes.count(size) > 0) {
        continue;
      }
      CacheConfig c;
      c.size_bytes = size;
      c.block_size = key.first;
      c.policy = WritePolicy::kDelayedWrite;
      c.simulate_execve_pagein = key.second;
      extra.push_back(c);
    }
  }
  return extra;
}

// Times both engines on `log` single-threaded, so the ratio is the
// algorithmic change alone, and checks bit-level parity: the planner's own
// cross-check, every per-config point, and every dense curve sample against
// its covering replay.  Returns false when parity fails.
bool RunPlannedEngineBench(const std::string& name, const ReplayLog& log, size_t records,
                           const std::vector<CacheConfig>& configs) {
  const std::vector<CacheConfig> extra = CurveFillConfigs(configs);
  std::vector<CacheConfig> replay_configs = configs;
  replay_configs.insert(replay_configs.end(), extra.begin(), extra.end());

  // Min-of-N timing; the first iteration doubles as the warmup (the min
  // discards its cold caches).
  constexpr int kReps = 3;
  double replayed_s = 1e300;
  double planned_s = 1e300;
  std::vector<SweepPoint> replayed;
  PlannedSweep planned;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    replayed = RunCacheSweep(log, replay_configs, /*threads=*/1);
    replayed_s = std::min(replayed_s, SecondsSince(t0));
    t0 = std::chrono::steady_clock::now();
    planned = RunPlannedSweep(log, configs, {}, /*threads=*/1);
    planned_s = std::min(planned_s, SecondsSince(t0));
  }

  bool parity = planned.parity && planned.points.size() == configs.size() &&
                replayed.size() == replay_configs.size();
  for (size_t i = 0; parity && i < configs.size(); ++i) {
    parity = CacheMetricsBitIdentical(planned.points[i].metrics, replayed[i].metrics);
  }
  for (size_t e = 0; parity && e < extra.size(); ++e) {
    const CacheConfig& c = extra[e];
    const auto curve = std::find_if(
        planned.curves.begin(), planned.curves.end(), [&c](const SweepCurve& candidate) {
          return candidate.block_size == c.block_size &&
                 candidate.simulate_execve_pagein == c.simulate_execve_pagein;
        });
    if (curve == planned.curves.end()) {
      parity = false;
      break;
    }
    const auto it = std::find(curve->size_bytes.begin(), curve->size_bytes.end(), c.size_bytes);
    parity = it != curve->size_bytes.end() &&
             curve->fetch_misses[static_cast<size_t>(it - curve->size_bytes.begin())] ==
                 replayed[configs.size() + e].metrics.disk_reads;
  }

  const double speedup = planned_s > 0 ? replayed_s / planned_s : 0;
  char json[640];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"%s\",\"records\":%zu,\"hours\":%.2f,\"configs\":%zu,"
                "\"curve_fill_configs\":%zu,\"stack_passes\":%zu,\"fused_replays\":%zu,"
                "\"replay_fallbacks\":%zu,\"replayed_sweep_s\":%.4f,\"planned_sweep_s\":%.4f,"
                "\"speedup\":%.2f,\"parity\":%s}",
                name.c_str(), records, StandardDuration().hours(), configs.size(), extra.size(),
                planned.stack_passes, planned.fused_replays, planned.replay_fallbacks,
                replayed_s, planned_s, speedup, parity ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen(("BENCH_" + name + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  std::printf("%s: parity: %s, speedup %.2fx (reported only)\n", name.c_str(),
              parity ? "true" : "false", speedup);

  if (!parity) {
    std::fprintf(stderr, "FAIL: %s planned-sweep metrics diverge from the replayed engine\n",
                 name.c_str());
  }
  return parity;
}

}  // namespace
}  // namespace bsdtrace

int main() {
  using namespace bsdtrace;
  const GenerationResult a5 = GenerateStandardTrace("A5");
  const ReplayLog log = ReplayLog::Build(a5.trace);
  std::printf("planned-sweep gate: %zu A5 trace records, %.1f simulated hours (set "
              "BSDTRACE_HOURS to change)\n",
              a5.trace.size(), StandardDuration().hours());
  const size_t records = a5.trace.size();
  bool ok = RunPlannedEngineBench("fig5_table6_cache", log, records, Fig5Configs());
  ok = RunPlannedEngineBench("fig6_table7_blocksize", log, records, Fig6Configs()) && ok;
  ok = RunPlannedEngineBench("fig7_paging", log, records, Fig7Configs()) && ok;
  return ok ? 0 : 1;
}

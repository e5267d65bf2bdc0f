// Bench + parity gate for the client/server cache hierarchy (§7 extension).
//
// Two gates, each of which fails the run:
//   1. Parity: a client-size-0 HierarchySimulator must be bit-identical to
//      the single-level CacheSimulator on every server config — the refactor
//      contract (CacheLevel split + hierarchy driver cost the single-level
//      path nothing semantically).  The two replays' times and their ratio
//      are reported only: spans of a few milliseconds cannot gate a build.
//   2. Sweep: every row of the §7 grid, whether served by a fused lane or by
//      a client replay fanned out to every server size, must be bit-
//      identical on every level to its own per-row SimulateHierarchy replay,
//      and RunHierarchySweep's internal parity flag must hold.  The plan's
//      replay counts are pinned by the HierarchySweep ctest cases.
//
// The workload is a small fleet (2xA5 + 1xE3) so the hierarchy rows exercise
// real multi-client attribution.  Emits one JSON line (stdout +
// BENCH_hier_cache.json); with BSDTRACE_CSV_DIR set, exports the §7 figure
// grid as hier_sweep.csv.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cache/hierarchy.h"
#include "src/cache/sweep.h"
#include "src/core/experiments.h"
#include "src/trace/replay_log.h"
#include "src/workload/fleet.h"
#include "src/workload/sharded_generator.h"

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
  std::printf("================================================================\n");
  std::printf("bsdtrace bench: client/server cache hierarchy sweep\n");
  std::printf("reproduces: §7 (extension beyond the paper) of Ousterhout et al., SOSP 1985\n");
  std::printf("synthetic traces, %.1f simulated hours each (set BSDTRACE_HOURS to change)\n",
              StandardDuration().hours());
  std::printf("================================================================\n\n");

  auto fleet = ParseFleetSpec("fleet:2xA5+1xE3");
  if (!fleet.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", fleet.status().message().c_str());
    return 1;
  }
  FleetGeneratorOptions gen_options;
  gen_options.base.duration = Duration::Hours(hours);
  gen_options.base.seed = 19851201;
  gen_options.shards_per_machine = 2;
  auto generated = GenerateFleetTrace(fleet.value(), gen_options);
  if (!generated.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", generated.status().message().c_str());
    return 1;
  }
  const Trace& trace = generated.value().trace;
  const ReplayLog log = ReplayLog::Build(trace);
  std::printf("fleet 2xA5+1xE3: %zu records, %zu instance(s), %.2f simulated hours\n",
              trace.size(), log.instance_count(), hours);

  // Gate 1 workload: the five server sizes at delayed write — the plain
  // single-level replay (the pre-refactor engine's job) vs. the degenerate
  // hierarchy replay of the exact same configs.
  std::vector<HierarchyConfig> degenerate;
  for (const HierarchyConfig& h : HierarchySweepConfigs()) {
    if (!h.has_clients() && h.server.policy == WritePolicy::kDelayedWrite) {
      degenerate.push_back(h);
    }
  }

  constexpr int kReps = 3;
  double single_s = 1e300;
  double hier0_s = 1e300;
  std::vector<CacheMetrics> single_metrics;
  std::vector<HierarchyMetrics> hier0_metrics;
  for (int rep = -1; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    single_metrics.clear();
    for (const HierarchyConfig& h : degenerate) {
      single_metrics.push_back(SimulateCache(log, h.server));
    }
    if (rep >= 0) {
      single_s = std::min(single_s, SecondsSince(t0));
    }

    t0 = std::chrono::steady_clock::now();
    hier0_metrics.clear();
    for (const HierarchyConfig& h : degenerate) {
      hier0_metrics.push_back(SimulateHierarchy(log, h));
    }
    if (rep >= 0) {
      hier0_s = std::min(hier0_s, SecondsSince(t0));
    }
  }

  bool identical = true;
  for (size_t i = 0; i < degenerate.size(); ++i) {
    identical = identical && CacheMetricsBitIdentical(single_metrics[i], hier0_metrics[i].server);
  }
  const double ratio = single_s > 0 ? hier0_s / single_s : 0.0;

  // The full §7 grid, threaded; its internal parity flag re-checks every
  // fused client-0 group against a degenerate hierarchy replay and one
  // fanned-out row against its per-row replay.
  const std::vector<HierarchyConfig> grid = HierarchySweepConfigs();
  const auto sweep_start = std::chrono::steady_clock::now();
  const HierarchySweepResult sweep = RunHierarchySweep(log, grid);
  const double sweep_s = SecondsSince(sweep_start);
  // The per-row reference twin on every row of the grid.
  size_t rows_differing = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (!HierarchyMetricsBitIdentical(SimulateHierarchy(log, grid[i]), sweep.points[i].metrics)) {
      std::fprintf(stderr, "row %zu (%s) differs from its per-row replay\n", i,
                   grid[i].ToString().c_str());
      ++rows_differing;
    }
  }
  const bool rows_identical = rows_differing == 0;
  std::fputs(RenderHierarchySweep(sweep).c_str(), stdout);
  if (const char* dir = std::getenv("BSDTRACE_CSV_DIR")) {
    const std::string path = std::string(dir) + "/hier_sweep.csv";
    if (const Status st = ExportHierarchyCsv(path, sweep.points); st.ok()) {
      std::printf("exported %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "CSV export failed: %s\n", st.message().c_str());
    }
  }

  char json[640];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"hier_cache\",\"records\":%zu,\"hours\":%.2f,\"instances\":%zu,"
                "\"degenerate_configs\":%zu,\"single_replay_s\":%.4f,\"hier0_replay_s\":%.4f,"
                "\"ratio\":%.3f,\"sweep_points\":%zu,\"sweep_s\":%.4f,"
                "\"fused_replays\":%zu,\"hierarchy_replays\":%zu,"
                "\"identical\":%s,\"sweep_parity\":%s,\"rows_identical\":%s}",
                trace.size(), hours, log.instance_count(), degenerate.size(), single_s, hier0_s,
                ratio, sweep.points.size(), sweep_s, sweep.fused_replays,
                sweep.hierarchy_replays, identical ? "true" : "false",
                sweep.parity ? "true" : "false", rows_identical ? "true" : "false");
  std::printf("%s\n", json);
  if (std::FILE* f = std::fopen("BENCH_hier_cache.json", "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }

  if (!identical) {
    std::fprintf(stderr, "FAIL: client-0 hierarchy diverges from the single-level simulator\n");
    return 1;
  }
  if (!sweep.parity) {
    std::fprintf(stderr, "FAIL: the hierarchy sweep's internal parity check failed\n");
    return 1;
  }
  if (!rows_identical) {
    std::fprintf(stderr, "FAIL: %zu of %zu sweep rows diverge from their per-row replay\n",
                 rows_differing, grid.size());
    return 1;
  }
  return 0;
}

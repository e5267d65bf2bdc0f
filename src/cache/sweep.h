// Parameter sweeps over cache configurations (the axes of Figs. 5-7 and
// Tables VI-VII), run as a two-phase engine: phase 1 reconstructs the trace
// exactly once into a ReplayLog; phase 2 replays that log through every
// configuration, in parallel across hardware threads.  Reconstruction cost
// is thus paid once per sweep instead of once per point.

#ifndef BSDTRACE_SRC_CACHE_SWEEP_H_
#define BSDTRACE_SRC_CACHE_SWEEP_H_

#include <vector>

#include "src/cache/hierarchy.h"
#include "src/cache/simulator.h"
#include "src/cache/stack_distance.h"
#include "src/trace/replay_log.h"
#include "src/trace/trace.h"

namespace bsdtrace {

struct SweepPoint {
  CacheConfig config;
  CacheMetrics metrics;
};

// Reconstructs `trace` and replays it through one simulator (compatibility
// wrapper; also the reference path the replay-parity test checks the log
// engine against).  `billing` selects which bound of the transfer-time
// window is used (§3.1 timing-imprecision ablation).
CacheMetrics SimulateCache(const Trace& trace, const CacheConfig& config,
                           BillingPolicy billing = BillingPolicy::kAtNextEvent);

// Phase-2 primitive: replays a prebuilt log through one simulator.  Metrics
// are bit-identical to SimulateCache(trace, config, log.billing()).
CacheMetrics SimulateCache(const ReplayLog& log, const CacheConfig& config);

// Replays a prebuilt log through every configuration, in parallel; all
// workers share the (read-only) log.  `threads` = 0 uses the hardware
// concurrency.
std::vector<SweepPoint> RunCacheSweep(const ReplayLog& log,
                                      const std::vector<CacheConfig>& configs,
                                      unsigned threads = 0);

// Convenience builders for the paper's sweeps.
//
// Fig. 5 / Table VI: cache size x write policy at 4 KB blocks.
std::vector<CacheConfig> Fig5Configs();
// Fig. 6 / Table VII: block size x cache size, delayed write.
std::vector<CacheConfig> Fig6Configs();
// Fig. 7: cache size sweep with and without execve page-in.
std::vector<CacheConfig> Fig7Configs();

// --- Planned sweeps: Mattson curves + fused replays ------------------------
//
// RunPlannedSweep computes the same per-config metrics as RunCacheSweep but
// restructures the work (ISSUE: collapse the Fig. 5-7 size axis):
//
//   * configs identical up to write policy share ONE replay through a
//     FusedCacheSimulator (Fig. 5's four policy columns per cache size);
//   * each (block size, page-in) family of LRU configs additionally gets one
//     exact stack-distance pass (stack_distance.h), yielding the fetch-miss/
//     miss-ratio column for EVERY cache size — the dense curve axis — from a
//     single pass instead of one replay per size.  The pass is depth-bounded
//     at the family's largest curve or member size K (in blocks), so its
//     tree keeps O(K) slots;
//   * configs the fast paths cannot serve (metadata simulation) fall back to
//     per-config replays.
//
// `points` is bit-identical to RunCacheSweep(log, configs) in input order.
// `parity` cross-checks the two engines where they overlap: for every LRU
// non-metadata config, the Mattson curve's FetchMissesAt(block_count) must
// equal the replayed disk_reads exactly; tests and the report check it.

// The dense cache-size axis sampled by every Mattson curve (25 sizes in
// quarter-octave steps from 256 KB to 16 MB, a superset of the paper's
// Fig. 5 points — dense sampling is free: the stack pass answers every
// capacity from one replay).
std::vector<uint64_t> SweepCurveSizes();

// One single-pass miss-ratio curve: all capacities of one (block size,
// page-in) family.
struct SweepCurve {
  uint32_t block_size = 4096;
  bool simulate_execve_pagein = false;
  // Sampled sizes (sorted; the requested curve sizes plus every member
  // config's size) and the exact fetch-miss column at each.
  std::vector<uint64_t> size_bytes;
  std::vector<uint64_t> fetch_misses;
  std::vector<double> fetch_miss_ratios;
  // The full profile: FetchMissesAt/MissesAt answer every capacity up to
  // its max_capacity() K — the family's largest sampled size in blocks —
  // not just the sampled ones.
  StackDistanceProfile profile;
};

struct PlannedSweep {
  std::vector<SweepPoint> points;  // one per input config, input order
  std::vector<SweepCurve> curves;  // one per (block size, page-in) LRU family
  // True iff every Mattson fetch-miss prediction matched the replayed
  // disk_reads bit-for-bit (see above).
  bool parity = true;
  size_t stack_passes = 0;
  size_t fused_replays = 0;
  size_t replay_fallbacks = 0;
};

// Plans and runs the sweep on a prebuilt log, in parallel across `threads`
// workers (0 = hardware concurrency).  `curve_sizes` empty = SweepCurveSizes().
PlannedSweep RunPlannedSweep(const ReplayLog& log, const std::vector<CacheConfig>& configs,
                             std::vector<uint64_t> curve_sizes = {}, unsigned threads = 0);

// --- Hierarchy sweeps (§7): client size x server size x write policy -------
//
// RunHierarchySweep extends the planner to two-level topologies
// (hierarchy.h).  Clients get no feedback from the server, so rows sharing
// one client config (size, block size, policy, flush interval, replacement,
// page-in) share one client replay: one HierarchySimulator drives the
// client layer and fans its server stream out to every server size of the
// group.  Rows with client size 0 collapse to single-level server replays,
// which the planner serves through fused multi-lane simulators exactly as
// RunPlannedSweep does — the degenerate topology IS the single-level
// simulator.  The `parity` flag `trace_stream report` gates on covers both:
// each fused group's first row is replayed through the degenerate
// HierarchySimulator and compared bit-for-bit against its fused lane, and
// one fanned-out row is replayed alone through SimulateHierarchy and
// compared bit-for-bit on every level.

struct HierarchyPoint {
  HierarchyConfig config;
  HierarchyMetrics metrics;
};

struct HierarchySweepResult {
  std::vector<HierarchyPoint> points;  // one per input config, input order
  // Every checked client-0 fused lane matched its degenerate hierarchy
  // replay, and the checked fanned-out row its per-row replay, bit-for-bit.
  bool parity = true;
  size_t fused_replays = 0;  // fused single-level replays (client-0 rows)
  // Two-level replays: one per distinct client config, each fanned out to
  // every server size of its rows (9 on the default grid, for 45 rows).
  size_t hierarchy_replays = 0;
};

// Exact bit-level comparison of every counter including the residency
// moments (the cross-engine parity currency).
bool CacheMetricsBitIdentical(const CacheMetrics& a, const CacheMetrics& b);
// The same over every level of a hierarchy row: client count, each client,
// the client total and the server.
bool HierarchyMetricsBitIdentical(const HierarchyMetrics& a, const HierarchyMetrics& b);

// The default §7 grid: client sizes {0, 256 KB, 1 MB, 4 MB} x server sizes
// {1, 2, 4, 8, 16 MB} x write policies {write-through, flush-back(30s),
// delayed-write}.  The policy applies to the clients (the open question is
// what policy client caches should run); the server runs delayed-write.
// Client-0 rows apply the policy to the server instead — the single-level
// baseline column of the figure.
std::vector<HierarchyConfig> HierarchySweepConfigs();

// Runs the hierarchy plan on a prebuilt log across `threads` workers
// (0 = hardware concurrency).
HierarchySweepResult RunHierarchySweep(const ReplayLog& log,
                                       const std::vector<HierarchyConfig>& configs,
                                       unsigned threads = 0);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_SWEEP_H_

// Sharded parallel fleet generation: the one sharded generation engine.
//
// Every sharded run is a fleet (fleet.h) of one or more machine instances; a
// single machine is the fleet of one, ParseFleetSpec("A5").  Each instance's
// population is partitioned into deterministic shards — each with its own
// FileSystem replica, TracedKernel, event scheduler, and an independent
// counter-derived RNG stream of (seed, shard) — the shards of every instance
// run concurrently on a small thread pool, and the per-shard traces k-way
// merge by timestamp with a stable instance-major shard-index tie-break.
//
// Determinism contract:
//   * For a fixed (fleet, options) — including shards_per_machine — the
//     merged output is byte-identical across runs and across `threads`
//     values; the thread pool only changes wall-clock, never content.
//   * A fleet of one machine at one shard streams exactly the records of
//     GenerateTrace(), the serial reference path (the header differs: fleet
//     headers carry the fleet tag).
//   * shards_per_machine is a semantic parameter: different shard counts
//     partition the users differently (users on different shards cannot
//     share mail or file-system state), so traces for different shard counts
//     are statistically equivalent, not byte-identical.
//
// Record identity across shards: FileIds at or below the shared-image
// watermark refer to the shared system tree and agree in every replica;
// FileIds above it and all OpenIds are shard-local and are remapped into
// disjoint interleaved ranges before the merge, so the merged trace has the
// same unique-id invariants as a serial one.

#ifndef BSDTRACE_SRC_WORKLOAD_SHARDED_GENERATOR_H_
#define BSDTRACE_SRC_WORKLOAD_SHARDED_GENERATOR_H_

#include <string>
#include <utility>
#include <vector>

#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "src/util/status.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"

namespace bsdtrace {

// -- Spill-to-disk streaming path ---------------------------------------------
//
// The engine never holds the whole trace: each worker spills its
// shard's time-sorted records through a block-buffered trace writer into a
// temp file as soon as the shard finishes simulating and frees them — so at
// most `threads` shards' records are ever in memory at once — and then an
// on-disk k-way merge (a loser tree over per-shard file cursors, with the
// FileId/OpenId remap applied record-by-record as they are pulled) streams
// the final trace into a TraceSink holding ONE record per shard.  A
// 1000-user multi-week trace can be generated, saved, and analyzed without
// ever fitting in RAM.
//
// Determinism: the streamed record sequence — and, for the ToFile variant,
// the file's bytes — is identical to the in-memory reference twin's output
// for the same (fleet, options):
//     GenerateFleetToFile(f, o, p)  ==  SaveTrace(p, GenerateFleetInMemory(f, o).trace,
//                                                 o.file_options)
// byte for byte, for every shard, thread and wave count (pinned by the
// ShardedStream tests).  ToFile writes trace format v3 by default
// (checksummed blocks + footer index) so the output feeds the parallel
// Analyze engine directly; the v3 framing is a deterministic function of the
// record stream, so byte-identity is preserved.

// Everything a fleet generation reports except the record vector, plus
// streaming bookkeeping.
struct ShardedStreamStats {
  // Header of the streamed trace (the sink only sees records).
  TraceHeader header;
  KernelCounters kernel_counters;
  FsStatistics fs_stats;
  FsckReport fsck;
  uint64_t tasks_executed = 0;
  FileId shared_image_watermark = 0;
  // Records delivered to the sink == records spilled across all shards.
  uint64_t records_streamed = 0;
  // Total bytes of per-shard spill files written (and deleted) on the way.
  uint64_t spill_bytes_written = 0;
  // Fleet wave generation only: how many waves ran and the total bytes of
  // the intermediate compressed v4 wave shard files (1 / 0 when the whole
  // fleet fit in one wave and no wave shards were written).
  uint64_t waves = 1;
  uint64_t wave_bytes_written = 0;
};

// -- Fleet generation ---------------------------------------------------------
//
// Runs every machine instance of a FleetProfile (e.g. 4xA5 + 2xE3 + 2xC4,
// each optionally population-scaled to thousands of users) as its own group
// of shards in ONE sharded, spill-to-disk generation, and merges all groups
// into a single time-ordered v3 trace.  Identity invariants of the merged
// trace:
//   * FileIds/OpenIds: shard-local ids are first interleaved within their
//     instance (the watermark remap above), then instance-local
//     ids are interleaved across the M instances — id -> (id-1)*M + i + 1 —
//     so no id is ever shared between instances (separate machines share no
//     files; there is no cross-instance watermark).
//   * UserIds: instance i's ids are offset by base_i = sum of earlier
//     instances' (population + 2), matching FleetLayout(); the mapping is
//     stamped into the header description as a fleet tag (trace/fleet_tag.h)
//     so analyzers can attribute per-user activity back to machine profiles.
//   * Time/tie order: records merge by (time, instance-major unit index), so
//     for a fixed (fleet, options) the output is byte-identical across runs
//     and thread counts.  In a fleet of ONE machine both remaps beyond the
//     watermark interleave are the identity.
// Instances with the same profile are decorrelated by a per-instance seed
// derived from options.base.seed (instance 0 keeps the base seed, which is
// what makes the one-machine fleet reproduce the single-machine stream).
struct FleetGeneratorOptions {
  GeneratorOptions base;
  // Shards per machine instance; clamped to [1, instance population].
  int shards_per_machine = 1;
  // Worker threads over ALL instances' shards; <= 0 means hardware
  // concurrency.  Output-invariant.
  int threads = 0;
  // Directory for the per-shard spill files (must exist).  Empty selects
  // the system temp directory.  Spill files live in a private subdirectory
  // that is removed when generation finishes, successfully or not.
  std::string spill_dir;
  // Fleet-of-fleets wave generation: when > 0, the instances are grouped
  // into contiguous waves whose summed (population-scaled) user counts stay
  // at or below this bound (every wave holds at least one instance).  Each
  // wave runs as its own bounded spill-and-merge generation whose output is
  // written to a compressed v4 wave shard file; the wave shards are then
  // k-way merged — ties breaking by wave index, which equals the global
  // instance-major unit order — into the final stream.  Output-invariant:
  // the record stream (and the ToFile variant's bytes) is identical to a
  // single-wave run.  <= 0 (the default) disables waving.
  int wave_users = 0;
  // Format of the file GenerateFleetToFile writes: v3 (the default) keeps
  // the historical bytes; {.version = 4} compresses block payloads.
  TraceWriterOptions file_options{.version = 3};
};

// The header GenerateFleetTo stamps on the merged stream (machine name,
// description, fleet tag), computable without running the generation.  The
// live service (`trace_stream serve`) uses it to label its rings before the
// generator thread starts.
TraceHeader FleetTraceHeader(const FleetProfile& fleet, const FleetGeneratorOptions& options);

// Streams the merged fleet trace into `sink` / into a v3 file at `path`.
// ShardedStreamStats.shared_image_watermark is 0 for fleets of more than one
// machine (watermarks are per-instance and meaningless fleet-wide).
StatusOr<ShardedStreamStats> GenerateFleetTo(const FleetProfile& fleet,
                                             const FleetGeneratorOptions& options,
                                             TraceSink& sink);
StatusOr<ShardedStreamStats> GenerateFleetToFile(const FleetProfile& fleet,
                                                 const FleetGeneratorOptions& options,
                                                 const std::string& path);

// In-memory convenience (tests, small runs): the merged trace plus stats.
struct FleetGenerationResult {
  Trace trace;
  ShardedStreamStats stats;
};
StatusOr<FleetGenerationResult> GenerateFleetTrace(const FleetProfile& fleet,
                                                   const FleetGeneratorOptions& options);

namespace internal {

// The per-shard partition the sharded engines run (exposed for tests).
// Invariants, for plans = MakeShardPlans(profile, S):
//   * users: round-robin by global index (shard s owns {u : u % S == s}),
//     ascending within each shard; the shards partition [0, population).
//   * daemon_hosts: the SAME round-robin split of [0, daemon_host_count) —
//     the network daemon fleet is spread across shards, NOT pinned to shard
//     0, so daemon load scales with the pool like everything else.
//   * run_system_tick: true exactly for shard 0 (machine-wide cron/syslog is
//     a single process on the real machine; see the ROADMAP note on
//     cross-shard approximations).
//   * run_mail/mail_scale: every shard with users delivers mail to its own
//     users only, with the inter-arrival mean stretched by population/owned
//     so the per-user delivery rate matches the serial path.
// With S == 1 this is exactly FullPlan(profile).
std::vector<ShardPlan> MakeShardPlans(const MachineProfile& profile, int shard_count);

// Deterministic per-instance seed: instance 0 keeps `seed`; later instances
// get an independent SplitMix64-derived stream so identical profiles in one
// fleet do not replay identical traces.
uint64_t FleetInstanceSeed(uint64_t seed, size_t instance);

// The in-memory reference twin of the spill engine, kept on purpose: it runs
// the same PlanFleet units, id remaps, header and watermark check, but merges
// the units' records in memory instead of through spill and wave files —
// the one part it exists to check.  wave_users is ignored (waving is
// output-invariant) and no spill bytes are written; otherwise its trace and
// stats equal GenerateFleetTrace's.
StatusOr<FleetGenerationResult> GenerateFleetInMemory(const FleetProfile& fleet,
                                                      const FleetGeneratorOptions& options);

// Greedy contiguous wave grouping (exposed for tests): instance i joins the
// current wave while the wave's summed population stays within
// `wave_users`; a wave never splits an instance, so an instance larger than
// the bound gets a wave of its own.  Returns [begin, end) instance-index
// pairs that partition [0, populations.size()) in order; wave_users <= 0
// yields one wave covering everything.
std::vector<std::pair<size_t, size_t>> PlanWaves(const std::vector<int>& populations,
                                                 int wave_users);

}  // namespace internal

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_WORKLOAD_SHARDED_GENERATOR_H_

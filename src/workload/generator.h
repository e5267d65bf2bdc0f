// Top-level synthetic trace generation.
//
// Wires together the substrates: builds a file-system image, runs a
// population of simulated users (plus the network status daemon) against the
// traced kernel under a discrete-event scheduler, and returns the merged,
// time-sorted trace.

#ifndef BSDTRACE_SRC_WORKLOAD_GENERATOR_H_
#define BSDTRACE_SRC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/file_system.h"
#include "src/fs/fsck.h"
#include "src/kernel/traced_kernel.h"
#include "src/trace/trace.h"
#include "src/trace/types.h"
#include "src/workload/profile.h"

namespace bsdtrace {

struct GeneratorOptions {
  // Simulated trace length.  The paper's traces cover 2-3 busy days; the
  // simulation clock starts at 08:00 on day one so a multi-day run spans
  // full diurnal cycles.
  Duration duration = Duration::Hours(24);
  uint64_t seed = 19850101;
  // Disk geometry for the simulated machine.
  FsOptions fs_options = FsOptions{.block_size = 4096, .frag_size = 1024,
                                   .total_blocks = 524288};  // 2 GB
};

struct GenerationResult {
  Trace trace;
  KernelCounters kernel_counters;
  FsStatistics fs_stats;
  // Consistency check of the substrate file system after generation; a
  // non-clean report indicates a simulator bug.  For sharded runs the
  // reports of all shard images are folded together.
  FsckReport fsck;
  uint64_t tasks_executed = 0;
  // File-id watermark of the image's shared system tree (see
  // SystemImage::shared_tree_watermark); the sharded merge remaps ids above
  // it into disjoint per-shard ranges.
  FileId shared_image_watermark = 0;
};

// Generates a trace for the given machine profile.  Deterministic for a
// given (profile, options) pair.  This is the serial reference path: the
// sharded fleet engine (sharded_generator.h) must stream bit-identical
// records for the one-machine fleet at one shard.
GenerationResult GenerateTrace(const MachineProfile& profile,
                               const GeneratorOptions& options = GeneratorOptions());

namespace internal {

// One shard's slice of the simulated population.  GenerateTrace runs the
// full plan; the fleet engine runs one plan per shard and merges.
struct ShardPlan {
  int shard_index = 0;
  int shard_count = 1;
  // Owned user indices, ascending.  Only these users log in, and only their
  // home directories are materialized in the shard's file-system replica.
  std::vector<int> users;
  // Owned network-daemon host indices, ascending.
  std::vector<int> daemon_hosts;
  // Machine-wide background activity runs on exactly one shard.
  bool run_system_tick = true;
  // Incoming mail: each shard delivers to its own users only, with the
  // inter-arrival mean scaled by population/owned so the per-user rate
  // matches the serial path.
  bool run_mail = true;
  double mail_scale = 1.0;
};

// The plan that reproduces the serial path: everything on one shard.
ShardPlan FullPlan(const MachineProfile& profile);

// Runs one shard's simulation against a private file-system replica.
// Record ids are shard-local (see ShardPlan / sharded_generator.cc).
GenerationResult RunShard(const MachineProfile& profile, const GeneratorOptions& options,
                          const ShardPlan& plan);

}  // namespace internal

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_WORKLOAD_GENERATOR_H_

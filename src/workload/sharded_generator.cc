#include "src/workload/sharded_generator.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/trace/fleet_tag.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_merge.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {

namespace internal {

// Partition invariants are documented on the declaration (sharded_generator.h)
// and pinned by the ShardPlan test.  In short: users AND daemon hosts are
// round-robin partitions of their index spaces — the daemon fleet is spread
// across shards, not pinned to shard 0 — while the machine-wide cron/syslog
// tick runs on shard 0 only (it is a single process on the real machine; see
// ROADMAP's cross-shard approximation note) and mail is delivered per shard
// to the shard's own users at a compensated rate.
std::vector<ShardPlan> MakeShardPlans(const MachineProfile& profile, int shard_count) {
  std::vector<ShardPlan> plans(static_cast<size_t>(shard_count));
  if (shard_count == 1) {
    // Exactly the serial plan, so the streaming engine at one shard spills
    // the same records GenerateTrace() returns.
    plans[0] = internal::FullPlan(profile);
    return plans;
  }
  for (int s = 0; s < shard_count; ++s) {
    ShardPlan& plan = plans[static_cast<size_t>(s)];
    plan.shard_index = s;
    plan.shard_count = shard_count;
    for (int u = s; u < profile.user_population; u += shard_count) {
      plan.users.push_back(u);
    }
    // Keep ascending order: the stride loop above yields s, s+S, s+2S, ...
    std::sort(plan.users.begin(), plan.users.end());
    for (int h = s; h < profile.daemon_host_count; h += shard_count) {
      plan.daemon_hosts.push_back(h);
    }
    std::sort(plan.daemon_hosts.begin(), plan.daemon_hosts.end());
    plan.run_system_tick = (s == 0);
    plan.run_mail = !plan.users.empty();
    plan.mail_scale = plan.users.empty()
                          ? 1.0
                          : static_cast<double>(profile.user_population) /
                                static_cast<double>(plan.users.size());
  }
  return plans;
}

uint64_t FleetInstanceSeed(uint64_t seed, size_t instance) {
  if (instance == 0) {
    return seed;  // the one-machine fleet reproduces the single-machine stream
  }
  // SplitMix64 over (seed, instance): well-mixed, platform-independent, and
  // constructible for any instance without deriving its predecessors.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(instance);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::pair<size_t, size_t>> PlanWaves(const std::vector<int>& populations,
                                                 int wave_users) {
  std::vector<std::pair<size_t, size_t>> waves;
  const size_t n = populations.size();
  if (n == 0) {
    return waves;
  }
  if (wave_users <= 0) {
    waves.emplace_back(0, n);
    return waves;
  }
  size_t begin = 0;
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t pop = std::max(populations[i], 1);
    if (i > begin && sum + pop > wave_users) {
      waves.emplace_back(begin, i);
      begin = i;
      sum = 0;
    }
    sum += pop;
  }
  waves.emplace_back(begin, n);
  return waves;
}

}  // namespace internal


namespace {

namespace fs = std::filesystem;

using internal::FleetInstanceSeed;
using internal::MakeShardPlans;
using internal::RunShard;
using internal::ShardPlan;

// One simulation a fleet generation runs: a shard of some machine instance.
// A fleet's units are every instance's shards in instance-major order, which
// is also the merge tie-break order.
struct SpillUnit {
  const MachineProfile* profile = nullptr;
  GeneratorOptions options;  // per-instance seed
  ShardPlan plan;
  size_t machine = 0;  // instance index within the fleet
};

// Runs every unit on a small worker pool.  Workers claim unit indices from an
// atomic counter, so which thread runs which unit is scheduling-dependent —
// but `consume(k, result)` receives the unit index, and callers write into
// per-unit slots (or files), so the overall output is not.  `consume` runs on
// the worker thread, concurrently for distinct units.
void RunUnitsOnPool(const std::vector<SpillUnit>& units, int threads,
                    const std::function<void(size_t, GenerationResult&&)>& consume) {
  const size_t unit_count = units.size();
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, static_cast<int>(std::max<size_t>(unit_count, 1)));

  std::atomic<size_t> next_unit{0};
  const auto worker = [&]() {
    for (size_t k = next_unit.fetch_add(1, std::memory_order_relaxed); k < unit_count;
         k = next_unit.fetch_add(1, std::memory_order_relaxed)) {
      consume(k, RunShard(*units[k].profile, units[k].options, units[k].plan));
    }
  };
  if (threads == 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

// Rewrites one record's shard-local ids into globally unique interleaved
// ranges.  FileIds at or below the shared-image watermark name the shared
// system tree and agree in every replica of the SAME machine instance, so
// they pass through; ids above it map to watermark + (id - watermark - 1) * S
// + s + 1, and OpenIds (always shard-local, starting at 1) map to
// (id - 1) * S + s + 1.  Both maps are the identity when S == 1.
inline void RemapRecordIds(TraceRecord& r, FileId watermark, uint64_t shard,
                           uint64_t stride) {
  if (r.file_id > watermark) {
    r.file_id = watermark + (r.file_id - watermark - 1) * stride + shard + 1;
  }
  if (r.open_id != kInvalidOpenId) {
    r.open_id = (r.open_id - 1) * stride + shard + 1;
  }
}

// The full per-unit rewrite: the intra-instance interleave above, then —
// for multi-machine fleets — the cross-instance interleave (machines share
// no files, so EVERY id including the shared tree's is instance-local) and
// the instance's user-id base.  Close/seek records carry no user id (the
// opener's id is recovered from the open), so only user-bearing records are
// offset; daemon activity (user ids 0 and 1) moves with the base too.
struct UnitRemap {
  FileId watermark = 0;
  uint64_t shard = 0;
  uint64_t stride = 1;
  uint64_t machine = 0;
  uint64_t machines = 1;
  UserId user_base = 0;
};

inline void RemapUnitRecord(TraceRecord& r, const UnitRemap& u) {
  RemapRecordIds(r, u.watermark, u.shard, u.stride);
  if (u.machines > 1) {
    if (r.file_id != kInvalidFileId) {
      r.file_id = (r.file_id - 1) * u.machines + u.machine + 1;
    }
    if (r.open_id != kInvalidOpenId) {
      r.open_id = (r.open_id - 1) * u.machines + u.machine + 1;
    }
  }
  if (u.user_base != 0 && r.type != EventType::kClose && r.type != EventType::kSeek) {
    r.user_id += u.user_base;
  }
}

// K-way merge of per-unit record streams, each already sorted by time.
// Ties break by unit index, then by within-unit order — a stable merge, so
// the output is independent of thread scheduling.
std::vector<TraceRecord> MergeShardRecords(std::vector<GenerationResult>& shards) {
  size_t total = 0;
  for (const GenerationResult& shard : shards) {
    total += shard.trace.size();
  }
  std::vector<TraceRecord> merged;
  merged.reserve(total);

  struct Cursor {
    SimTime time;
    size_t shard;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    if (a.time != b.time) {
      return b.time < a.time;
    }
    return a.shard > b.shard;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  std::vector<size_t> next(shards.size(), 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s].trace.empty()) {
      heap.push(Cursor{shards[s].trace.records()[0].time, s});
    }
  }
  while (!heap.empty()) {
    const size_t s = heap.top().shard;
    heap.pop();
    const std::vector<TraceRecord>& records = shards[s].trace.records();
    merged.push_back(records[next[s]]);
    if (++next[s] < records.size()) {
      heap.push(Cursor{shards[s].trace.records()[next[s]].time, s});
    }
  }
  return merged;
}

void FoldInto(ShardedStreamStats& total, const GenerationResult& shard, size_t shard_index) {
  KernelCounters& t = total.kernel_counters;
  const KernelCounters& k = shard.kernel_counters;
  t.opens += k.opens;
  t.creates += k.creates;
  t.closes += k.closes;
  t.seeks += k.seeks;
  t.reads += k.reads;
  t.writes += k.writes;
  t.unlinks += k.unlinks;
  t.truncates += k.truncates;
  t.execves += k.execves;
  t.errors += k.errors;
  t.bytes_read += k.bytes_read;
  t.bytes_written += k.bytes_written;

  // Statistics are summed over the replicas; note that each replica carries
  // its own copy of the shared system tree, so `files`/`live_bytes` count it
  // shard_count times (the merged trace's *activity* has no such double
  // counting — only ids at or below the watermark are shared).
  FsStatistics& fst = total.fs_stats;
  const FsStatistics& fss = shard.fs_stats;
  fst.files += fss.files;
  fst.directories += fss.directories;
  fst.live_bytes += fss.live_bytes;
  fst.allocated_bytes += fss.allocated_bytes;
  fst.free_bytes += fss.free_bytes;
  fst.internal_fragmentation =
      fst.allocated_bytes > 0 ? 1.0 - static_cast<double>(fst.live_bytes) /
                                          static_cast<double>(fst.allocated_bytes)
                              : 0.0;

  for (const std::string& error : shard.fsck.errors) {
    total.fsck.errors.push_back("shard " + std::to_string(shard_index) + ": " + error);
  }
  total.fsck.inodes_checked += shard.fsck.inodes_checked;
  total.fsck.reachable_inodes += shard.fsck.reachable_inodes;
  total.fsck.orphan_inodes += shard.fsck.orphan_inodes;

  total.tasks_executed += shard.tasks_executed;
}

// The step both engines run once their units have simulated: fill every
// unit's remap watermark from its run, check that the replicas of one
// machine instance agree on it, and fold the units' stats into `stats`.
// Every replica of an instance builds the shared tree from the same
// (profile, seed), so disagreement is a simulator bug — diagnosed, not
// asserted.  Different instances legitimately differ.
Status ResolveUnits(const std::vector<SpillUnit>& units,
                    const std::vector<GenerationResult>& results,
                    std::vector<UnitRemap>& remaps, ShardedStreamStats& stats) {
  for (size_t k = 0; k < units.size(); ++k) {
    remaps[k].watermark = results[k].shared_image_watermark;
    for (size_t j = 0; j < k; ++j) {
      if (units[j].machine == units[k].machine &&
          results[j].shared_image_watermark != results[k].shared_image_watermark) {
        return Status::Error("generate: shard watermarks disagree (simulator bug)");
      }
    }
    FoldInto(stats, results[k], k);
  }
  // A machine's watermark is meaningful fleet-wide only in a fleet of one.
  stats.shared_image_watermark = remaps[0].machines == 1 ? remaps[0].watermark : 0;
  return Status::Ok();
}

// Owns a private spill-file subdirectory; removes it (and anything left
// inside) on destruction, so early error returns never leak spill files.
class ScopedSpillDir {
 public:
  ScopedSpillDir() = default;
  ~ScopedSpillDir() { Remove(); }

  ScopedSpillDir(ScopedSpillDir&& o) noexcept : dir_(std::move(o.dir_)) { o.dir_.clear(); }
  ScopedSpillDir& operator=(ScopedSpillDir&& o) noexcept {
    if (this != &o) {
      Remove();
      dir_ = std::move(o.dir_);
      o.dir_.clear();
    }
    return *this;
  }

  Status Create(const std::string& base) {
    std::error_code ec;
    fs::path root = base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
    if (ec) {
      return Status::Error("spill: no temp directory: " + ec.message());
    }
    static std::atomic<uint64_t> counter{0};
    const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
    fs::path dir = root / ("bsdtrace-spill-" + std::to_string(n) + "-" +
                           std::to_string(reinterpret_cast<uintptr_t>(this)));
    if (!fs::create_directories(dir, ec) || ec) {
      return Status::Error("spill: cannot create " + dir.string() +
                           (ec ? ": " + ec.message() : " (already exists)"));
    }
    dir_ = dir.string();
    return Status::Ok();
  }

  std::string UnitPath(size_t unit) const {
    return dir_ + "/shard-" + std::to_string(unit) + ".trc";
  }

 private:
  void Remove() {
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);  // best effort; temp dirs age out regardless
    }
  }
  std::string dir_;
};

// A merged record source over files in a private spill directory.
struct MergedStream {
  ScopedSpillDir dir;  // declared first, so it outlives `source`
  std::unique_ptr<MergingTraceSource> source;
  uint64_t records = 0;  // records the source must deliver
};

// The one drain: pulls every record of the merged stream into `sink`, and
// fails if an input errs or the merge delivers other than the records
// spilled.
Status Drain(MergedStream& merged, TraceSink& sink) {
  uint64_t streamed = 0;
  TraceRecord r;
  while (merged.source->Next(&r)) {
    sink.Append(r);
    ++streamed;
  }
  if (!merged.source->status().ok()) {
    return merged.source->status();
  }
  if (streamed != merged.records) {
    return Status::Error("merge produced " + std::to_string(streamed) + " of " +
                         std::to_string(merged.records) + " expected records");
  }
  return Status::Ok();
}

// Drains the merged stream into a trace file at `path` with the exact record
// count stamped in its header; returns the bytes written.
StatusOr<uint64_t> DrainToFile(MergedStream& merged, const std::string& path,
                               const TraceWriterOptions& options) {
  TraceFileWriter writer(path, merged.source->header(), static_cast<int64_t>(merged.records),
                         options);
  if (!writer.status().ok()) {
    return writer.status();
  }
  if (const Status drained = Drain(merged, writer); !drained.ok()) {
    writer.Abandon();
    return drained;
  }
  if (const Status finished = writer.Finish(); !finished.ok()) {
    return finished;
  }
  return writer.bytes_written();
}

// Simulates `units` on the pool, spilling each unit's sorted records to its
// own (v2) file from inside the worker and freeing them at once, so peak
// record memory is bounded by the `threads` largest units, not the whole
// trace.  Folds the units' stats into `stats` and returns the loser-tree
// merge over the spill files, which remaps ids record by record as they are
// pulled: one record per unit in memory.
StatusOr<MergedStream> SpillUnits(const std::vector<SpillUnit>& units,
                                  std::vector<UnitRemap> remaps, const TraceHeader& header,
                                  const FleetGeneratorOptions& options,
                                  ShardedStreamStats& stats) {
  MergedStream merged;
  if (Status st = merged.dir.Create(options.spill_dir); !st.ok()) {
    return st;
  }

  const size_t n = units.size();
  std::vector<GenerationResult> slim(n);  // per-unit stats, records freed
  std::vector<Status> unit_status(n, Status::Ok());
  std::vector<uint64_t> unit_bytes(n, 0);
  std::vector<uint64_t> unit_records(n, 0);
  RunUnitsOnPool(units, options.threads, [&](size_t k, GenerationResult&& result) {
    TraceFileWriter writer(merged.dir.UnitPath(k), result.trace.header(),
                           static_cast<int64_t>(result.trace.size()));
    for (const TraceRecord& r : result.trace.records()) {
      writer.Append(r);
    }
    unit_status[k] = writer.Finish();
    unit_bytes[k] = writer.bytes_written();
    unit_records[k] = writer.records_written();
    result.trace = Trace(result.trace.header());  // free the records now
    slim[k] = std::move(result);
  });

  for (size_t k = 0; k < n; ++k) {
    if (!unit_status[k].ok()) {
      return Status::Error("spill shard " + std::to_string(k) + ": " +
                           unit_status[k].message());
    }
  }
  if (Status st = ResolveUnits(units, slim, remaps, stats); !st.ok()) {
    return st;
  }

  std::vector<std::unique_ptr<TraceSource>> inputs;
  inputs.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    inputs.push_back(std::make_unique<TraceFileSource>(merged.dir.UnitPath(k)));
    merged.records += unit_records[k];
    stats.spill_bytes_written += unit_bytes[k];
  }
  merged.source = std::make_unique<MergingTraceSource>(
      std::move(inputs), header,
      [remaps = std::move(remaps)](size_t unit, TraceRecord& r) {
        RemapUnitRecord(r, remaps[unit]);
      });
  return merged;
}

// Fleet phase 0: resolve scaling, build every instance's shard units in
// instance-major order (the merge tie-break order), derive per-instance
// seeds, and stamp the fleet tag into the header.
struct FleetPlan {
  std::vector<MachineProfile> machines;  // resolved (scale applied)
  std::vector<SpillUnit> units;
  std::vector<UnitRemap> remaps;
  TraceHeader header;
};

StatusOr<FleetPlan> PlanFleet(const FleetProfile& fleet, const FleetGeneratorOptions& options) {
  if (fleet.machines.empty()) {
    return Status::Error("fleet: no machine instances");
  }
  FleetPlan fp;
  // units keep pointers into fp.machines; the reserve below plus vector move
  // semantics (heap storage travels with the vector) keep them valid through
  // the StatusOr return.
  fp.machines.reserve(fleet.machines.size());
  for (const MachineProfile& machine : fleet.machines) {
    fp.machines.push_back(ApplyPopulationScale(machine));
  }

  const std::vector<FleetInstanceTag> tags = FleetLayout(fleet);
  const uint64_t machines = static_cast<uint64_t>(fp.machines.size());
  for (size_t i = 0; i < fp.machines.size(); ++i) {
    const MachineProfile& machine = fp.machines[i];
    const int population = std::max(machine.user_population, 1);
    const int shard_count = std::clamp(options.shards_per_machine, 1, population);
    GeneratorOptions instance_options = options.base;
    instance_options.seed = FleetInstanceSeed(options.base.seed, i);
    for (ShardPlan& shard : MakeShardPlans(machine, shard_count)) {
      SpillUnit unit;
      unit.profile = &fp.machines[i];
      unit.options = instance_options;
      unit.plan = std::move(shard);
      unit.machine = i;
      fp.remaps.push_back(UnitRemap{.watermark = 0,  // filled in after simulation
                                    .shard = static_cast<uint64_t>(unit.plan.shard_index),
                                    .stride = static_cast<uint64_t>(shard_count),
                                    .machine = i,
                                    .machines = machines,
                                    .user_base = tags[i].user_base});
      fp.units.push_back(std::move(unit));
    }
  }

  fp.header = FleetTraceHeader(fleet, options);
  return fp;
}

// Fleet-of-fleets wave engine: each wave spills and merges its contiguous
// instance range — with the GLOBAL remap parameters, so wave output is
// exactly the corresponding slice of the single-wave stream — into a
// compressed v4 wave file, and the returned stream k-way merges the wave
// files.  That merge needs no rewrite (ids are already global), and its
// (time, wave index) tie-break equals the single-wave (time, instance-major
// unit index) tie-break because waves are contiguous instance ranges.  A
// wave's unit spill files are deleted before the next wave simulates, so
// peak disk is one wave's raw spills plus the compressed wave files.
StatusOr<MergedStream> RunFleetWaves(const FleetPlan& fp,
                                     const std::vector<std::pair<size_t, size_t>>& waves,
                                     const FleetGeneratorOptions& options,
                                     ShardedStreamStats& stats) {
  MergedStream merged;
  if (Status st = merged.dir.Create(options.spill_dir); !st.ok()) {
    return st;
  }
  for (size_t w = 0; w < waves.size(); ++w) {
    const auto [first, last] = waves[w];
    std::vector<SpillUnit> wave_units;
    std::vector<UnitRemap> wave_remaps;
    for (size_t k = 0; k < fp.units.size(); ++k) {
      if (fp.units[k].machine >= first && fp.units[k].machine < last) {
        wave_units.push_back(fp.units[k]);
        wave_remaps.push_back(fp.remaps[k]);
      }
    }
    StatusOr<MergedStream> wave =
        SpillUnits(wave_units, std::move(wave_remaps), fp.header, options, stats);
    if (!wave.ok()) {
      return wave.status();
    }
    StatusOr<uint64_t> bytes =
        DrainToFile(wave.value(), merged.dir.UnitPath(w), TraceWriterOptions{.version = 4});
    if (!bytes.ok()) {
      return bytes.status();
    }
    stats.wave_bytes_written += bytes.value();
    merged.records += wave.value().records;
  }

  std::vector<std::unique_ptr<TraceSource>> inputs;
  inputs.reserve(waves.size());
  for (size_t w = 0; w < waves.size(); ++w) {
    inputs.push_back(std::make_unique<TraceFileSource>(merged.dir.UnitPath(w)));
  }
  merged.source = std::make_unique<MergingTraceSource>(std::move(inputs), fp.header);
  return merged;
}

// Plans and simulates the fleet, folds its stats into `stats`, and opens the
// one merged source every entry point drains: the unit spill files through
// the id remap, or — when wave_users splits the fleet — the wave files.
StatusOr<MergedStream> OpenFleetStream(const FleetProfile& fleet,
                                       const FleetGeneratorOptions& options,
                                       ShardedStreamStats& stats) {
  StatusOr<FleetPlan> plan = PlanFleet(fleet, options);
  if (!plan.ok()) {
    return plan.status();
  }
  FleetPlan& fp = plan.value();
  std::vector<int> populations;
  populations.reserve(fp.machines.size());
  for (const MachineProfile& machine : fp.machines) {
    populations.push_back(machine.user_population);
  }
  const std::vector<std::pair<size_t, size_t>> waves =
      internal::PlanWaves(populations, options.wave_users);
  stats.header = fp.header;
  stats.waves = waves.size();
  StatusOr<MergedStream> merged =
      waves.size() > 1 ? RunFleetWaves(fp, waves, options, stats)
                       : SpillUnits(fp.units, std::move(fp.remaps), fp.header, options, stats);
  if (merged.ok()) {
    stats.records_streamed = merged.value().records;
  }
  return merged;
}

}  // namespace

TraceHeader FleetTraceHeader(const FleetProfile& fleet, const FleetGeneratorOptions& options) {
  TraceHeader header;
  header.machine = "fleet:" + fleet.spec;
  header.description = "synthetic fleet " + fleet.spec + " trace, " +
                       options.base.duration.ToString() + ", seed " +
                       std::to_string(options.base.seed) + ", " +
                       std::to_string(options.shards_per_machine) + " shards/machine";
  header.description = AppendFleetTag(std::move(header.description), FleetLayout(fleet));
  return header;
}

StatusOr<ShardedStreamStats> GenerateFleetTo(const FleetProfile& fleet,
                                             const FleetGeneratorOptions& options,
                                             TraceSink& sink) {
  ShardedStreamStats stats;
  StatusOr<MergedStream> merged = OpenFleetStream(fleet, options, stats);
  if (!merged.ok()) {
    return merged.status();
  }
  if (Status st = Drain(merged.value(), sink); !st.ok()) {
    return st;
  }
  return stats;
}

StatusOr<ShardedStreamStats> GenerateFleetToFile(const FleetProfile& fleet,
                                                 const FleetGeneratorOptions& options,
                                                 const std::string& path) {
  ShardedStreamStats stats;
  StatusOr<MergedStream> merged = OpenFleetStream(fleet, options, stats);
  if (!merged.ok()) {
    return merged.status();
  }
  if (StatusOr<uint64_t> bytes = DrainToFile(merged.value(), path, options.file_options);
      !bytes.ok()) {
    return bytes.status();
  }
  return stats;
}

StatusOr<FleetGenerationResult> GenerateFleetTrace(const FleetProfile& fleet,
                                                   const FleetGeneratorOptions& options) {
  FleetGenerationResult result;
  StatusOr<ShardedStreamStats> stats = GenerateFleetTo(fleet, options, result.trace);
  if (!stats.ok()) {
    return stats.status();
  }
  result.stats = std::move(stats).value();
  result.trace.header() = result.stats.header;
  return result;
}

namespace internal {

StatusOr<FleetGenerationResult> GenerateFleetInMemory(const FleetProfile& fleet,
                                                      const FleetGeneratorOptions& options) {
  StatusOr<FleetPlan> plan = PlanFleet(fleet, options);
  if (!plan.ok()) {
    return plan.status();
  }
  FleetPlan& fp = plan.value();
  std::vector<GenerationResult> units(fp.units.size());
  RunUnitsOnPool(fp.units, options.threads, [&units](size_t k, GenerationResult&& result) {
    units[k] = std::move(result);
  });

  FleetGenerationResult result;
  result.stats.header = fp.header;
  if (Status st = ResolveUnits(fp.units, units, fp.remaps, result.stats); !st.ok()) {
    return st;
  }
  for (size_t k = 0; k < units.size(); ++k) {
    for (TraceRecord& r : units[k].trace.records()) {
      RemapUnitRecord(r, fp.remaps[k]);
    }
  }
  result.trace = Trace(fp.header);
  result.trace.records() = MergeShardRecords(units);
  result.stats.records_streamed = result.trace.size();
  return result;
}

}  // namespace internal

}  // namespace bsdtrace

// Trace-driven disk-block cache simulation (paper §6).
//
// The simulator consumes reconstructed byte-range transfers, splits each into
// block accesses (the paper assumed programs request in units of the cache
// block size), and counts disk operations under a configurable write policy:
//
//   write-through — every write access also writes the block to disk;
//   flush-back(T) — the cache is scanned every T; dirty blocks are written;
//   delayed-write — dirty blocks are written only when evicted.
//
// Disk reads happen on misses, except when the access will overwrite the
// whole block, or when the block lies beyond all data previously seen for
// the file (newly-written data has nothing on disk to fetch).  Unlinks,
// truncations, and whole-file overwrites drop the file's cached blocks;
// dirty blocks dropped this way are never written — the effect that makes
// large delayed-write caches absorb most writes entirely.
//
// The principal metric is the miss ratio: disk I/Os per logical block access.
//
// The per-block mechanics live in CacheLevel (cache_level.h).  This header
// holds the two simulators built on it:
//
//   * CacheSimulator — the reference twin: CacheLevel<DiskBelow> driven by
//     its own per-file known-extent table and record switch straight from
//     the reconstructor, plus the §8 metadata approximation.  Every
//     feed-driven engine is checked against it.
//   * FusedCacheSimulator — CacheLevel<DiskBelow, FusedLaneWrites>: one
//     replay, several write policies.

#ifndef BSDTRACE_SRC_CACHE_SIMULATOR_H_
#define BSDTRACE_SRC_CACHE_SIMULATOR_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/cache/cache_level.h"
#include "src/util/flat_map.h"
#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

// `final` so that statically-typed drivers (ReplayLog::ReplayInto) call the
// sink methods without virtual dispatch.
class CacheSimulator final : public ReconstructionSink {
 public:
  explicit CacheSimulator(const CacheConfig& config);

  // Pre-sizes the per-file hash tables for a trace touching `file_count`
  // distinct files (e.g. ReplayLog::distinct_files()).  Purely an allocation
  // hint: metrics are identical with or without it.
  void ReserveFiles(size_t file_count);

  // ReconstructionSink: transfers drive block accesses; create/unlink/
  // truncate records invalidate; execve optionally injects page-in reads.
  // OnTransfer is inline — it runs once per reconstructed transfer.
  void OnTransfer(const Transfer& t) override {
    const bool is_write = t.direction == TransferDirection::kWrite;
    Access(t.time, t.file_id, t.offset, t.length, is_write);
    if (config().simulate_metadata && is_write) {
      meta_dirty_.insert(t.file_id);
    }
  }
  void OnRecord(const TraceRecord& record, RecordOwner owner) override;

  // Finalizes residency statistics for blocks still cached.  Dirty blocks
  // still in the cache are NOT charged as disk writes (the trace simply
  // ended; the paper's metric does likewise).
  void Finish() { level_.Finish(); }

  const CacheMetrics& metrics() const { return level_.metrics(); }
  const CacheConfig& config() const { return level_.config(); }

 private:
  // Reads and then raises the file's known extent around one transfer.
  void Access(SimTime now, FileId file, uint64_t offset, uint64_t length, bool is_write);
  // Injects the i-node/directory accesses implied by a namespace operation.
  void MetadataAccess(SimTime now, FileId file, bool is_write);
  // Drops cached blocks via the level, then lowers the file's known extent.
  void InvalidateFrom(SimTime now, FileId file, uint64_t first_byte);

  CacheLevel<DiskBelow> level_;
  // Highest data offset seen per file: writes beyond it fetch nothing.
  FlatMap<FileId, uint64_t, IdHash> known_extent_{kInvalidFileId};
  // Files with writes since their last close (i-node must be rewritten).
  std::unordered_set<FileId> meta_dirty_;
};

// The fused simulator's write state: several write policies ("lanes") over
// one cache.
//
// Write policy never changes which blocks are resident: residency evolves
// through Touch/Insert/invalidate alone, so the access stream, hit/miss
// outcomes, evictions, and residency statistics are common to every policy —
// only disk *writes* (and dirty blocks discarded by invalidation) differ.
// So one CacheLevel runs the shared cache and this state derives each lane's
// dirtiness from one per-slot last-write time.
//
// Dirtiness needs no per-policy state: a delayed-write block is dirty iff
// written since it was installed, and a flush-back block is dirty iff
// written in the current flush epoch (every earlier epoch's flush cleaned
// it).  Flush-back disk writes are counted when a block transitions
// clean->dirty (into a pending counter folded in at the epoch boundary, and
// reclassified if the block is evicted or invalidated first), so a flush
// epoch costs O(1) instead of the O(resident blocks) scan a per-policy
// dirty bit would force.  Write-through lanes are reconstructed from the
// shared write-access count.  Disk writes are counted here, never sent
// below, so the level must be CacheLevel<DiskBelow, FusedLaneWrites>.
class FusedLaneWrites {
 public:
  // One lane: a write policy plus its flush interval (used when the policy
  // is kFlushBack).
  struct Lane {
    WritePolicy policy = WritePolicy::kDelayedWrite;
    Duration flush_interval = Duration::Seconds(30);
  };

  FusedLaneWrites(const CacheConfig& base, const std::vector<Lane>& lanes);

  template <typename Level>
  void OnClock(Level&, SimTime now) {
    for (const size_t lane : flush_lanes_) {
      while (now >= next_flush_[lane]) {
        // Everything dirtied this epoch and still resident flushes now.
        counters_[lane].disk_writes += fb_pending_[lane];
        fb_pending_[lane] = 0;
        next_flush_[lane] += lanes_[lane].flush_interval;
      }
    }
  }

  template <typename Level>
  void OnEvict(Level& level, SimTime, const CacheEntry& victim) {
    const size_t slot = static_cast<size_t>(level.cache_.SlotOf(&victim));
    if (written_[slot] == 0) {
      return;
    }
    for (const size_t lane : delayed_lanes_) {
      counters_[lane].disk_writes += 1;  // eviction write-back
    }
    for (const size_t lane : flush_lanes_) {
      if (last_write_[slot] >= EpochStart(lane)) {
        // Dirty at eviction: the write happens now instead of at the epoch
        // boundary the pending counter was aimed at.
        fb_pending_[lane] -= 1;
        counters_[lane].disk_writes += 1;
      }
    }
  }

  template <typename Level>
  void OnInstall(Level& level, CacheEntry& entry) {
    written_[static_cast<size_t>(level.cache_.SlotOf(&entry))] = 0;
  }

  template <typename Level>
  void OnWrite(Level& level, SimTime now, CacheEntry* entry) {
    // A flush-back lane owes one flush write per clean->dirty transition in
    // its epoch.
    const size_t slot = static_cast<size_t>(level.cache_.SlotOf(entry));
    for (const size_t lane : flush_lanes_) {
      if (written_[slot] == 0 || last_write_[slot] < EpochStart(lane)) {
        fb_pending_[lane] += 1;
      }
    }
    written_[slot] = 1;
    last_write_[slot] = now;
  }

  template <typename Level>
  void OnDrop(Level& level, const CacheEntry& dropped) {
    const size_t slot = static_cast<size_t>(level.cache_.SlotOf(&dropped));
    if (written_[slot] == 0) {
      return;
    }
    for (const size_t lane : delayed_lanes_) {
      counters_[lane].dirty_discarded += 1;  // never reaches disk
    }
    for (const size_t lane : flush_lanes_) {
      if (last_write_[slot] >= EpochStart(lane)) {
        fb_pending_[lane] -= 1;  // the owed flush write never happens
        counters_[lane].dirty_discarded += 1;
      }
    }
  }

  // Lane `i`'s metrics: the level's shared counters plus the lane's writes.
  CacheMetrics LaneMetrics(const CacheMetrics& shared, size_t i) const;

 private:
  // Flush epoch start for a kFlushBack lane: a block is dirty under that
  // lane iff its last write is at or after this time.
  SimTime EpochStart(size_t lane) const {
    return next_flush_[lane] - lanes_[lane].flush_interval;
  }

  std::vector<Lane> lanes_;
  std::vector<size_t> flush_lanes_;    // indices of kFlushBack lanes
  std::vector<size_t> delayed_lanes_;  // indices of kDelayedWrite lanes
  struct LaneCounters {
    uint64_t disk_writes = 0;
    uint64_t dirty_discarded = 0;
  };
  std::vector<LaneCounters> counters_;
  std::vector<SimTime> next_flush_;
  // Flush writes owed at the lane's next epoch boundary: one per resident
  // block dirtied this epoch (decremented if the block is evicted or
  // invalidated before the flush arrives).
  std::vector<uint64_t> fb_pending_;
  // Per-slot write state shared by every lane: whether the resident block
  // has been written since install, and when it was last written.
  std::vector<uint8_t> written_;
  std::vector<SimTime> last_write_;
};

// Simulates one cache under several write policies in a single replay, with
// metrics bit-identical to a CacheSimulator run per policy at a fraction of
// the cost.  This is the sweep planner's replay workhorse: Fig. 5's four
// policy curves cost one replay per cache size instead of four.  Driven
// through the replay front end (Replay, or SetExtentFeeds plus a ReplayLog
// data-event stream).  Metadata simulation is not supported (its i-node
// dirtiness interleaves with data writes; use CacheSimulator per config).
class FusedCacheSimulator final : public CacheLevel<DiskBelow, FusedLaneWrites> {
 public:
  using PolicyLane = FusedLaneWrites::Lane;

  // `base` supplies everything but the write policy (base.policy and
  // base.flush_interval are ignored); base.simulate_metadata must be false.
  FusedCacheSimulator(const CacheConfig& base, const std::vector<PolicyLane>& lanes)
      : CacheLevel(base, DiskBelow{}, FusedLaneWrites(base, lanes)) {}

  // Allocation hint of the CacheSimulator interface; feed-driven replay
  // keeps no per-file tables, so there is nothing to size.
  void ReserveFiles(size_t) {}

  // Metrics for lane `i` — bit-identical to CacheSimulator with the same
  // config.
  CacheMetrics LaneMetrics(size_t i) const { return writes().LaneMetrics(metrics(), i); }
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_SIMULATOR_H_

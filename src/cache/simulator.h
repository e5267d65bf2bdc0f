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
//   * FusedCacheSimulator — one replay, every size and write policy of an
//     LRU family (one size under any replacement policy).

#ifndef BSDTRACE_SRC_CACHE_SIMULATOR_H_
#define BSDTRACE_SRC_CACHE_SIMULATOR_H_

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
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

// Simulates every member config of one cache family in a single replay,
// with metrics bit-identical to a CacheSimulator run per member.  A family
// is any set of configs sharing block size, page-in and replacement policy;
// sizes and write policies vary freely when the policy is LRU.  This is the
// sweep planners' replay workhorse: Fig. 5's 24 points cost one replay, and
// behind each §7 client layer one nested server level serves every server
// size.  Driven through the replay front end (Replay, or SetExtentFeeds plus
// a ReplayLog data-event stream), or block by block (the hierarchy's
// server).  Metadata simulation is not supported (its i-node dirtiness
// interleaves with data writes; use CacheSimulator per config).
//
// Sizes: LRU has the inclusion property (Mattson et al., 1970) — a cache of
// s blocks always holds the s most recently used of a larger cache's blocks
// — so one LRU list serves every size.  Invalidations only thin it: a
// dropped block leaves every size at once, and a size refills its hole on
// its next miss, which evicts nothing.  Size j's content is therefore
// always the first fill_j blocks of the list (fill_j <= blocks_j): a block
// a smaller size evicted is never more recent than a block it still holds.
// Each block records its region, the smallest size holding it.  An access
// to a block of region r hits every size >= r; every size < r misses,
// fetches, and — when full — evicts its tail, whose region grows by one.
// The largest size's tail is the list's tail, evicted by BlockCache itself
// (which is why one size may use any replacement policy).  Per size the
// engine keeps the fill count, the tail and the counters; per block and
// size, the time and sequence number at which the block entered that size.
//
// Write policies ("lanes"): write policy never changes which blocks are
// resident, only disk writes and dirty blocks discarded by invalidation.
// A delayed-write block is dirty in size j iff written since it entered
// size j.  A block enters a larger size no later than a smaller one, so the
// sizes where it is dirty are a suffix, and each block keeps only the first
// of them, `dirty_from`: a write sets it to 0 (every size holds the block
// afterwards), leaving size j raises it past j, and entering a size leaves
// it alone (the block enters clean).  No access times are compared, so two
// accesses sharing one time cannot be misordered.  A flush-back block is
// dirty iff also last written in the lane's current flush epoch, so every
// (size, lane)'s dirtiness derives from dirty_from and one last-write clock
// per block.  Flush-back disk writes are counted when a block turns dirty
// (into a pending counter per size and lane, folded in at the epoch
// boundary and reclassified if the block leaves the size first), so an
// epoch costs O(sizes), not a cache scan.  Write-through lanes are
// reconstructed from the shared write-access count.
//
// Residency samples must be added in each reference cache's own order
// (the running moments are order-sensitive): evictions as they happen,
// end-of-trace censoring in LRU order, and an invalidation's drops in
// descending order of entry into that size — the order a per-size cache's
// file chain holds them, which differs between sizes once a block has been
// evicted from a small size and fetched again.
class FusedCacheSimulator final : public ReplayFrontEnd<FusedCacheSimulator> {
 public:
  // One write policy plus its flush interval (used when the policy is
  // kFlushBack).
  struct PolicyLane {
    WritePolicy policy = WritePolicy::kDelayedWrite;
    Duration flush_interval = Duration::Seconds(30);
  };

  // One member per config (nonempty), in any order; duplicates and members
  // whose sizes round to the same block count are allowed.  All share
  // block size, page-in and replacement; none simulates metadata; more than
  // one distinct block count requires LRU.
  explicit FusedCacheSimulator(const std::vector<CacheConfig>& members);
  // `base`'s cache under each lane's policy (base.policy and
  // base.flush_interval are ignored): member i is lane i.
  FusedCacheSimulator(const CacheConfig& base, const std::vector<PolicyLane>& lanes);

  // Allocation hint of the CacheSimulator interface; feed-driven replay
  // keeps no per-file tables, so there is nothing to size.
  void ReserveFiles(size_t) {}

  void AdvanceClock(SimTime now) {
    if (now > now_) {
      now_ = now;
    }
    for (const size_t lane : flush_lanes_) {
      while (now_ >= next_flush_[lane]) {
        // Everything dirtied this epoch and still held flushes now.
        for (size_t j = 0; j < k_; ++j) {
          LaneCounters& c = Counters(j, lane);
          c.disk_writes += c.pending;
          c.pending = 0;
        }
        epoch_start_[lane] = next_flush_[lane];
        next_flush_[lane] += lanes_[lane].flush_interval;
      }
    }
  }

  // One block access (CacheLevel::AccessBlock's contract, for every size).
  void AccessBlock(SimTime now, const BlockKey& key, bool is_write, bool whole_block,
                   uint64_t known_extent) {
    shared_.logical_accesses += 1;
    if (is_write) {
      shared_.write_accesses += 1;
    } else {
      shared_.read_accesses += 1;
    }
    ++seq_;
    CacheEntry* entry = cache_.Find(key);
    size_t region = k_;  // absent: every size misses
    int32_t slot;
    if (entry != nullptr) {
      slot = cache_.SlotOf(entry);
      region = slots_[static_cast<size_t>(slot)].region;
      // Every size holding the block hits; a size whose tail it was now
      // ends one block sooner (unless the block is already at the head).
      const int32_t newer = cache_.NewerSlot(slot);
      for (size_t j = region; j + 1 < k_; ++j) {
        if (sizes_[j].tail == slot && newer != BlockCache::kNil) {
          sizes_[j].tail = newer;
        }
      }
      cache_.Retouch(entry);
    } else {
      // The largest size evicts the list's tail.
      entry = cache_.Insert(key, now, [this, now](const CacheEntry& victim) {
        Evict(k_ - 1, cache_.SlotOf(&victim), now);
      });
      cache_.Retouch(entry);
      slot = cache_.SlotOf(entry);
      slots_[static_cast<size_t>(slot)].dirty_from = static_cast<uint32_t>(k_);
    }
    if (region > 0) {
      // Sizes below the block's region miss.  The block is already at the
      // head, so a full size's new tail is its old tail's newer neighbour.
      const bool fetch =
          !(is_write && (whole_block || key.index * block_size_ >= known_extent));
      Entered* entered = &entered_[static_cast<size_t>(slot) * k_];
      for (size_t j = 0; j < region; ++j) {
        Size& size = sizes_[j];
        if (fetch) {
          size.metrics.disk_reads += 1;
        }
        if (j + 1 < k_) {
          if (size.fill == size.blocks) {
            const int32_t victim = size.tail;
            size.tail = cache_.NewerSlot(victim);
            Evict(j, victim, now);
          } else {
            if (size.fill == 0) {
              size.tail = slot;
            }
            size.fill += 1;
          }
        }
        entered[j] = {.seq = seq_, .time = now};
      }
      slots_[static_cast<size_t>(slot)].region = 0;
    }
    if (is_write) {
      Write(slot);
    }
  }

  // One transfer's block accesses.  Requires length > 0.
  void AccessBlocks(SimTime now, FileId file, uint64_t offset, uint64_t length, bool is_write,
                    uint64_t extent) {
    AdvanceClock(now);
    ForEachBlock(block_size_, offset, length, is_write, [&](uint64_t index, bool whole_block) {
      AccessBlock(now, BlockKey{.file = file, .index = index}, is_write, whole_block, extent);
    });
  }

  // Drops every cached block of `file` from byte `first_byte` up (whole
  // blocks only) from every size; dirty blocks are discarded.
  void Invalidate(SimTime now, FileId file, uint64_t first_byte);

  // Censors the residency of blocks still cached (no write-backs charged).
  void Finish();

  // Member `i`'s metrics — bit-identical to CacheSimulator with its config.
  CacheMetrics Metrics(size_t i) const;
  // The lane-constructor spelling of Metrics.
  CacheMetrics LaneMetrics(size_t i) const { return Metrics(i); }

 private:
  struct Size {
    uint64_t blocks = 0;
    uint64_t fill = 0;                // blocks held (unused by the largest)
    int32_t tail = BlockCache::kNil;  // least recently used block held (ditto)
    CacheMetrics metrics;             // fetches, evictions and residency
  };
  struct LaneCounters {
    uint64_t disk_writes = 0;
    uint64_t dirty_discarded = 0;
    // Flush writes owed at the lane's next epoch boundary: one per block of
    // the size dirtied this epoch and still held.
    uint64_t pending = 0;
  };
  // Per resident block.
  struct SlotState {
    uint32_t region = 0;      // the smallest size holding the block
    uint32_t dirty_from = 0;  // the smallest size it is dirty in (k_: none)
    SimTime written;          // clock of its last write (read while dirty)
  };
  // When a block entered one size: its access sequence number and time.
  struct Entered {
    uint64_t seq = 0;
    SimTime time;
  };

  LaneCounters& Counters(size_t size, size_t lane) {
    return counters_[size * lanes_.size() + lane];
  }

  // A flush-back lane owes one flush write per clean->dirty transition in
  // its epoch, in every size (all hold the block after the access).
  void Write(int32_t slot) {
    SlotState& s = slots_[static_cast<size_t>(slot)];
    for (const size_t lane : flush_lanes_) {
      // Already dirty under the lane from dirty_from up, if written this
      // epoch; clean everywhere otherwise.
      const size_t clean = s.written >= epoch_start_[lane] ? s.dirty_from : k_;
      for (size_t j = 0; j < clean; ++j) {
        Counters(j, lane).pending += 1;
      }
    }
    s.dirty_from = 0;
    // The epoch a write lands in is the clock's, which a write billed at an
    // earlier time (kAtPreviousEvent) may be behind.
    s.written = now_;
  }

  // Size j loses the block in `slot`: evicted (a dirty block is written
  // back) or dropped by invalidation (a dirty block is discarded).
  void Leave(size_t j, int32_t slot, bool evicted) {
    SlotState& s = slots_[static_cast<size_t>(slot)];
    if (j < s.dirty_from) {
      return;  // not written since it entered: clean under every lane
    }
    for (const size_t lane : delayed_lanes_) {
      LaneCounters& c = Counters(j, lane);
      (evicted ? c.disk_writes : c.dirty_discarded) += 1;
    }
    for (const size_t lane : flush_lanes_) {
      if (s.written >= epoch_start_[lane]) {
        LaneCounters& c = Counters(j, lane);
        c.pending -= 1;  // the owed flush write happens now, or never
        (evicted ? c.disk_writes : c.dirty_discarded) += 1;
      }
    }
  }

  // Size j evicts the block in `slot`, which stays held from size j + 1 up.
  void Evict(size_t j, int32_t slot, SimTime now) {
    CacheMetrics& m = sizes_[j].metrics;
    m.evictions += 1;
    AddResidency(m, entered_[static_cast<size_t>(slot) * k_ + j].time, now);
    Leave(j, slot, /*evicted=*/true);
    SlotState& s = slots_[static_cast<size_t>(slot)];
    s.region = static_cast<uint32_t>(j + 1);
    s.dirty_from = std::max(s.dirty_from, s.region);
  }

  uint32_t block_size_;
  BlockCache cache_;  // sized for the largest member; its list serves every size
  std::vector<Size> sizes_;        // distinct block counts, ascending
  size_t k_ = 0;                   // sizes_.size()
  std::vector<PolicyLane> lanes_;  // distinct write policies
  std::vector<size_t> flush_lanes_;    // indices of kFlushBack lanes
  std::vector<size_t> delayed_lanes_;  // indices of kDelayedWrite lanes
  // Per lane: the current flush epoch, [epoch_start_, next_flush_).
  std::vector<SimTime> epoch_start_;
  std::vector<SimTime> next_flush_;
  std::vector<LaneCounters> counters_;  // [size * lanes + lane]
  // Per member: its size and lane.
  std::vector<std::pair<size_t, size_t>> members_;
  std::vector<SlotState> slots_;  // per slot of cache_
  std::vector<Entered> entered_;  // [slot * sizes + size]
  CacheMetrics shared_;           // the access counts every member shares
  uint64_t seq_ = 0;              // block accesses so far
  SimTime now_;
  bool finished_ = false;
  // Invalidate's scratch: the dropped slots, then one size's drop order.
  std::vector<int32_t> dropped_;
  std::vector<std::pair<uint64_t, SimTime>> drop_order_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_SIMULATOR_H_

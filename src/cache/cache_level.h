// One level of a disk-block cache hierarchy (paper §6 core, §7 topology),
// and the replay front end every feed-driven cache engine shares.
//
// CacheLevel is the per-config cache core: the slab BlockCache under one
// write policy (write-through, flush-back(T) or delayed-write), plus
// everything the paper's §6 policies decide per block — miss-fetch elision
// for whole-block overwrites and blocks beyond the file's known extent,
// invalidation that discards dirty blocks without a disk write, and
// residency accounting.  What happens BELOW the level on a miss fetch or a
// write-back varies at compile time (`Below`).  DiskBelow is the terminal
// level: fetches and write-backs are disk I/Os and are already counted in
// this level's own metrics.  A forwarding policy (hierarchy.h's ServerLink)
// turns them into block accesses on a lower level, which is how the §7
// client/server hierarchy stacks levels.
//
// The write state is a dirty bit per block on BlockCache's intrusive dirty
// chain: flush-back scans walk that chain, and every write-back goes Below.
// Invalidation never writes: dirty blocks of deleted files vanish without
// traffic at ANY level (the effect that makes large delayed-write caches
// absorb most writes entirely); lower levels are instead invalidated
// explicitly by the hierarchy simulator.
//
// The other cache engine, simulator.h's FusedCacheSimulator, serves every
// size and write policy of one LRU family from a single replay; CacheLevel
// is the reference it is checked against.
//
// ReplayFrontEnd is the one path from a ReplayLog to an engine's blocks:
// the extent feeds, the record -> invalidate / page-in / clock mapping and
// the instance-attributed entry points.  CacheLevel, FusedCacheSimulator,
// HierarchySimulator and StackDistanceAnalyzer are its engines; each keeps
// only AccessBlocks, Invalidate, AdvanceClock and Finish.  The one reference
// twin that tracks extents itself is CacheSimulator (simulator.h).
//
// Templates (rather than virtual interfaces) keep the hot path free of
// indirect calls: with DiskBelow the hooks compile to nothing.

#ifndef BSDTRACE_SRC_CACHE_CACHE_LEVEL_H_
#define BSDTRACE_SRC_CACHE_CACHE_LEVEL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

#include "src/cache/block_cache.h"
#include "src/trace/replay_log.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"

namespace bsdtrace {

enum class WritePolicy : uint8_t {
  kWriteThrough,
  kFlushBack,     // requires flush_interval
  kDelayedWrite,
};

const char* WritePolicyName(WritePolicy policy);

struct CacheConfig {
  uint64_t size_bytes = 400 << 10;  // the UNIX-typical "about 400 kbytes"
  uint32_t block_size = 4096;
  WritePolicy policy = WritePolicy::kDelayedWrite;
  Duration flush_interval = Duration::Seconds(30);
  // Replacement policy (the paper used LRU; alternatives for ablations).
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  // Fig. 7: treat each execve as a whole-file read of the program file.
  bool simulate_execve_pagein = false;
  // §8 extension: inject i-node and directory block accesses for each open,
  // write-close, and unlink (the "I/O for things other than file data" the
  // paper estimates could exceed file-data I/O).  See simulator.cc for the
  // approximation.  Only CacheSimulator honors it.
  bool simulate_metadata = false;

  uint64_t block_count() const { return std::max<uint64_t>(1, size_bytes / block_size); }
  std::string ToString() const;
};

struct CacheMetrics {
  uint64_t logical_accesses = 0;  // block accesses presented to the cache
  uint64_t read_accesses = 0;
  uint64_t write_accesses = 0;

  uint64_t metadata_accesses = 0;  // i-node/directory accesses (if simulated)

  uint64_t disk_reads = 0;        // miss fetches (from below, for a stacked level)
  uint64_t disk_writes = 0;       // write-through/flush/eviction write-backs
  uint64_t dirty_discarded = 0;   // dirty blocks dropped by delete/overwrite
  uint64_t evictions = 0;

  // Residency: time between a block entering the cache and leaving it
  // (evicted, invalidated, or still resident at end of trace).
  RunningStats residency_seconds;
  uint64_t residency_over_20min = 0;
  uint64_t residency_samples = 0;

  uint64_t DiskIos() const { return disk_reads + disk_writes; }
  double MissRatio() const {
    return logical_accesses > 0
               ? static_cast<double>(DiskIos()) / static_cast<double>(logical_accesses)
               : 0.0;
  }
};

// The one block-split loop: calls fn(block_index, whole_block) for every
// block of `block_size` that the byte range [offset, offset + length)
// touches, in index order.  `whole_block` marks a write covering the full
// block (it never fetches).  Requires length > 0.
template <typename Fn>
inline void ForEachBlock(uint32_t block_size, uint64_t offset, uint64_t length, bool is_write,
                         Fn&& fn) {
  const uint64_t first = offset / block_size;
  const uint64_t last = (offset + length - 1) / block_size;
  for (uint64_t b = first; b <= last; ++b) {
    const uint64_t block_start = b * block_size;
    fn(b, is_write && offset <= block_start && offset + length >= block_start + block_size);
  }
}

// The replay front end (CRTP: `class E : public ReplayFrontEnd<E>`).  It is
// a statically typed ReplayLog sink: it consumes the log's precomputed
// known-extent feeds — one slot per transfer, zero-length transfers
// included, and one per nonempty execve whether or not page-in is simulated
// — and maps each event onto the engine's hooks:
//
//   transfer            -> AccessBlocks(time, file, offset, length, is_write, extent)
//   create / unlink     -> Invalidate(time, file, 0)
//   truncate            -> Invalidate(time, file, size)
//   execve (page-in on) -> AccessBlocks(time, file, 0, size, false, extent)
//   any other record    -> AdvanceClock(time)
//
// Zero-length transfers and execves without a page-in read do nothing, not
// even a clock advance.  The instance-attributed entry points record the
// event's fleet instance for the hooks (instance()) and then take the same
// path, so every engine replays either stream.
template <typename Engine>
class ReplayFrontEnd {
 public:
  // Sets the precomputed known-extent feeds (ReplayLog::transfer_extents*
  // and execve_extents).  Call before streaming any events; the arrays must
  // outlive the engine.
  void SetExtentFeeds(const uint64_t* transfer_feed, const uint64_t* execve_feed) {
    transfer_feed_ = transfer_feed;
    execve_feed_ = execve_feed;
  }

  // The one log driver: sets `log`'s feeds — the transfer feed matching
  // whether this engine simulates execve page-in, since page-in reads
  // extend extents — streams its data events with their instances and
  // finishes the engine.
  void Replay(const ReplayLog& log) {
    SetExtentFeeds(pagein_ ? log.transfer_extents_pagein().data() : log.transfer_extents().data(),
                   log.execve_extents().data());
    log.ReplayDataEventsWithInstancesInto(*this);
    engine().Finish();
  }

  void OnTransfer(const Transfer& t) {
    assert(transfer_feed_ != nullptr);
    const uint64_t extent = transfer_feed_[transfer_pos_++];
    if (t.length > 0) {
      engine().AccessBlocks(t.time, t.file_id, t.offset, t.length,
                            t.direction == TransferDirection::kWrite, extent);
    }
  }

  void OnRecord(const TraceRecord& r) {
    switch (r.type) {
      case EventType::kCreate:  // created or zero-truncated: cached data is void
      case EventType::kUnlink:
        engine().Invalidate(r.time, r.file_id, 0);
        break;
      case EventType::kTruncate:
        engine().Invalidate(r.time, r.file_id, r.size);
        break;
      case EventType::kExecve:
        // Fig. 7: demand page-in approximated as a whole-file read.
        if (r.size > 0) {
          assert(execve_feed_ != nullptr);
          const uint64_t extent = execve_feed_[execve_pos_++];
          if (pagein_) {
            engine().AccessBlocks(r.time, r.file_id, 0, r.size, /*is_write=*/false, extent);
          }
        }
        break;
      default:
        engine().AdvanceClock(r.time);
        break;
    }
  }

  void OnTransferFrom(uint16_t instance, const Transfer& t) {
    instance_ = instance;
    OnTransfer(t);
  }
  void OnRecordFrom(uint16_t instance, const TraceRecord& r) {
    instance_ = instance;
    OnRecord(r);
  }

 protected:
  explicit ReplayFrontEnd(bool simulate_execve_pagein) : pagein_(simulate_execve_pagein) {}

  // Fleet instance of the event being delivered (0 unless the stream is
  // instance-attributed).
  uint16_t instance() const { return instance_; }

 private:
  Engine& engine() { return static_cast<Engine&>(*this); }

  const uint64_t* transfer_feed_ = nullptr;
  const uint64_t* execve_feed_ = nullptr;
  size_t transfer_pos_ = 0;
  size_t execve_pos_ = 0;
  bool pagein_;
  uint16_t instance_ = 0;
};

// The terminal below-policy: misses and write-backs go to disk, which the
// level's own disk_reads/disk_writes counters already record.
struct DiskBelow {
  void OnFetch(SimTime, const BlockKey&) {}
  void OnWriteBack(SimTime, const BlockKey&) {}
};

// Adds one residency sample: the time a block stayed in a cache, from
// entering it to leaving it (evicted, invalidated or censored at the end).
inline void AddResidency(CacheMetrics& metrics, SimTime loaded, SimTime left) {
  const double seconds = (left - loaded).seconds();
  metrics.residency_seconds.Add(seconds);
  metrics.residency_samples += 1;
  if (seconds > 20.0 * 60.0) {
    metrics.residency_over_20min += 1;
  }
}

// One cache level under one write policy.  Driven through the replay front
// end, or directly via AccessBlocks/AccessBlock/Invalidate/AdvanceClock by a
// caller that owns the trace semantics (CacheSimulator's reference path,
// the hierarchy's client layer).
template <typename Below = DiskBelow>
class CacheLevel : public ReplayFrontEnd<CacheLevel<Below>> {
 public:
  explicit CacheLevel(const CacheConfig& config, Below below = Below{})
      : ReplayFrontEnd<CacheLevel>(config.simulate_execve_pagein),
        config_(config),
        cache_(config.block_count(), config.replacement),
        below_(below),
        next_flush_(SimTime::Origin() + config.flush_interval) {}

  // Advances the simulation clock and runs the flush-back scans that came
  // due.  Inline: runs on every clock advance and is almost always just the
  // two compares.
  void AdvanceClock(SimTime now) {
    if (now > now_) {
      now_ = now;
    }
    if (config_.policy != WritePolicy::kFlushBack) {
      return;
    }
    while (now_ >= next_flush_) {
      // O(dirty blocks): walks the cache's intrusive dirty chain, not the
      // whole cache.  The scan semantically runs at the epoch boundary, so
      // write-backs are forwarded below at that time, not at `now`.
      const SimTime flush_time = next_flush_;
      cache_.DrainDirty(
          [this, flush_time](CacheEntry& entry) { WriteBack(flush_time, entry.key); });
      next_flush_ += config_.flush_interval;
    }
  }

  // One block access.  `known_extent` is the caller's one-per-transfer read
  // of the file's known extent (0 when the file has none; metadata blocks
  // pass a huge constant); `whole_block` marks a write covering the full
  // block.  Does NOT advance the clock — callers do, once per transfer.
  void AccessBlock(SimTime now, const BlockKey& key, bool is_write, bool whole_block,
                   uint64_t known_extent) {
    metrics_.logical_accesses += 1;
    if (is_write) {
      metrics_.write_accesses += 1;
    } else {
      metrics_.read_accesses += 1;
    }

    CacheEntry* entry = cache_.Touch(key);
    if (entry == nullptr) {
      // Miss.  A fetch is needed unless this access overwrites the whole
      // block, or the block lies beyond any data the file is known to have.
      const uint64_t block_start = key.index * config_.block_size;
      const bool beyond_known_data = block_start >= known_extent;
      if (!(is_write && (whole_block || beyond_known_data))) {
        metrics_.disk_reads += 1;
        below_.OnFetch(now, key);
      }
      entry = cache_.Insert(key, now, [this, now](const CacheEntry& victim) {
        metrics_.evictions += 1;
        AddResidency(metrics_, victim.loaded, now);
        if (victim.dirty) {
          WriteBack(now, victim.key);  // delayed/flush-back eviction write-back
        }
      });
      cache_.Retouch(entry);  // same policy action the hit path's Touch applies
    }
    if (!is_write) {
      return;
    }
    if (config_.policy == WritePolicy::kWriteThrough) {
      WriteBack(now, entry->key);  // every modification goes below
      // The cached copy stays clean: the level below is up to date.
      if (entry->dirty) {
        cache_.MarkClean(entry);
      }
    } else if (!entry->dirty) {
      cache_.MarkDirty(entry);
      entry->dirtied = now;
    }
  }

  // One transfer's block accesses; `extent` is the file's known extent
  // however obtained.  Requires length > 0.
  void AccessBlocks(SimTime now, FileId file, uint64_t offset, uint64_t length, bool is_write,
                    uint64_t extent) {
    AdvanceClock(now);
    ForEachBlock(config_.block_size, offset, length, is_write,
                 [&](uint64_t index, bool whole_block) {
                   AccessBlock(now, BlockKey{.file = file, .index = index}, is_write,
                               whole_block, extent);
                 });
  }

  // Drops every cached block of `file` from byte `first_byte` up (whole
  // blocks only).  Dirty blocks are discarded, never written — at this level
  // or below.  Extent bookkeeping stays with the caller.
  void Invalidate(SimTime now, FileId file, uint64_t first_byte) {
    AdvanceClock(now);
    const uint64_t first_block =
        (first_byte + config_.block_size - 1) / config_.block_size;  // whole blocks only
    cache_.RemoveFileBlocks(file, first_block, [this, now](const CacheEntry& dropped) {
      AddResidency(metrics_, dropped.loaded, now);
      if (dropped.dirty) {
        metrics_.dirty_discarded += 1;  // never reaches disk
      }
    });
  }

  // Finalizes residency statistics for blocks still cached.  Dirty blocks
  // still in the cache are NOT charged as write-backs (the trace simply
  // ended; the paper's metric does likewise).
  void Finish() {
    if (finished_) {
      return;
    }
    finished_ = true;
    cache_.ForEach([this](CacheEntry& entry) { AddResidency(metrics_, entry.loaded, now_); });
  }

  const CacheConfig& config() const { return config_; }
  const CacheMetrics& metrics() const { return metrics_; }
  CacheMetrics& mutable_metrics() { return metrics_; }

 private:
  // One write-back: a disk write at this level, forwarded below.
  void WriteBack(SimTime time, const BlockKey& key) {
    metrics_.disk_writes += 1;
    below_.OnWriteBack(time, key);
  }

  CacheConfig config_;
  BlockCache cache_;
  CacheMetrics metrics_;
  SimTime now_;
  Below below_;
  SimTime next_flush_;  // end of the current flush-back epoch
  bool finished_ = false;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_CACHE_LEVEL_H_

#include "src/cache/simulator.h"

#include <algorithm>
#include <cassert>

#include "src/util/stats.h"

namespace bsdtrace {

const char* WritePolicyName(WritePolicy policy) {
  switch (policy) {
    case WritePolicy::kWriteThrough:
      return "write-through";
    case WritePolicy::kFlushBack:
      return "flush-back";
    case WritePolicy::kDelayedWrite:
      return "delayed-write";
  }
  return "?";
}

std::string CacheConfig::ToString() const {
  std::string out = FormatBytes(static_cast<double>(size_bytes)) + " cache, " +
                    FormatBytes(block_size) + " blocks, " + WritePolicyName(policy);
  if (policy == WritePolicy::kFlushBack) {
    out.append("(").append(flush_interval.ToString()).append(")");
  }
  if (replacement != ReplacementPolicy::kLru) {
    out += std::string(", ") + ReplacementPolicyName(replacement);
  }
  if (simulate_execve_pagein) {
    out += ", +page-in";
  }
  return out;
}

CacheSimulator::CacheSimulator(const CacheConfig& config) : level_(config) {}

void CacheSimulator::ReserveFiles(size_t file_count) {
  known_extent_.Reserve(file_count);
  if (config().simulate_metadata) {
    meta_dirty_.reserve(file_count);
  }
}

void CacheSimulator::Access(SimTime now, FileId file, uint64_t offset, uint64_t length,
                            bool is_write) {
  if (length == 0) {
    return;
  }
  // One extent lookup per transfer, not per block: within the transfer the
  // table is untouched, so every block sees the same value ("no entry" reads
  // as extent 0 — every block is then beyond known data, as before).
  uint64_t* ext = known_extent_.Find(file);
  level_.AccessBlocks(now, file, offset, length, is_write, ext != nullptr ? *ext : 0);
  // Reads prove the data existed; writes create it: either way the file now
  // extends at least this far.
  if (ext != nullptr) {
    *ext = std::max(*ext, offset + length);
  } else {
    known_extent_[file] = offset + length;
  }
}

// Metadata approximation (§8 extension).  The trace carries no pathnames, so
// locality is modelled through file ids: i-nodes pack 16 per block of a
// reserved "i-node table" file, and files with nearby ids (created together,
// usually in the same directory) share a directory content block of 32
// entries.  Each open costs an i-node read plus a directory read; each close
// after writing costs an i-node write; unlinks write both.
namespace {
constexpr FileId kInodeTableFile = 1ull << 62;
constexpr FileId kDirectoryFile = (1ull << 62) + 1;
constexpr uint64_t kInodesPerBlock = 16;
constexpr uint64_t kDirEntriesPerBlock = 32;
// Metadata blocks always exist on disk: the reserved files behave as fully
// populated, so partial writes to them fetch first (read-modify-write).
// Passed straight to AccessBlock — the reserved ids never appear in
// transfers or invalidations, so they need no known_extent_ entries.
constexpr uint64_t kMetadataExtent = UINT64_MAX / 2;
}  // namespace

void CacheSimulator::MetadataAccess(SimTime now, FileId file, bool is_write) {
  level_.AdvanceClock(now);
  level_.mutable_metrics().metadata_accesses += 2;
  level_.AccessBlock(now, BlockKey{.file = kInodeTableFile, .index = file / kInodesPerBlock},
                     is_write, false, kMetadataExtent);
  level_.AccessBlock(now, BlockKey{.file = kDirectoryFile, .index = file / kDirEntriesPerBlock},
                     is_write, false, kMetadataExtent);
}

void CacheSimulator::InvalidateFrom(SimTime now, FileId file, uint64_t first_byte) {
  level_.Invalidate(now, file, first_byte);
  if (first_byte == 0) {
    known_extent_.Erase(file);
  } else {
    if (uint64_t* extent = known_extent_.Find(file)) {
      *extent = std::min(*extent, first_byte);
    }
  }
}

void CacheSimulator::OnRecord(const TraceRecord& r, RecordOwner) {
  if (config().simulate_metadata) {
    switch (r.type) {
      case EventType::kOpen:
        MetadataAccess(r.time, r.file_id, /*is_write=*/false);
        break;
      case EventType::kCreate:
        MetadataAccess(r.time, r.file_id, /*is_write=*/true);
        break;
      case EventType::kClose:
        if (meta_dirty_.erase(r.file_id) > 0) {
          // The i-node's size/mtime must reach disk eventually.
          level_.mutable_metrics().metadata_accesses += 1;
          level_.AccessBlock(r.time, BlockKey{.file = kInodeTableFile,
                                              .index = r.file_id / kInodesPerBlock},
                             /*is_write=*/true, false, kMetadataExtent);
        }
        break;
      case EventType::kUnlink:
        MetadataAccess(r.time, r.file_id, /*is_write=*/true);
        break;
      default:
        break;
    }
  }
  switch (r.type) {
    case EventType::kCreate:
      // The open created or zero-truncated the file: cached data is void.
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kUnlink:
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kTruncate:
      InvalidateFrom(r.time, r.file_id, r.size);
      break;
    case EventType::kExecve:
      // Fig. 7: demand page-in approximated as a whole-file read.
      if (config().simulate_execve_pagein && r.size > 0) {
        Access(r.time, r.file_id, 0, r.size, /*is_write=*/false);
      }
      break;
    default:
      level_.AdvanceClock(r.time);
      break;
  }
}

namespace {

std::vector<CacheConfig> LaneConfigs(const CacheConfig& base,
                                     const std::vector<FusedCacheSimulator::PolicyLane>& lanes) {
  std::vector<CacheConfig> members(lanes.size(), base);
  for (size_t i = 0; i < lanes.size(); ++i) {
    members[i].policy = lanes[i].policy;
    members[i].flush_interval = lanes[i].flush_interval;
  }
  return members;
}

uint64_t LargestBlockCount(const std::vector<CacheConfig>& members) {
  uint64_t blocks = 0;
  for (const CacheConfig& c : members) {
    blocks = std::max(blocks, c.block_count());
  }
  return blocks;
}

}  // namespace

FusedCacheSimulator::FusedCacheSimulator(const std::vector<CacheConfig>& members)
    : ReplayFrontEnd(members.front().simulate_execve_pagein),
      block_size_(members.front().block_size),
      cache_(LargestBlockCount(members), members.front().replacement) {
  std::vector<uint64_t> blocks;
  for (const CacheConfig& c : members) {
    assert(!c.simulate_metadata && c.block_size == block_size_ &&
           c.simulate_execve_pagein == members.front().simulate_execve_pagein &&
           c.replacement == members.front().replacement);
    blocks.push_back(c.block_count());
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  assert(blocks.size() == 1 || members.front().replacement == ReplacementPolicy::kLru);
  sizes_.resize(blocks.size());
  for (size_t j = 0; j < blocks.size(); ++j) {
    sizes_[j].blocks = blocks[j];
  }
  for (const CacheConfig& c : members) {
    const size_t size = static_cast<size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), c.block_count()) - blocks.begin());
    // Write-through and delayed-write ignore the flush interval.
    const Duration interval =
        c.policy == WritePolicy::kFlushBack ? c.flush_interval : Duration::Seconds(30);
    size_t lane = 0;
    while (lane < lanes_.size() &&
           !(lanes_[lane].policy == c.policy && lanes_[lane].flush_interval == interval)) {
      ++lane;
    }
    if (lane == lanes_.size()) {
      lanes_.push_back({c.policy, interval});
    }
    members_.push_back({size, lane});
  }
  epoch_start_.resize(lanes_.size());
  next_flush_.resize(lanes_.size());
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    if (lanes_[lane].policy == WritePolicy::kDelayedWrite) {
      delayed_lanes_.push_back(lane);
    } else if (lanes_[lane].policy == WritePolicy::kFlushBack) {
      flush_lanes_.push_back(lane);
      next_flush_[lane] = SimTime::Origin() + lanes_[lane].flush_interval;
    }
  }
  k_ = sizes_.size();
  counters_.resize(k_ * lanes_.size());
  const size_t slots = static_cast<size_t>(blocks.back());
  slots_.resize(slots);
  entered_.resize(slots * k_);
}

FusedCacheSimulator::FusedCacheSimulator(const CacheConfig& base,
                                         const std::vector<PolicyLane>& lanes)
    : FusedCacheSimulator(LaneConfigs(base, lanes)) {}

void FusedCacheSimulator::Invalidate(SimTime now, FileId file, uint64_t first_byte) {
  AdvanceClock(now);
  const uint64_t first_block = (first_byte + block_size_ - 1) / block_size_;  // whole blocks
  dropped_.clear();
  cache_.RemoveFileBlocks(file, first_block, [this](const CacheEntry& entry) {
    // Called before the block leaves the list, so a tail it ends steps to
    // its newer neighbour — a later drop of that neighbour steps it again.
    const int32_t slot = cache_.SlotOf(&entry);
    for (size_t j = slots_[static_cast<size_t>(slot)].region; j < k_; ++j) {
      if (j + 1 < k_) {
        Size& size = sizes_[j];
        if (size.tail == slot) {
          size.tail = cache_.NewerSlot(slot);
        }
        size.fill -= 1;
      }
      Leave(j, slot, /*evicted=*/false);
    }
    dropped_.push_back(slot);
  });
  // The freed slots keep their records until the next insert.  Each size
  // adds its residency samples newest entry first, as its own file chain
  // would hold them.
  for (size_t j = 0; j < k_ && !dropped_.empty(); ++j) {
    drop_order_.clear();
    for (const int32_t slot : dropped_) {
      const size_t s = static_cast<size_t>(slot);
      if (slots_[s].region <= j) {
        const Entered& entered = entered_[s * k_ + j];
        drop_order_.push_back({entered.seq, entered.time});
      }
    }
    std::sort(drop_order_.begin(), drop_order_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [seq, entered] : drop_order_) {
      AddResidency(sizes_[j].metrics, entered, now);
    }
  }
}

void FusedCacheSimulator::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  // Most to least recently used: each size's own LRU order.
  cache_.ForEach([this](CacheEntry& entry) {
    const size_t s = static_cast<size_t>(cache_.SlotOf(&entry));
    for (size_t j = slots_[s].region; j < k_; ++j) {
      AddResidency(sizes_[j].metrics, entered_[s * k_ + j].time, now_);
    }
  });
}

CacheMetrics FusedCacheSimulator::Metrics(size_t i) const {
  assert(i < members_.size());
  const auto [size, lane] = members_[i];
  CacheMetrics m = sizes_[size].metrics;
  m.logical_accesses = shared_.logical_accesses;
  m.read_accesses = shared_.read_accesses;
  m.write_accesses = shared_.write_accesses;
  if (lanes_[lane].policy == WritePolicy::kWriteThrough) {
    m.disk_writes = shared_.write_accesses;  // one write-through per write access
  } else {
    const LaneCounters& c = counters_[size * lanes_.size() + lane];
    m.disk_writes = c.disk_writes;
    m.dirty_discarded = c.dirty_discarded;
  }
  return m;
}

}  // namespace bsdtrace

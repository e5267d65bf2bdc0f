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

FusedLaneWrites::FusedLaneWrites(const CacheConfig& base, const std::vector<Lane>& lanes)
    : lanes_(lanes),
      counters_(lanes.size()),
      next_flush_(lanes.size()),
      fb_pending_(lanes.size(), 0),
      written_(base.block_count(), 0),
      last_write_(base.block_count()) {
  assert(!base.simulate_metadata);
  assert(!lanes_.empty());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].policy == WritePolicy::kDelayedWrite) {
      delayed_lanes_.push_back(i);
    } else if (lanes_[i].policy == WritePolicy::kFlushBack) {
      flush_lanes_.push_back(i);
      next_flush_[i] = SimTime::Origin() + lanes_[i].flush_interval;
    }
  }
}

CacheMetrics FusedLaneWrites::LaneMetrics(const CacheMetrics& shared, size_t i) const {
  CacheMetrics m = shared;
  if (lanes_[i].policy == WritePolicy::kWriteThrough) {
    m.disk_writes = shared.write_accesses;  // one write-through per write access
    m.dirty_discarded = 0;
  } else {
    m.disk_writes = counters_[i].disk_writes;
    m.dirty_discarded = counters_[i].dirty_discarded;
  }
  return m;
}

}  // namespace bsdtrace

#include "src/cache/hierarchy.h"

#include <algorithm>
#include <cassert>

#include "src/util/stats.h"

namespace bsdtrace {

std::string HierarchyConfig::ToString() const {
  if (!has_clients()) {
    return "no client / " + server.ToString() + " server";
  }
  return client.ToString() + " client / " + server.ToString() + " server";
}

HierarchySimulator::HierarchySimulator(const HierarchyConfig& config, size_t client_count)
    : config_(config), server_(config.server) {
  assert(!config.client.simulate_metadata && !config.server.simulate_metadata);
  assert(!config.has_clients() || (config.client.block_size == config.server.block_size &&
                                    config.client.simulate_execve_pagein ==
                                        config.server.simulate_execve_pagein));
  if (config.has_clients()) {
    const size_t n = std::max<size_t>(1, client_count);
    for (size_t i = 0; i < n; ++i) {
      clients_.emplace_back(config.client, ServerLink{&server_});
    }
  }
}

void HierarchySimulator::ReserveFiles(size_t file_count) {
  if (transfer_extent_feed_ == nullptr) {
    known_extent_.Reserve(file_count);
  }
}

void HierarchySimulator::Access(uint16_t instance, SimTime now, FileId file,
                                uint64_t offset, uint64_t length, bool is_write) {
  if (length == 0) {
    return;
  }
  // The extent is a property of the FILE, not of any cache level: one global
  // table shared by every instance — the same trajectory the precomputed
  // feeds carry (fleet traces keep file ids instance-disjoint anyway).
  uint64_t* ext = known_extent_.Find(file);
  AccessBlocks(instance, now, file, offset, length, is_write, ext != nullptr ? *ext : 0);
  if (ext != nullptr) {
    *ext = std::max(*ext, offset + length);
  } else {
    known_extent_[file] = offset + length;
  }
}

void HierarchySimulator::InvalidateFrom(SimTime now, FileId file, uint64_t first_byte) {
  if (clients_.empty()) {
    server_.Invalidate(now, file, first_byte);
  } else {
    server_.AdvanceClock(now);
    // Fan-out: every client drops the file's blocks (dirty ones silently —
    // their write-backs never reach the server), then the server drops its
    // copy.  Invalidate also advances each client's clock, so pending flush
    // scans fire before the removal.
    for (ClientLevel& client : clients_) {
      client.Invalidate(now, file, first_byte);
    }
    server_.Invalidate(now, file, first_byte);
  }
  if (transfer_extent_feed_ != nullptr) {
    return;  // extent trajectory is precomputed in the feeds
  }
  if (first_byte == 0) {
    known_extent_.Erase(file);
  } else {
    if (uint64_t* extent = known_extent_.Find(file)) {
      *extent = std::min(*extent, first_byte);
    }
  }
}

void HierarchySimulator::OnRecordFrom(uint16_t instance, const TraceRecord& r) {
  switch (r.type) {
    case EventType::kCreate:
    case EventType::kUnlink:
      InvalidateFrom(r.time, r.file_id, 0);
      break;
    case EventType::kTruncate:
      InvalidateFrom(r.time, r.file_id, r.size);
      break;
    case EventType::kExecve:
      // Mirrors CacheSimulator: the feed holds one slot per nonempty execve
      // regardless of whether page-in is simulated.
      if (execve_extent_feed_ != nullptr) {
        if (r.size > 0) {
          const uint64_t extent = execve_extent_feed_[execve_feed_pos_++];
          if (config_.simulate_execve_pagein()) {
            AccessBlocks(instance, r.time, r.file_id, 0, r.size, /*is_write=*/false, extent);
          }
        }
      } else if (config_.simulate_execve_pagein() && r.size > 0) {
        Access(instance, r.time, r.file_id, 0, r.size, /*is_write=*/false);
      }
      break;
    default:
      // Clock-only.  The owning client follows its own event stream; the
      // server follows the global stream.
      server_.AdvanceClock(r.time);
      if (!clients_.empty()) {
        ClientFor(instance).AdvanceClock(r.time);
      }
      break;
  }
}

void HierarchySimulator::Finish() {
  // Clients first: their right-censored residency uses their own clocks.
  // Dirty blocks are NOT flushed down — at every level the trace simply
  // ended (the single-level convention, applied per level).
  for (ClientLevel& client : clients_) {
    client.Finish();
  }
  server_.Finish();
}

HierarchyMetrics HierarchySimulator::Collect() const {
  HierarchyMetrics out;
  out.client_count = clients_.size();
  out.clients.reserve(clients_.size());
  for (const ClientLevel& client : clients_) {
    const CacheMetrics& m = client.metrics();
    out.clients.push_back(m);
    out.client_total.logical_accesses += m.logical_accesses;
    out.client_total.read_accesses += m.read_accesses;
    out.client_total.write_accesses += m.write_accesses;
    out.client_total.metadata_accesses += m.metadata_accesses;
    out.client_total.disk_reads += m.disk_reads;
    out.client_total.disk_writes += m.disk_writes;
    out.client_total.dirty_discarded += m.dirty_discarded;
    out.client_total.evictions += m.evictions;
    out.client_total.residency_seconds.Merge(m.residency_seconds);
    out.client_total.residency_over_20min += m.residency_over_20min;
    out.client_total.residency_samples += m.residency_samples;
  }
  out.server = server_.metrics();
  return out;
}

HierarchyMetrics SimulateHierarchy(const ReplayLog& log, const HierarchyConfig& config) {
  HierarchySimulator sim(config, log.instance_count());
  sim.SetExtentFeeds(config.simulate_execve_pagein()
                         ? log.transfer_extents_pagein().data()
                         : log.transfer_extents().data(),
                     log.execve_extents().data());
  sim.ReserveFiles(log.distinct_files());
  log.ReplayDataEventsWithInstancesInto(sim);
  sim.Finish();
  return sim.Collect();
}

}  // namespace bsdtrace

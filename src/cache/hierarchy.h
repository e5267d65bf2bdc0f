// Client/server cache hierarchy simulation — the §7 question the paper
// poses but never answers: networked file systems will put a block cache on
// every client machine in front of a shared server cache; how do the two
// sizes and the client write policy trade off?
//
// Topology: each fleet instance (attributed per event via the v3/v4 fleet
// tag in the trace header — ReplayLog::ReplayDataEventsWithInstancesInto)
// owns a client CacheLevel; client miss fetches and write-backs become
// block accesses on one shared server CacheLevel (cache_level.h's ServerLink
// below-policy), and the server's own misses and write-backs are the disk
// I/Os.  Unlink/truncate/create invalidations fan out to every client and
// the server, discarding dirty blocks without traffic at any level — a
// client's absorbed writes never reach the server, and the server's never
// reach disk.
//
// Semantics, level by level:
//   * A client fetch is a READ access on the server (whatever is below must
//     supply the block); a client write-back is a whole-block WRITE (the
//     client has the full current contents, so the server never fetches to
//     complete it).  Whole-block-overwrite and beyond-extent fetch elision
//     therefore apply at the client, where the knowledge lives.
//   * The server clock follows the global event clock (its flush-back
//     epochs fire on time); a client's clock advances on its own events and
//     on fan-out invalidations, so an idle client's flush scans run at its
//     next event — the flushed blocks still reach the server stamped with
//     the epoch-boundary time.
//   * client.size_bytes == 0 removes the client layer entirely: events
//     route straight to the server level through exactly the single-level
//     simulator's driver logic, making the degenerate hierarchy bit-
//     identical to CacheSimulator with the server config — the parity gate
//     bench_hier_cache enforces.
//
// Metadata simulation is not supported (client-local i-node state has no
// defined server semantics here); both levels must share a block size.

#ifndef BSDTRACE_SRC_CACHE_HIERARCHY_H_
#define BSDTRACE_SRC_CACHE_HIERARCHY_H_

#include <deque>
#include <string>
#include <vector>

#include "src/cache/cache_level.h"
#include "src/util/flat_map.h"
#include "src/trace/reconstruct.h"
#include "src/trace/replay_log.h"

namespace bsdtrace {

struct HierarchyConfig {
  // client.size_bytes == 0 → no client layer (pure single-level server).
  // simulate_metadata must be false on both.  With a client layer,
  // client.block_size must equal server.block_size and the page-in flags
  // must agree (one trace-side decision); without one, the client's block
  // size and page-in flag are unused and need not match the server's.
  CacheConfig client;
  CacheConfig server;

  bool has_clients() const { return client.size_bytes > 0; }
  bool simulate_execve_pagein() const { return server.simulate_execve_pagein; }
  std::string ToString() const;
};

struct HierarchyMetrics {
  size_t client_count = 0;           // 0 in the degenerate no-client topology
  std::vector<CacheMetrics> clients; // one per fleet instance
  CacheMetrics client_total;         // clients summed (residency merged in order)
  CacheMetrics server;

  // Logical accesses presented to the top of the hierarchy.
  uint64_t LogicalAccesses() const {
    return client_count > 0 ? client_total.logical_accesses : server.logical_accesses;
  }
  // Disk I/Os leave from the bottom: the server's fetches + write-backs.
  uint64_t DiskIos() const { return server.DiskIos(); }
  double GlobalMissRatio() const {
    const uint64_t logical = LogicalAccesses();
    return logical > 0 ? static_cast<double>(DiskIos()) / static_cast<double>(logical) : 0.0;
  }
  // Fraction of client block accesses served without touching the server.
  double ClientHitRatio() const {
    return client_total.logical_accesses > 0
               ? 1.0 - static_cast<double>(server.logical_accesses) /
                           static_cast<double>(client_total.logical_accesses)
               : 0.0;
  }
};

// Drives one hierarchy over an instance-attributed replay.  Mirrors
// CacheSimulator's trace semantics exactly (extent table or feeds, feed
// slot consumption, invalidation rules) so the no-client topology is
// bit-identical to the single-level simulator.
class HierarchySimulator final {
 public:
  // `client_count` clients (clamped up to 1 when the config has a client
  // layer); pass ReplayLog::instance_count() for fleet traces.
  HierarchySimulator(const HierarchyConfig& config, size_t client_count);

  // Same contracts as CacheSimulator.
  void ReserveFiles(size_t file_count);
  void SetExtentFeeds(const uint64_t* transfer_feed, const uint64_t* execve_feed) {
    transfer_extent_feed_ = transfer_feed;
    execve_extent_feed_ = execve_feed;
  }

  // Instance-attributed sink (ReplayDataEventsWithInstancesInto).
  void OnTransferFrom(uint16_t instance, const Transfer& t) {
    const bool is_write = t.direction == TransferDirection::kWrite;
    if (transfer_extent_feed_ != nullptr) {
      // One feed slot per transfer, zero-length included (see CacheSimulator).
      const uint64_t extent = transfer_extent_feed_[transfer_feed_pos_++];
      if (t.length > 0) {
        AccessBlocks(instance, t.time, t.file_id, t.offset, t.length, is_write, extent);
      }
    } else {
      Access(instance, t.time, t.file_id, t.offset, t.length, is_write);
    }
  }
  void OnRecordFrom(uint16_t instance, const TraceRecord& record);

  // Plain-sink compatibility (untagged replays): everything is instance 0.
  void OnTransfer(const Transfer& t) { OnTransferFrom(0, t); }
  void OnRecord(const TraceRecord& r) { OnRecordFrom(0, r); }

  void Finish();

  const CacheMetrics& server_metrics() const { return server_.metrics(); }
  size_t client_count() const { return clients_.size(); }
  const CacheMetrics& client_metrics(size_t i) const { return clients_[i].metrics(); }
  const HierarchyConfig& config() const { return config_; }

  // Assembles the per-level metrics (call after Finish).
  HierarchyMetrics Collect() const;

 private:
  using ServerLevel = CacheLevel<DiskBelow>;

  // The below-policy wiring a client level into the shared server level.
  struct ServerLink {
    ServerLevel* server = nullptr;
    void OnFetch(SimTime now, const BlockKey& key) {
      // The server must supply the block: a read access.  Reads always
      // fetch on a server miss, so the extent argument is irrelevant.
      server->AccessBlock(now, key, /*is_write=*/false, /*whole_block=*/false, 0);
    }
    void OnWriteBack(SimTime now, const BlockKey& key) {
      // The client holds the block's full current contents: a whole-block
      // write, which never fetches to complete.
      server->AccessBlock(now, key, /*is_write=*/true, /*whole_block=*/true, 0);
    }
  };
  using ClientLevel = CacheLevel<ServerLink>;

  ClientLevel& ClientFor(uint16_t instance) {
    return clients_[instance < clients_.size() ? instance : 0];
  }

  void Access(uint16_t instance, SimTime now, FileId file, uint64_t offset,
              uint64_t length, bool is_write);
  void AccessBlocks(uint16_t instance, SimTime now, FileId file, uint64_t offset,
                    uint64_t length, bool is_write, uint64_t extent) {
    if (clients_.empty()) {
      server_.AccessBlocks(now, file, offset, length, is_write, extent);
      return;
    }
    // Server clock first: its flush epochs due before `now` fire before the
    // new traffic this event forwards down.
    server_.AdvanceClock(now);
    ClientFor(instance).AccessBlocks(now, file, offset, length, is_write, extent);
  }
  void InvalidateFrom(SimTime now, FileId file, uint64_t first_byte);

  HierarchyConfig config_;
  ServerLevel server_;
  // deque: CacheLevel is immovable (BlockCache pins itself), and deque
  // never relocates constructed elements.
  std::deque<ClientLevel> clients_;
  FlatMap<FileId, uint64_t, IdHash> known_extent_{kInvalidFileId};
  const uint64_t* transfer_extent_feed_ = nullptr;
  const uint64_t* execve_extent_feed_ = nullptr;
  size_t transfer_feed_pos_ = 0;
  size_t execve_feed_pos_ = 0;
};

// Replays `log` through one hierarchy (clients = log.instance_count() when
// the config has a client layer).  The feed choice mirrors SimulateCache.
HierarchyMetrics SimulateHierarchy(const ReplayLog& log, const HierarchyConfig& config);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_HIERARCHY_H_

// Client/server cache hierarchy simulation — the §7 question the paper
// poses but never answers: networked file systems will put a block cache on
// every client machine in front of a shared server cache; how do the two
// sizes and the client write policy trade off?
//
// Topology: each fleet instance (attributed per event via the v3/v4 fleet
// tag in the trace header — ReplayLog::ReplayDataEventsWithInstancesInto)
// owns a client CacheLevel; client miss fetches and write-backs become
// block accesses on one shared server CacheLevel (the ServerLink
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
//   * client.size_bytes == 0 removes the client layer entirely: the shared
//     replay front end (cache_level.h) drives the server level exactly as
//     it drives a lone CacheLevel, making the degenerate hierarchy bit-
//     identical to the single-level simulator with the server config, which
//     HierarchyDegenerate.* and HierarchySweep.* check.
//
// One replay, many server sizes: clients get no feedback from the server,
// so the stream a client layer sends down does not depend on the server
// config.  A simulator may therefore carry several server levels behind one
// client layer: ServerLink forwards every fetch and write-back to each
// server in order, and clock advances, invalidations and Finish reach every
// server the same way.  Each server receives exactly the ordered calls it
// would receive alone, so Collect(k) is bit-identical to a one-server
// replay of {client, servers[k]} — SimulateHierarchy, the per-row reference
// twin RunHierarchySweep checks a fanned-out row against.
//
// Metadata simulation is not supported (client-local i-node state has no
// defined server semantics here); both levels must share a block size.

#ifndef BSDTRACE_SRC_CACHE_HIERARCHY_H_
#define BSDTRACE_SRC_CACHE_HIERARCHY_H_

#include <deque>
#include <string>
#include <vector>

#include "src/cache/cache_level.h"
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

// Drives one client layer and one or more server levels over an instance-
// attributed replay.  The replay front end (cache_level.h) supplies the
// trace semantics — extent feeds, which records invalidate, page-in —
// exactly as it does for a single CacheLevel, so the no-client topology is
// bit-identical to the single-level simulator; this class only routes the
// front end's hooks.
class HierarchySimulator final : public ReplayFrontEnd<HierarchySimulator> {
 public:
  // One row: `config`'s client layer over its one server.  `client_count`
  // clients (clamped up to 1 when the config has a client layer); pass
  // ReplayLog::instance_count() for fleet traces.
  HierarchySimulator(const HierarchyConfig& config, size_t client_count);
  // One client layer (none when client.size_bytes == 0) fanned out to every
  // config in `servers` (nonempty; all agree on page-in, and with a client
  // layer each matches client.block_size and client.simulate_execve_pagein).
  HierarchySimulator(const CacheConfig& client, const std::vector<CacheConfig>& servers,
                     size_t client_count);
  // ServerLink points at servers_: the simulator cannot move.
  HierarchySimulator(const HierarchySimulator&) = delete;
  HierarchySimulator& operator=(const HierarchySimulator&) = delete;

  // Front-end hooks.  A transfer goes to the delivering instance's client
  // (the server clocks advance first, so their flush epochs due before
  // `now` fire before the new traffic the client forwards down).
  void AccessBlocks(SimTime now, FileId file, uint64_t offset, uint64_t length, bool is_write,
                    uint64_t extent) {
    if (clients_.empty()) {
      for (ServerLevel& server : servers_) {
        server.AccessBlocks(now, file, offset, length, is_write, extent);
      }
      return;
    }
    AdvanceServers(now);
    ClientFor(instance()).AccessBlocks(now, file, offset, length, is_write, extent);
  }
  // Fans out to every client and every server.
  void Invalidate(SimTime now, FileId file, uint64_t first_byte);
  // The owning client follows its own event stream; the servers follow the
  // global stream.
  void AdvanceClock(SimTime now) {
    AdvanceServers(now);
    if (!clients_.empty()) {
      ClientFor(instance()).AdvanceClock(now);
    }
  }
  void Finish();

  // Assembles the per-level metrics of the row over server `server`, an
  // index into the constructor's server list (call after Finish).
  HierarchyMetrics Collect(size_t server = 0) const;

 private:
  using ServerLevel = CacheLevel<DiskBelow>;

  // The below-policy wiring a client level into the server levels.
  struct ServerLink {
    std::deque<ServerLevel>* servers = nullptr;
    void OnFetch(SimTime now, const BlockKey& key) {
      // The server must supply the block: a read access.  Reads always
      // fetch on a server miss, so the extent argument is irrelevant.
      for (ServerLevel& server : *servers) {
        server.AccessBlock(now, key, /*is_write=*/false, /*whole_block=*/false, 0);
      }
    }
    void OnWriteBack(SimTime now, const BlockKey& key) {
      // The client holds the block's full current contents: a whole-block
      // write, which never fetches to complete.
      for (ServerLevel& server : *servers) {
        server.AccessBlock(now, key, /*is_write=*/true, /*whole_block=*/true, 0);
      }
    }
  };
  using ClientLevel = CacheLevel<ServerLink>;

  ClientLevel& ClientFor(uint16_t instance) {
    return clients_[instance < clients_.size() ? instance : 0];
  }
  void AdvanceServers(SimTime now) {
    for (ServerLevel& server : servers_) {
      server.AdvanceClock(now);
    }
  }

  // deques: CacheLevel is immovable (BlockCache pins itself), and deque
  // never relocates constructed elements.
  std::deque<ServerLevel> servers_;
  std::deque<ClientLevel> clients_;
};

// Replays `log` through one hierarchy row (clients = log.instance_count()
// when the config has a client layer).
HierarchyMetrics SimulateHierarchy(const ReplayLog& log, const HierarchyConfig& config);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_CACHE_HIERARCHY_H_

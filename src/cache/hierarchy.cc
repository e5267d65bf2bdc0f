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
    : HierarchySimulator(config.client, {config.server}, client_count) {}

HierarchySimulator::HierarchySimulator(const CacheConfig& client,
                                       const std::vector<CacheConfig>& servers,
                                       size_t client_count)
    : ReplayFrontEnd(servers.front().simulate_execve_pagein) {
  assert(!client.simulate_metadata);
  for (const CacheConfig& server : servers) {
    assert(!server.simulate_metadata &&
           server.simulate_execve_pagein == servers.front().simulate_execve_pagein);
    assert(client.size_bytes == 0 ||
           (client.block_size == server.block_size &&
            client.simulate_execve_pagein == server.simulate_execve_pagein));
    servers_.emplace_back(server);
  }
  if (client.size_bytes > 0) {
    const size_t n = std::max<size_t>(1, client_count);
    for (size_t i = 0; i < n; ++i) {
      clients_.emplace_back(client, ServerLink{&servers_});
    }
  }
}

void HierarchySimulator::Invalidate(SimTime now, FileId file, uint64_t first_byte) {
  if (clients_.empty()) {
    for (ServerLevel& server : servers_) {
      server.Invalidate(now, file, first_byte);
    }
    return;
  }
  AdvanceServers(now);
  // Fan-out: every client drops the file's blocks (dirty ones silently —
  // their write-backs never reach the servers), then each server drops its
  // copy.  Invalidate also advances each client's clock, so pending flush
  // scans fire before the removal.
  for (ClientLevel& client : clients_) {
    client.Invalidate(now, file, first_byte);
  }
  for (ServerLevel& server : servers_) {
    server.Invalidate(now, file, first_byte);
  }
}

void HierarchySimulator::Finish() {
  // Clients first: their right-censored residency uses their own clocks.
  // Dirty blocks are NOT flushed down — at every level the trace simply
  // ended (the single-level convention, applied per level).
  for (ClientLevel& client : clients_) {
    client.Finish();
  }
  for (ServerLevel& server : servers_) {
    server.Finish();
  }
}

HierarchyMetrics HierarchySimulator::Collect(size_t server) const {
  assert(server < servers_.size());
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
  out.server = servers_[server].metrics();
  return out;
}

HierarchyMetrics SimulateHierarchy(const ReplayLog& log, const HierarchyConfig& config) {
  HierarchySimulator sim(config, log.instance_count());
  sim.Replay(log);
  return sim.Collect();
}

}  // namespace bsdtrace

#include "src/cache/hierarchy.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "src/util/stats.h"

namespace bsdtrace {

std::string HierarchyConfig::ToString() const {
  if (!has_clients()) {
    return "no client / " + server.ToString() + " server";
  }
  return client.ToString() + " client / " + server.ToString() + " server";
}

namespace {

// The server level for `servers`: one nested level holding all of them, or
// a plain CacheLevel for exactly one.
template <typename Server>
Server MakeServer(const std::vector<CacheConfig>& servers) {
  if constexpr (std::is_same_v<Server, FusedCacheSimulator>) {
    return Server(servers);
  } else {
    assert(servers.size() == 1);
    return Server(servers.front());
  }
}

CacheMetrics ServerMetrics(const FusedCacheSimulator& server, size_t k) {
  return server.Metrics(k);
}
CacheMetrics ServerMetrics(const CacheLevel<>& server, size_t) { return server.metrics(); }

}  // namespace

template <typename Server>
BasicHierarchySimulator<Server>::BasicHierarchySimulator(const HierarchyConfig& config,
                                                         size_t client_count)
    : BasicHierarchySimulator(config.client, {config.server}, client_count) {}

template <typename Server>
BasicHierarchySimulator<Server>::BasicHierarchySimulator(const CacheConfig& client,
                                                         const std::vector<CacheConfig>& servers,
                                                         size_t client_count)
    : ReplayFrontEnd<BasicHierarchySimulator>(servers.front().simulate_execve_pagein),
      server_(MakeServer<Server>(servers)) {
  assert(!client.simulate_metadata);
  assert(client.size_bytes == 0 ||
         std::all_of(servers.begin(), servers.end(), [&client](const CacheConfig& server) {
           return client.block_size == server.block_size &&
                  client.simulate_execve_pagein == server.simulate_execve_pagein;
         }));
  if (client.size_bytes > 0) {
    const size_t n = std::max<size_t>(1, client_count);
    for (size_t i = 0; i < n; ++i) {
      clients_.emplace_back(client, ServerLink{&server_});
    }
  }
}

template <typename Server>
void BasicHierarchySimulator<Server>::Invalidate(SimTime now, FileId file, uint64_t first_byte) {
  if (clients_.empty()) {
    server_.Invalidate(now, file, first_byte);
    return;
  }
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

template <typename Server>
void BasicHierarchySimulator<Server>::Finish() {
  // Clients first: their right-censored residency uses their own clocks.
  // Dirty blocks are NOT flushed down — at every level the trace simply
  // ended (the single-level convention, applied per level).
  for (ClientLevel& client : clients_) {
    client.Finish();
  }
  server_.Finish();
}

template <typename Server>
HierarchyMetrics BasicHierarchySimulator<Server>::Collect(size_t server) const {
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
  out.server = ServerMetrics(server_, server);
  return out;
}

template class BasicHierarchySimulator<FusedCacheSimulator>;
template class BasicHierarchySimulator<CacheLevel<>>;

HierarchyMetrics SimulateHierarchy(const ReplayLog& log, const HierarchyConfig& config) {
  ReferenceHierarchySimulator sim(config, log.instance_count());
  sim.Replay(log);
  return sim.Collect();
}

}  // namespace bsdtrace

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
    : ReplayFrontEnd(config.simulate_execve_pagein()), server_(config.server) {
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

void HierarchySimulator::Invalidate(SimTime now, FileId file, uint64_t first_byte) {
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
  sim.Replay(log);
  return sim.Collect();
}

}  // namespace bsdtrace

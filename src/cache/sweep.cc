#include "src/cache/sweep.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <tuple>

namespace bsdtrace {

CacheMetrics SimulateCache(const Trace& trace, const CacheConfig& config,
                           BillingPolicy billing) {
  CacheSimulator sim(config);
  Reconstruct(trace, &sim, billing);
  sim.Finish();
  return sim.metrics();
}

CacheMetrics SimulateCache(const ReplayLog& log, const CacheConfig& config) {
  if (config.simulate_metadata) {
    // Metadata simulation reads open/close records, which only the full
    // stream carries: the reference simulator replays it.
    CacheSimulator sim(config);
    sim.ReserveFiles(log.distinct_files());
    log.ReplayInto(sim);
    sim.Finish();
    return sim.metrics();
  }
  CacheLevel<> level(config);
  level.Replay(log);
  return level.metrics();
}

namespace {

// Runs `work` items on `threads` workers (0 = hardware concurrency) with a
// work-stealing counter.  Workers only need atomicity of the claim itself,
// not ordering against each other's writes (each item writes disjoint
// state, and thread join supplies the final synchronization).
void RunWorkItems(std::vector<std::function<void()>>& work, unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<unsigned>(threads, static_cast<unsigned>(work.size()));
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= work.size()) {
        return;
      }
      work[i]();
    }
  };
  if (threads <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

}  // namespace

std::vector<SweepPoint> RunCacheSweep(const ReplayLog& log,
                                      const std::vector<CacheConfig>& configs,
                                      unsigned threads) {
  std::vector<SweepPoint> points(configs.size());
  std::vector<std::function<void()>> work;
  work.reserve(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    points[i].config = configs[i];
    work.push_back([&, i]() { points[i].metrics = SimulateCache(log, configs[i]); });
  }
  RunWorkItems(work, threads);
  return points;
}

namespace {

constexpr uint64_t kKb = 1024;
constexpr uint64_t kMb = 1024 * 1024;

}  // namespace

std::vector<CacheConfig> Fig5Configs() {
  // 390 KB is the paper's "UNIX" point (about 10% of a 4 MB machine).
  const uint64_t sizes[] = {390 * kKb, 1 * kMb, 2 * kMb, 4 * kMb, 8 * kMb, 16 * kMb};
  std::vector<CacheConfig> configs;
  for (uint64_t size : sizes) {
    for (int p = 0; p < 4; ++p) {
      CacheConfig c;
      c.size_bytes = size;
      c.block_size = 4096;
      switch (p) {
        case 0:
          c.policy = WritePolicy::kWriteThrough;
          break;
        case 1:
          c.policy = WritePolicy::kFlushBack;
          c.flush_interval = Duration::Seconds(30);
          break;
        case 2:
          c.policy = WritePolicy::kFlushBack;
          c.flush_interval = Duration::Minutes(5);
          break;
        default:
          c.policy = WritePolicy::kDelayedWrite;
          break;
      }
      configs.push_back(c);
    }
  }
  return configs;
}

std::vector<CacheConfig> Fig6Configs() {
  const uint32_t block_sizes[] = {1 * kKb, 2 * kKb, 4 * kKb, 8 * kKb, 16 * kKb, 32 * kKb};
  const uint64_t cache_sizes[] = {400 * kKb, 2 * kMb, 4 * kMb, 8 * kMb};
  std::vector<CacheConfig> configs;
  for (uint64_t cache : cache_sizes) {
    for (uint32_t block : block_sizes) {
      CacheConfig c;
      c.size_bytes = cache;
      c.block_size = block;
      c.policy = WritePolicy::kDelayedWrite;
      configs.push_back(c);
    }
  }
  return configs;
}

std::vector<uint64_t> SweepCurveSizes() {
  // Quarter-octave steps: the stack pass answers every capacity from one
  // replay, so the sampled axis costs nothing extra — only table height.
  return {256 * kKb,     320 * kKb,     390 * kKb,     448 * kKb, 512 * kKb,
          640 * kKb,     768 * kKb,     896 * kKb,     1 * kMb,   5 * kMb / 4,
          3 * kMb / 2,   7 * kMb / 4,   2 * kMb,       5 * kMb / 2,
          3 * kMb,       7 * kMb / 2,   4 * kMb,       5 * kMb,   6 * kMb,
          7 * kMb,       8 * kMb,       10 * kMb,      12 * kMb,  14 * kMb,
          16 * kMb};
}

namespace {

// The nested family of a single-level config: configs with equal keys
// replay once, through one FusedCacheSimulator.  LRU configs of every size
// and write policy share a family (inclusion); under another replacement
// policy only equal sizes do.
using FamilyKey = std::tuple<uint32_t, bool, int, uint64_t>;
FamilyKey NestedFamily(const CacheConfig& c) {
  const bool lru = c.replacement == ReplacementPolicy::kLru;
  return {c.block_size, c.simulate_execve_pagein, static_cast<int>(c.replacement),
          lru ? 0 : c.size_bytes};
}

// Replays one nested family: member j's metrics to members[j].
std::vector<CacheMetrics> ReplayNested(const ReplayLog& log,
                                       const std::vector<CacheConfig>& configs,
                                       const std::vector<size_t>& members) {
  std::vector<CacheConfig> family;
  family.reserve(members.size());
  for (const size_t i : members) {
    family.push_back(configs[i]);
  }
  FusedCacheSimulator sim(family);
  sim.Replay(log);
  std::vector<CacheMetrics> out;
  out.reserve(members.size());
  for (size_t j = 0; j < members.size(); ++j) {
    out.push_back(sim.Metrics(j));
  }
  return out;
}

uint64_t BlocksFor(uint64_t size_bytes, uint32_t block_size) {
  return std::max<uint64_t>(1, size_bytes / block_size);
}

}  // namespace

PlannedSweep RunPlannedSweep(const ReplayLog& log, const std::vector<CacheConfig>& configs,
                             std::vector<uint64_t> curve_sizes, unsigned threads) {
  PlannedSweep result;
  result.points.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    result.points[i].config = configs[i];
  }
  if (configs.empty()) {
    return result;
  }
  if (curve_sizes.empty()) {
    curve_sizes = SweepCurveSizes();
  }

  // Every non-metadata config replays in its nested family (NestedFamily):
  // one replay per (block size, page-in) LRU family serves every size and
  // write policy in it, and each LRU family also gets one Mattson pass.
  // Metadata configs fall back to per-config replays.
  struct Family {
    uint32_t block_size = 4096;
    bool pagein = false;
    std::vector<size_t> members;
  };
  std::map<FamilyKey, std::vector<size_t>> by_nested;
  std::vector<size_t> fallbacks;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].simulate_metadata) {
      fallbacks.push_back(i);
    } else {
      by_nested[NestedFamily(configs[i])].push_back(i);
    }
  }
  std::vector<std::vector<size_t>> nested;
  std::vector<Family> families;  // the LRU ones, one Mattson pass each
  for (auto& [key, members] : by_nested) {
    const CacheConfig& c = configs[members.front()];
    if (c.replacement == ReplacementPolicy::kLru) {
      families.push_back({c.block_size, c.simulate_execve_pagein, members});
    }
    nested.push_back(std::move(members));
  }
  result.curves.resize(families.size());
  result.stack_passes = families.size();
  result.fused_replays = nested.size();
  result.replay_fallbacks = fallbacks.size();

  std::vector<std::function<void()>> work;
  work.reserve(families.size() + nested.size() + fallbacks.size());
  // Mattson passes first: they are the largest indivisible items, so an
  // early start minimizes the parallel makespan.
  for (size_t g = 0; g < families.size(); ++g) {
    work.push_back([&, g]() {
      const Family& group = families[g];
      SweepCurve& curve = result.curves[g];
      curve.block_size = group.block_size;
      curve.simulate_execve_pagein = group.pagein;
      curve.size_bytes = curve_sizes;
      for (const size_t i : group.members) {
        curve.size_bytes.push_back(configs[i].size_bytes);
      }
      std::sort(curve.size_bytes.begin(), curve.size_bytes.end());
      curve.size_bytes.erase(std::unique(curve.size_bytes.begin(), curve.size_bytes.end()),
                             curve.size_bytes.end());
      // The pass only needs depth up to the family's largest queried size.
      StackDistanceAnalyzer::Options opt;
      opt.simulate_execve_pagein = group.pagein;
      opt.max_capacity = BlocksFor(curve.size_bytes.back(), group.block_size);
      StackDistanceAnalyzer analyzer(group.block_size, opt);
      analyzer.Replay(log);
      curve.profile = analyzer.Take();
      curve.fetch_misses.reserve(curve.size_bytes.size());
      curve.fetch_miss_ratios.reserve(curve.size_bytes.size());
      for (const uint64_t size : curve.size_bytes) {
        const uint64_t blocks = BlocksFor(size, group.block_size);
        curve.fetch_misses.push_back(curve.profile.FetchMissesAt(blocks));
        curve.fetch_miss_ratios.push_back(curve.profile.FetchMissRatioAt(blocks));
      }
    });
  }
  for (size_t g = 0; g < nested.size(); ++g) {
    work.push_back([&, g]() {
      const std::vector<size_t>& members = nested[g];
      const std::vector<CacheMetrics> metrics = ReplayNested(log, configs, members);
      for (size_t j = 0; j < members.size(); ++j) {
        result.points[members[j]].metrics = metrics[j];
      }
    });
  }
  for (const size_t i : fallbacks) {
    work.push_back([&, i]() { result.points[i].metrics = SimulateCache(log, configs[i]); });
  }
  RunWorkItems(work, threads);

  // Engine cross-check: the single-pass curve must reproduce every replayed
  // access count and fetch-miss cell bit-for-bit.
  for (size_t g = 0; g < families.size(); ++g) {
    const StackDistanceProfile& profile = result.curves[g].profile;
    for (const size_t i : families[g].members) {
      const CacheMetrics& m = result.points[i].metrics;
      if (profile.total_accesses() != m.logical_accesses ||
          profile.FetchMissesAt(configs[i].block_count()) != m.disk_reads) {
        result.parity = false;
      }
    }
  }
  return result;
}

bool CacheMetricsBitIdentical(const CacheMetrics& a, const CacheMetrics& b) {
  return a.logical_accesses == b.logical_accesses && a.read_accesses == b.read_accesses &&
         a.write_accesses == b.write_accesses && a.metadata_accesses == b.metadata_accesses &&
         a.disk_reads == b.disk_reads && a.disk_writes == b.disk_writes &&
         a.dirty_discarded == b.dirty_discarded && a.evictions == b.evictions &&
         a.residency_over_20min == b.residency_over_20min &&
         a.residency_samples == b.residency_samples &&
         a.residency_seconds.sum() == b.residency_seconds.sum() &&
         a.residency_seconds.variance() == b.residency_seconds.variance() &&
         a.residency_seconds.min() == b.residency_seconds.min() &&
         a.residency_seconds.max() == b.residency_seconds.max();
}

std::vector<HierarchyConfig> HierarchySweepConfigs() {
  const uint64_t client_sizes[] = {0, 256 * kKb, 1 * kMb, 4 * kMb};
  const uint64_t server_sizes[] = {1 * kMb, 2 * kMb, 4 * kMb, 8 * kMb, 16 * kMb};
  std::vector<HierarchyConfig> configs;
  for (uint64_t client : client_sizes) {
    for (uint64_t server : server_sizes) {
      for (int p = 0; p < 3; ++p) {
        HierarchyConfig h;
        h.client.size_bytes = client;
        h.server.size_bytes = server;
        h.server.policy = WritePolicy::kDelayedWrite;
        h.client.policy = WritePolicy::kDelayedWrite;
        // The swept policy lands on the clients; with no client layer it
        // falls through to the server (the single-level baseline).
        CacheConfig& swept = client > 0 ? h.client : h.server;
        switch (p) {
          case 0:
            swept.policy = WritePolicy::kWriteThrough;
            break;
          case 1:
            swept.policy = WritePolicy::kFlushBack;
            swept.flush_interval = Duration::Seconds(30);
            break;
          default:
            swept.policy = WritePolicy::kDelayedWrite;
            break;
        }
        configs.push_back(h);
      }
    }
  }
  return configs;
}

bool HierarchyMetricsBitIdentical(const HierarchyMetrics& a, const HierarchyMetrics& b) {
  if (a.client_count != b.client_count || a.clients.size() != b.clients.size()) {
    return false;
  }
  for (size_t c = 0; c < a.clients.size(); ++c) {
    if (!CacheMetricsBitIdentical(a.clients[c], b.clients[c])) {
      return false;
    }
  }
  return CacheMetricsBitIdentical(a.client_total, b.client_total) &&
         CacheMetricsBitIdentical(a.server, b.server);
}

HierarchySweepResult RunHierarchySweep(const ReplayLog& log,
                                       const std::vector<HierarchyConfig>& configs,
                                       unsigned threads) {
  HierarchySweepResult result;
  result.points.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    result.points[i].config = configs[i];
  }
  if (configs.empty()) {
    return result;
  }

  // Client-0 rows are single-level server replays: each nested family of
  // server configs replays once, exactly like RunPlannedSweep.  Client-
  // bearing rows sharing one client config and one server family share one
  // client replay: clients get no feedback from the server, so every server
  // config of the group sees the same stream, served by one nested level.
  std::vector<CacheConfig> servers(configs.size());
  std::map<FamilyKey, std::vector<size_t>> by_server;
  std::map<std::tuple<uint64_t, uint32_t, int, int64_t, int, bool, FamilyKey>,
           std::vector<size_t>>
      by_client;
  for (size_t i = 0; i < configs.size(); ++i) {
    const CacheConfig& c = configs[i].client;
    servers[i] = configs[i].server;
    if (configs[i].has_clients()) {
      by_client[{c.size_bytes, c.block_size, static_cast<int>(c.policy),
                 c.flush_interval.micros(), static_cast<int>(c.replacement),
                 c.simulate_execve_pagein, NestedFamily(configs[i].server)}]
          .push_back(i);
    } else {
      by_server[NestedFamily(configs[i].server)].push_back(i);
    }
  }
  std::vector<std::vector<size_t>> client_groups;
  client_groups.reserve(by_client.size());
  for (auto& [key, members] : by_client) {
    client_groups.push_back(std::move(members));
  }
  std::vector<std::vector<size_t>> server_groups;
  server_groups.reserve(by_server.size());
  for (auto& [key, members] : by_server) {
    server_groups.push_back(std::move(members));
  }
  result.fused_replays = server_groups.size();
  result.hierarchy_replays = client_groups.size();

  // Cross-engine gates, compared after the join.  One reference CacheLevel
  // replay (SimulateCache) per client-0 server size: the first row of each
  // (family, size).  And one reference replay (SimulateHierarchy, a plain
  // CacheLevel server) of a row served by a nested level: the smallest
  // server of the first client group, the size whose evictions the nested
  // level derives rather than leaving to its list.
  std::vector<size_t> reference_rows;
  for (const std::vector<size_t>& members : server_groups) {
    std::vector<uint64_t> seen;
    for (const size_t i : members) {
      if (std::find(seen.begin(), seen.end(), servers[i].size_bytes) == seen.end()) {
        seen.push_back(servers[i].size_bytes);
        reference_rows.push_back(i);
      }
    }
  }
  std::vector<CacheMetrics> references(reference_rows.size());
  const size_t checked_row =
      client_groups.empty()
          ? 0
          : *std::min_element(client_groups.front().begin(), client_groups.front().end(),
                              [&servers](size_t a, size_t b) {
                                return servers[a].size_bytes < servers[b].size_bytes;
                              });
  HierarchyMetrics row_check;

  std::vector<std::function<void()>> work;
  work.reserve(client_groups.size() + server_groups.size() + reference_rows.size() + 1);
  // Hierarchy replays first: each drives a client layer and the server
  // level of its group, the largest indivisible items.
  for (size_t g = 0; g < client_groups.size(); ++g) {
    work.push_back([&, g]() {
      const std::vector<size_t>& members = client_groups[g];
      std::vector<CacheConfig> group_servers;
      group_servers.reserve(members.size());
      for (const size_t i : members) {
        group_servers.push_back(servers[i]);
      }
      HierarchySimulator sim(configs[members.front()].client, group_servers,
                             log.instance_count());
      sim.Replay(log);
      for (size_t k = 0; k < members.size(); ++k) {
        result.points[members[k]].metrics = sim.Collect(k);
      }
    });
  }
  if (!client_groups.empty()) {
    work.push_back([&]() { row_check = SimulateHierarchy(log, configs[checked_row]); });
  }
  for (size_t g = 0; g < server_groups.size(); ++g) {
    work.push_back([&, g]() {
      const std::vector<size_t>& members = server_groups[g];
      const std::vector<CacheMetrics> metrics = ReplayNested(log, servers, members);
      for (size_t j = 0; j < members.size(); ++j) {
        HierarchyMetrics& m = result.points[members[j]].metrics;
        m.client_count = 0;
        m.server = metrics[j];
      }
    });
  }
  for (size_t r = 0; r < reference_rows.size(); ++r) {
    work.push_back([&, r]() { references[r] = SimulateCache(log, servers[reference_rows[r]]); });
  }
  RunWorkItems(work, threads);

  for (size_t r = 0; r < reference_rows.size(); ++r) {
    if (!CacheMetricsBitIdentical(references[r],
                                  result.points[reference_rows[r]].metrics.server)) {
      result.parity = false;
    }
  }
  if (!client_groups.empty() &&
      !HierarchyMetricsBitIdentical(row_check, result.points[checked_row].metrics)) {
    result.parity = false;
  }
  return result;
}

std::vector<CacheConfig> Fig7Configs() {
  const uint64_t sizes[] = {390 * kKb, 1 * kMb, 2 * kMb, 4 * kMb, 8 * kMb, 16 * kMb};
  std::vector<CacheConfig> configs;
  for (bool pagein : {false, true}) {
    for (uint64_t size : sizes) {
      CacheConfig c;
      c.size_bytes = size;
      c.block_size = 4096;
      c.policy = WritePolicy::kDelayedWrite;
      c.simulate_execve_pagein = pagein;
      configs.push_back(c);
    }
  }
  return configs;
}

}  // namespace bsdtrace

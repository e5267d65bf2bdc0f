#include "src/cache/hierarchy.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/sweep.h"
#include "src/trace/fleet_tag.h"
#include "src/trace/replay_log.h"
#include "src/workload/fleet.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"
#include "src/workload/sharded_generator.h"
#include "tests/testing/trace_builder.h"

namespace bsdtrace {
namespace {

Trace GeneratedTrace(const char* profile, uint64_t seed) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(20);
  options.seed = seed;
  return GenerateTrace(ProfileByName(profile), options).trace;
}

Trace SmallFleetTrace() {
  auto fleet = ParseFleetSpec("2xA5+1xE3");
  FleetGeneratorOptions options;
  options.base.duration = Duration::Minutes(8);
  options.base.seed = 4411;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto result = GenerateFleetTrace(fleet.value(), options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return std::move(result.value().trace);
}

HierarchyConfig MakeHierarchy(uint64_t client_bytes, uint64_t server_bytes,
                              WritePolicy client_policy = WritePolicy::kDelayedWrite) {
  HierarchyConfig h;
  h.client.size_bytes = client_bytes;
  h.client.policy = client_policy;
  h.server.size_bytes = server_bytes;
  h.server.policy = WritePolicy::kDelayedWrite;
  return h;
}

// --- Degenerate topology: client size 0 IS the single-level simulator ------

TEST(HierarchyDegenerate, ClientZeroBitIdenticalToSingleLevel) {
  for (const char* profile : {"A5", "E3", "C4"}) {
    const Trace trace = GeneratedTrace(profile, 7009);
    const ReplayLog log = ReplayLog::Build(trace);
    for (const WritePolicy policy :
         {WritePolicy::kWriteThrough, WritePolicy::kFlushBack, WritePolicy::kDelayedWrite}) {
      HierarchyConfig h = MakeHierarchy(0, 2 << 20);
      h.server.policy = policy;
      const HierarchyMetrics hier = SimulateHierarchy(log, h);
      const CacheMetrics flat = SimulateCache(log, h.server);
      EXPECT_EQ(hier.client_count, 0u);
      EXPECT_TRUE(CacheMetricsBitIdentical(hier.server, flat))
          << profile << " policy " << WritePolicyName(policy);
      EXPECT_EQ(hier.DiskIos(), flat.DiskIos());
      EXPECT_EQ(hier.LogicalAccesses(), flat.logical_accesses);
    }
  }
}

TEST(HierarchyDegenerate, ClientZeroBitIdenticalWithPagein) {
  const Trace trace = GeneratedTrace("A5", 7010);
  const ReplayLog log = ReplayLog::Build(trace);
  HierarchyConfig h = MakeHierarchy(0, 1 << 20);
  h.server.simulate_execve_pagein = true;
  const HierarchyMetrics hier = SimulateHierarchy(log, h);
  const CacheMetrics flat = SimulateCache(log, h.server);
  EXPECT_TRUE(CacheMetricsBitIdentical(hier.server, flat));
}

// --- Client layer semantics ------------------------------------------------

// The client access stream does not depend on the client size (only hits vs
// misses change), so LRU stack inclusion makes client fetch misses monotone
// nonincreasing in client size.
TEST(HierarchyClient, ClientMissesMonotoneInClientSize) {
  const Trace trace = GeneratedTrace("A5", 7011);
  const ReplayLog log = ReplayLog::Build(trace);
  uint64_t prev_reads = ~0ull;
  for (const uint64_t client_bytes : {256ull << 10, 1ull << 20, 4ull << 20}) {
    const HierarchyMetrics m =
        SimulateHierarchy(log, MakeHierarchy(client_bytes, 4 << 20));
    ASSERT_EQ(m.client_count, 1u);
    EXPECT_LE(m.client_total.disk_reads, prev_reads) << client_bytes;
    prev_reads = m.client_total.disk_reads;
    // Every client fetch is a server read access; every client write-back a
    // server write access.  Nothing else reaches the server.
    EXPECT_EQ(m.server.logical_accesses,
              m.client_total.disk_reads + m.client_total.disk_writes);
    EXPECT_EQ(m.server.read_accesses, m.client_total.disk_reads);
    EXPECT_EQ(m.server.write_accesses, m.client_total.disk_writes);
    EXPECT_GE(m.ClientHitRatio(), 0.0);
    EXPECT_LE(m.GlobalMissRatio(), 1.0);
  }
}

// A delayed-write client absorbs overwrites, so the server sees at most the
// write-through client's write traffic.
TEST(HierarchyClient, DelayedWriteClientAbsorbsWrites) {
  const Trace trace = GeneratedTrace("E3", 7012);
  const ReplayLog log = ReplayLog::Build(trace);
  const HierarchyMetrics wt =
      SimulateHierarchy(log, MakeHierarchy(1 << 20, 4 << 20, WritePolicy::kWriteThrough));
  const HierarchyMetrics dw =
      SimulateHierarchy(log, MakeHierarchy(1 << 20, 4 << 20, WritePolicy::kDelayedWrite));
  EXPECT_LE(dw.client_total.disk_writes, wt.client_total.disk_writes);
  EXPECT_LE(dw.server.write_accesses, wt.server.write_accesses);
}

// --- Invalidation fan-out --------------------------------------------------

// Two instances; instance B dirties blocks of a file, instance A unlinks it.
// B's dirty blocks must be discarded (fan-out) without ever reaching the
// server as write-backs.
TEST(HierarchyInvalidation, UnlinkFansOutToAllClients) {
  // Instance 0: users [0, 3]; instance 1: users [4, 7].
  const std::vector<FleetInstanceTag> tags = {{"A5", 0, 2}, {"A5", 4, 2}};
  TraceBuilder b;
  const UserId user_a = 2;  // instance 0
  const UserId user_b = 6;  // instance 1
  b.WholeWrite(1.0, 2.0, /*oid=*/1, /*file=*/10, /*size=*/32768, user_b);
  b.WholeRead(3.0, 4.0, /*oid=*/2, /*file=*/11, /*size=*/4096, user_a);
  b.Unlink(5.0, /*file=*/10, user_a);
  // A trailing event so Finish-time censoring is not the only clock source.
  b.WholeRead(6.0, 7.0, /*oid=*/3, /*file=*/11, /*size=*/4096, user_b);
  Trace trace = b.Build();
  trace.header().description = AppendFleetTag(trace.header().description, tags);

  const ReplayLog log = ReplayLog::Build(trace);
  ASSERT_EQ(log.instance_count(), 2u);

  const HierarchyMetrics m = SimulateHierarchy(log, MakeHierarchy(1 << 20, 4 << 20));
  ASSERT_EQ(m.client_count, 2u);
  // Instance 1 wrote 8 dirty blocks; the unlink discarded them all.
  EXPECT_EQ(m.clients[1].dirty_discarded, 8u);
  EXPECT_EQ(m.clients[1].disk_writes, 0u);
  // The absorbed writes never became server write accesses.
  EXPECT_EQ(m.server.write_accesses, 0u);
  EXPECT_EQ(m.server.disk_writes, 0u);
  // Instance 0 never touched file 10: nothing of its to discard.
  EXPECT_EQ(m.clients[0].dirty_discarded, 0u);
}

// A client flush reaches the server stamped at the client's epoch boundary,
// which lies behind the server clock when the client was idle: instance 0
// dirties a block at 2 s, sleeps through its 30 s flush while instance 1
// moves the server past its 40 s epoch, and flushes at 55 s.  The server
// holds the block dirty in its current epoch, so the unlink at 57 s
// discards it and no flush writes it — on the nested level as on the
// reference CacheLevel.
TEST(HierarchyServer, LateFlushWriteBackLandsInTheServersCurrentEpoch) {
  const std::vector<FleetInstanceTag> tags = {{"A5", 0, 2}, {"A5", 4, 2}};
  TraceBuilder b;
  const UserId user_a = 2;  // instance 0
  const UserId user_b = 6;  // instance 1
  b.WholeWrite(1.0, 2.0, /*oid=*/1, /*file=*/10, /*size=*/4096, user_a);
  b.WholeRead(35.0, 36.0, /*oid=*/2, /*file=*/11, /*size=*/4096, user_b);
  b.WholeRead(50.0, 51.0, /*oid=*/3, /*file=*/11, /*size=*/4096, user_b);
  b.WholeRead(55.0, 56.0, /*oid=*/4, /*file=*/12, /*size=*/4096, user_a);
  b.Unlink(57.0, /*file=*/10, user_a);
  b.WholeRead(65.0, 66.0, /*oid=*/5, /*file=*/11, /*size=*/4096, user_b);
  Trace trace = b.Build();
  trace.header().description = AppendFleetTag(trace.header().description, tags);
  const ReplayLog log = ReplayLog::Build(trace);
  ASSERT_EQ(log.instance_count(), 2u);

  CacheConfig client;
  client.size_bytes = 1 << 20;
  client.policy = WritePolicy::kFlushBack;
  client.flush_interval = Duration::Seconds(30);
  std::vector<CacheConfig> servers(2);
  for (size_t k = 0; k < servers.size(); ++k) {
    servers[k].size_bytes = (k + 1) << 20;
    servers[k].policy = WritePolicy::kFlushBack;
    servers[k].flush_interval = Duration::Seconds(20);
  }
  HierarchySimulator nested(client, servers, log.instance_count());
  nested.Replay(log);
  for (size_t k = 0; k < servers.size(); ++k) {
    const HierarchyMetrics reference = SimulateHierarchy(log, {client, servers[k]});
    EXPECT_EQ(reference.clients[0].disk_writes, 1u);
    EXPECT_EQ(reference.server.write_accesses, 1u);
    EXPECT_EQ(reference.server.dirty_discarded, 1u);
    EXPECT_EQ(reference.server.disk_writes, 0u);
    EXPECT_TRUE(HierarchyMetricsBitIdentical(nested.Collect(k), reference)) << k;
  }
}

// --- Multi-instance routing ------------------------------------------------

TEST(HierarchyRouting, FleetInstancesPartitionTheAccessStream) {
  const Trace trace = SmallFleetTrace();
  const ReplayLog log = ReplayLog::Build(trace);
  ASSERT_EQ(log.instance_count(), 3u);

  const HierarchyMetrics m = SimulateHierarchy(log, MakeHierarchy(512 << 10, 4 << 20));
  ASSERT_EQ(m.client_count, 3u);
  // Every instance generated traffic, and the per-client streams partition
  // exactly the single-level logical access stream.
  uint64_t sum = 0;
  for (const CacheMetrics& c : m.clients) {
    EXPECT_GT(c.logical_accesses, 0u);
    sum += c.logical_accesses;
  }
  const CacheMetrics flat = SimulateCache(log, MakeHierarchy(0, 4 << 20).server);
  EXPECT_EQ(sum, flat.logical_accesses);
  EXPECT_EQ(sum, m.client_total.logical_accesses);
}

TEST(HierarchyRouting, UntaggedTraceGetsOneClient) {
  const Trace trace = GeneratedTrace("A5", 7013);
  const ReplayLog log = ReplayLog::Build(trace);
  EXPECT_TRUE(log.fleet().empty());
  EXPECT_EQ(log.instance_count(), 1u);
  const HierarchyMetrics m = SimulateHierarchy(log, MakeHierarchy(1 << 20, 4 << 20));
  EXPECT_EQ(m.client_count, 1u);
  EXPECT_GT(m.clients[0].logical_accesses, 0u);
}

// --- ReplayLog instance attribution ----------------------------------------

TEST(HierarchyAttribution, EventsCarryTheirInstance) {
  const std::vector<FleetInstanceTag> tags = {{"A5", 0, 2}, {"E3", 4, 2}};
  TraceBuilder b;
  b.WholeRead(1.0, 2.0, 1, 10, 4096, /*user=*/2);   // instance 0
  b.WholeWrite(3.0, 4.0, 2, 11, 4096, /*user=*/6);  // instance 1
  b.Unlink(5.0, 11, /*user=*/5);                    // instance 1
  b.WholeRead(6.0, 7.0, 3, 12, 4096, /*user=*/99);  // outside every range -> 0
  Trace trace = b.Build();
  trace.header().description = AppendFleetTag(trace.header().description, tags);

  const ReplayLog log = ReplayLog::Build(trace);
  ASSERT_EQ(log.fleet().size(), 2u);
  EXPECT_EQ(log.fleet()[1].trace_name, "E3");

  struct Collector {
    std::vector<uint16_t> transfer_instances;
    std::vector<uint16_t> record_instances;
    void OnTransferFrom(uint16_t instance, const Transfer&) {
      transfer_instances.push_back(instance);
    }
    void OnRecordFrom(uint16_t instance, const TraceRecord&) {
      record_instances.push_back(instance);
    }
  } sink;
  log.ReplayDataEventsWithInstancesInto(sink);

  ASSERT_EQ(sink.transfer_instances.size(), 3u);
  EXPECT_EQ(sink.transfer_instances[0], 0u);
  EXPECT_EQ(sink.transfer_instances[1], 1u);
  EXPECT_EQ(sink.transfer_instances[2], 0u);  // user 99: out of range
  // The unlink record is attributed; any trailing clock record is instance 0.
  ASSERT_GE(sink.record_instances.size(), 1u);
  EXPECT_EQ(sink.record_instances[0], 1u);
}

// --- Hierarchy sweep -------------------------------------------------------

TEST(HierarchySweep, GridShapeAndParity) {
  const std::vector<HierarchyConfig> configs = HierarchySweepConfigs();
  // 4 client sizes x 5 server sizes x 3 policies.
  EXPECT_EQ(configs.size(), 60u);

  const Trace trace = GeneratedTrace("A5", 7014);
  const ReplayLog log = ReplayLog::Build(trace);
  const HierarchySweepResult result = RunHierarchySweep(log, configs, /*threads=*/4);
  ASSERT_EQ(result.points.size(), configs.size());
  EXPECT_TRUE(result.parity);
  // The 15 client-0 rows (5 server sizes x 3 policies) are one nested
  // replay; 3 client sizes x 3 client policies are one client replay each,
  // over one nested level serving the 5 server sizes.
  EXPECT_EQ(result.fused_replays, 1u);
  EXPECT_EQ(result.hierarchy_replays, 9u);

  for (size_t i = 0; i < configs.size(); ++i) {
    const HierarchyPoint& p = result.points[i];
    EXPECT_EQ(p.config.client.size_bytes, configs[i].client.size_bytes) << i;
    EXPECT_GT(p.metrics.server.logical_accesses, 0u) << i;
    if (!configs[i].has_clients()) {
      // Nested client-0 rows must equal the direct single-level replay.
      const CacheMetrics flat = SimulateCache(log, configs[i].server);
      EXPECT_TRUE(CacheMetricsBitIdentical(p.metrics.server, flat)) << i;
    } else {
      EXPECT_EQ(p.metrics.client_count, 1u) << i;
    }
  }
}

// A one-hour fleet:2xA5+E3 trace: three instances, so a client layer has
// three clients whose write-backs interleave at the server.
ReplayLog OneHourFleetLog() {
  auto fleet = ParseFleetSpec("fleet:2xA5+E3");
  EXPECT_TRUE(fleet.ok()) << fleet.status().message();
  FleetGeneratorOptions options;
  options.base.duration = Duration::Hours(1);
  options.base.seed = 3017;
  options.shards_per_machine = 2;
  options.threads = 2;
  auto generated = GenerateFleetTrace(fleet.value(), options);
  EXPECT_TRUE(generated.ok()) << generated.status().message();
  return ReplayLog::Build(generated.value().trace);
}

// Every row of the default grid, client-0 or behind a client layer, is
// bit-identical on every level to its own per-row replay on the reference
// twin (SimulateHierarchy: a plain CacheLevel server) — on a fleet trace,
// so each row has several clients whose write-backs interleave at the
// server.
TEST(HierarchySweep, FannedOutRowsMatchPerRowReplay) {
  const ReplayLog log = OneHourFleetLog();
  ASSERT_EQ(log.instance_count(), 3u);

  const std::vector<HierarchyConfig> configs = HierarchySweepConfigs();
  const HierarchySweepResult result = RunHierarchySweep(log, configs, /*threads=*/4);
  ASSERT_EQ(result.points.size(), configs.size());
  EXPECT_TRUE(result.parity);
  EXPECT_EQ(result.hierarchy_replays, 9u);
  for (size_t i = 0; i < configs.size(); ++i) {
    const HierarchyMetrics& fanned = result.points[i].metrics;
    const HierarchyMetrics alone = SimulateHierarchy(log, configs[i]);
    const std::string row = std::to_string(i) + " " + configs[i].ToString();
    ASSERT_EQ(fanned.client_count, alone.client_count) << row;
    EXPECT_EQ(fanned.client_count, configs[i].has_clients() ? 3u : 0u) << row;
    ASSERT_EQ(fanned.clients.size(), alone.clients.size()) << row;
    for (size_t c = 0; c < alone.clients.size(); ++c) {
      EXPECT_TRUE(CacheMetricsBitIdentical(fanned.clients[c], alone.clients[c]))
          << row << " client " << c;
    }
    EXPECT_TRUE(CacheMetricsBitIdentical(fanned.client_total, alone.client_total)) << row;
    EXPECT_TRUE(CacheMetricsBitIdentical(fanned.server, alone.server)) << row;
    EXPECT_TRUE(HierarchyMetricsBitIdentical(fanned, alone)) << row;
    if (!configs[i].has_clients()) {
      // The degenerate topology is the single-level simulator.
      EXPECT_TRUE(CacheMetricsBitIdentical(fanned.server, SimulateCache(log, configs[i].server)))
          << row;
    }
  }
}

// One nested server level behind a client layer against the reference twin,
// under every server write policy and several sizes at once (unsorted, one
// size twice).  The server sees whole-block write-backs stamped at client
// flush epochs, which may lie behind its own clock, from three clients.
TEST(HierarchySweep, NestedServerLevelMatchesReferenceUnderEveryServerPolicy) {
  const ReplayLog log = OneHourFleetLog();
  ASSERT_EQ(log.instance_count(), 3u);
  std::vector<CacheConfig> servers;
  for (const uint64_t size : {uint64_t{2} << 20, uint64_t{1} << 20, uint64_t{8} << 20}) {
    for (const WritePolicy policy :
         {WritePolicy::kWriteThrough, WritePolicy::kFlushBack, WritePolicy::kDelayedWrite}) {
      CacheConfig server;
      server.size_bytes = size;
      server.policy = policy;
      servers.push_back(server);
    }
  }
  servers.push_back(servers.front());
  servers.back().policy = WritePolicy::kFlushBack;
  servers.back().flush_interval = Duration::Minutes(5);
  for (const WritePolicy client_policy :
       {WritePolicy::kWriteThrough, WritePolicy::kFlushBack, WritePolicy::kDelayedWrite}) {
    CacheConfig client;
    client.size_bytes = 256 << 10;
    client.policy = client_policy;
    HierarchySimulator nested(client, servers, log.instance_count());
    nested.Replay(log);
    for (size_t k = 0; k < servers.size(); ++k) {
      const HierarchyConfig row{client, servers[k]};
      const HierarchyMetrics reference = SimulateHierarchy(log, row);
      EXPECT_GT(reference.server.logical_accesses, 0u) << row.ToString();
      EXPECT_TRUE(HierarchyMetricsBitIdentical(nested.Collect(k), reference)) << row.ToString();
    }
  }
}

TEST(HierarchySweep, ThreadCountInvariant) {
  const Trace trace = GeneratedTrace("E3", 7015);
  const ReplayLog log = ReplayLog::Build(trace);
  // A small mixed subset to keep the serial run fast.
  std::vector<HierarchyConfig> configs = {
      MakeHierarchy(0, 1 << 20),
      MakeHierarchy(0, 2 << 20),
      MakeHierarchy(256 << 10, 2 << 20, WritePolicy::kWriteThrough),
      MakeHierarchy(1 << 20, 4 << 20),
  };
  const HierarchySweepResult seq = RunHierarchySweep(log, configs, 1);
  const HierarchySweepResult par = RunHierarchySweep(log, configs, 4);
  ASSERT_EQ(seq.points.size(), par.points.size());
  EXPECT_TRUE(seq.parity);
  EXPECT_TRUE(par.parity);
  for (size_t i = 0; i < seq.points.size(); ++i) {
    EXPECT_TRUE(CacheMetricsBitIdentical(seq.points[i].metrics.server,
                                         par.points[i].metrics.server))
        << i;
    ASSERT_EQ(seq.points[i].metrics.clients.size(), par.points[i].metrics.clients.size());
    for (size_t c = 0; c < seq.points[i].metrics.clients.size(); ++c) {
      EXPECT_TRUE(CacheMetricsBitIdentical(seq.points[i].metrics.clients[c],
                                           par.points[i].metrics.clients[c]))
          << i << ":" << c;
    }
  }
}

TEST(HierarchySweep, EmptyConfigList) {
  const Trace trace = GeneratedTrace("A5", 7016);
  const HierarchySweepResult result = RunHierarchySweep(ReplayLog::Build(trace), {});
  EXPECT_TRUE(result.points.empty());
  EXPECT_TRUE(result.parity);
}

}  // namespace
}  // namespace bsdtrace

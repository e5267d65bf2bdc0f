// Golden single-level cache metrics, captured from the pre-CacheLevel-split
// CacheSimulator (PR 9) on deterministic generated traces.  The CacheLevel
// refactor — and any future reshaping of the cache core — must reproduce
// these numbers bit-for-bit: the parity tests pin replay-vs-direct engines
// against each other, while this test pins both against history.

#include <cstdint>

#include <gtest/gtest.h>

#include "src/cache/sweep.h"
#include "src/trace/replay_log.h"
#include "src/workload/generator.h"
#include "src/workload/profile.h"

namespace bsdtrace {
namespace {

struct GoldenRow {
  const char* profile;
  size_t config;
  uint64_t logical_accesses;
  uint64_t read_accesses;
  uint64_t write_accesses;
  uint64_t disk_reads;
  uint64_t disk_writes;
  uint64_t dirty_discarded;
  uint64_t evictions;
  uint64_t residency_samples;
  double residency_sum_seconds;
};

// The five configurations exercise every policy, page-in, and metadata arm.
std::vector<CacheConfig> GoldenConfigs() {
  std::vector<CacheConfig> configs;
  CacheConfig c;
  c.size_bytes = 400 << 10;
  c.policy = WritePolicy::kDelayedWrite;
  configs.push_back(c);
  c.size_bytes = 2 << 20;
  c.policy = WritePolicy::kWriteThrough;
  configs.push_back(c);
  c.size_bytes = 4 << 20;
  c.policy = WritePolicy::kFlushBack;
  c.flush_interval = Duration::Seconds(30);
  configs.push_back(c);
  c = CacheConfig{};
  c.size_bytes = 1 << 20;
  c.policy = WritePolicy::kDelayedWrite;
  c.simulate_execve_pagein = true;
  configs.push_back(c);
  c = CacheConfig{};
  c.size_bytes = 1 << 20;
  c.policy = WritePolicy::kFlushBack;
  c.flush_interval = Duration::Minutes(5);
  c.simulate_metadata = true;
  configs.push_back(c);
  return configs;
}

// Captured 2026-08 from the pre-refactor simulator at commit "Live trace
// service..." (30-minute traces, seed 19851201).
const GoldenRow kGolden[] = {
    {"A5", 0, 609ull, 288ull, 321ull, 132ull, 6ull, 195ull, 69ull, 364ull, 147472.73000000004},
    {"A5", 1, 609ull, 288ull, 321ull, 129ull, 321ull, 0ull, 0ull, 361ull, 183914.98999999999},
    {"A5", 2, 609ull, 288ull, 321ull, 129ull, 288ull, 14ull, 0ull, 361ull, 183914.98999999999},
    {"A5", 3, 693ull, 372ull, 321ull, 197ull, 0ull, 195ull, 0ull, 429ull, 237616.98000000021},
    {"A5", 4, 1998ull, 884ull, 1114ull, 150ull, 173ull, 95ull, 0ull, 382ull, 212697.28000000009},
    {"E3", 0, 522ull, 204ull, 318ull, 86ull, 9ull, 197ull, 24ull, 321ull, 136903.68000000008},
    {"E3", 1, 522ull, 204ull, 318ull, 86ull, 318ull, 0ull, 0ull, 321ull, 141426.46999999994},
    {"E3", 2, 522ull, 204ull, 318ull, 86ull, 284ull, 15ull, 0ull, 321ull, 141426.46999999994},
    {"E3", 3, 591ull, 273ull, 318ull, 142ull, 0ull, 197ull, 0ull, 377ull, 206942.64999999997},
    {"E3", 4, 1815ull, 696ull, 1119ull, 111ull, 174ull, 97ull, 0ull, 346ull, 178719.09000000003},
    {"C4", 0, 779ull, 400ull, 379ull, 171ull, 19ull, 259ull, 135ull, 495ull, 134960.29000000018},
    {"C4", 1, 779ull, 400ull, 379ull, 152ull, 379ull, 0ull, 0ull, 476ull, 189851.85000000003},
    {"C4", 2, 779ull, 400ull, 379ull, 152ull, 333ull, 40ull, 0ull, 476ull, 189851.85000000003},
    {"C4", 3, 1459ull, 1080ull, 379ull, 702ull, 22ull, 258ull, 511ull, 1026ull, 296591.44000000239},
    {"C4", 4, 2086ull, 892ull, 1194ull, 179ull, 190ull, 161ull, 0ull, 503ull, 226086.49000000005},
};

Trace GoldenTrace(const char* profile) {
  GeneratorOptions options;
  options.duration = Duration::Minutes(30);
  options.seed = 19851201;
  if (std::string(profile) == "A5") {
    return GenerateTrace(ProfileA5(), options).trace;
  }
  if (std::string(profile) == "E3") {
    return GenerateTrace(ProfileE3(), options).trace;
  }
  return GenerateTrace(ProfileC4(), options).trace;
}

void ExpectGolden(const GoldenRow& row, const CacheMetrics& m) {
  SCOPED_TRACE(std::string(row.profile) + " config " + std::to_string(row.config));
  EXPECT_EQ(m.logical_accesses, row.logical_accesses);
  EXPECT_EQ(m.read_accesses, row.read_accesses);
  EXPECT_EQ(m.write_accesses, row.write_accesses);
  EXPECT_EQ(m.disk_reads, row.disk_reads);
  EXPECT_EQ(m.disk_writes, row.disk_writes);
  EXPECT_EQ(m.dirty_discarded, row.dirty_discarded);
  EXPECT_EQ(m.evictions, row.evictions);
  EXPECT_EQ(m.residency_samples, row.residency_samples);
  // Bit-exact: the golden value was printed with %.17g, which round-trips
  // doubles, and the accumulation order is deterministic.
  EXPECT_EQ(m.residency_seconds.sum(), row.residency_sum_seconds);
}

TEST(CacheGolden, SingleLevelMetricsMatchPreRefactorCapture) {
  const std::vector<CacheConfig> configs = GoldenConfigs();
  for (const char* profile : {"A5", "E3", "C4"}) {
    const Trace trace = GoldenTrace(profile);
    const ReplayLog log = ReplayLog::Build(trace);
    for (const GoldenRow& row : kGolden) {
      if (std::string(row.profile) != profile) {
        continue;
      }
      // Both engines — direct reconstruction and replay-log — must hit the
      // golden numbers.
      ExpectGolden(row, SimulateCache(trace, configs[row.config]));
      ExpectGolden(row, SimulateCache(log, configs[row.config]));
    }
  }
}

}  // namespace
}  // namespace bsdtrace

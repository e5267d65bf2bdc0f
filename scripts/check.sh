#!/usr/bin/env bash
# Tier-1 check: configure, build, run the full test suite, then re-run the
# bit-identical guarantees explicitly — the cache nets (replay parity, the
# golden single-level metrics, the nested LRU engine, the planned and
# hierarchy sweeps, the degenerate hierarchy) and sharded-generation
# determinism (the parallel generator).
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
"$BUILD_DIR"/tests/cache_tests \
  --gtest_filter='ReplayParity.*:ReplayLogStats.*:CacheGolden.*:*NestedLru*:PlannedSweep.*:HierarchyDegenerate.*:HierarchySweep.*'
"$BUILD_DIR"/tests/workload_tests --gtest_filter='ShardedGenerator.*:ShardedStream.*'

echo "check.sh: all tests passed"

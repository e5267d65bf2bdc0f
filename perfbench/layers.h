// The per-layer profile of a traced run: each layer's public entry points
// called one at a time over the workload's input, each call a span.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/util/status.h"

namespace perfbench {

// Generates `input`, then times the workload, trace, analysis and cache
// layers over it and appends every per-layer metric to `result`.  Output
// checks failing here count as failed operations.
bsdtrace::Status ProfileLayers(const FleetInput& input, const RunOptions& options,
                               Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

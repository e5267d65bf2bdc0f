// The benchmark's workloads and the fixed inputs they are built from.  Every
// input is generated from the run's --seed; nothing else varies between runs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "perfbench/harness.h"
#include "src/analysis/analyzer.h"
#include "src/trace/trace.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"
#include "src/workload/sharded_generator.h"

namespace perfbench {

// A generated fleet trace: spec, per-machine population, simulated hours,
// and the record count that stored or in-memory inputs are cut to (a prefix
// of the same size for every seed, so operation times compare across seeds;
// 0 keeps every record).
struct FleetInput {
  const char* spec;
  int users;
  double hours;
  uint64_t records;
};

// ingest, analyze and live: four 500-user A5 machines (the ROADMAP baseline
// fleet) over the first simulated hours of the day (540-600 K records).
inline constexpr FleetInput kA5Fleet{"fleet:4xA5", 500, 4.0, 500000};
// sweep: a mixed fleet, so the §7 hierarchy sees four clients whose working
// sets differ against the 256 KB-16 MB simulated caches (315-345 K records).
inline constexpr FleetInput kMixedFleet{"fleet:2xA5+E3+C4", 500, 3.0, 300000};
inline constexpr int kShardsPerMachine = 16;
// Worker threads of every parallel call: half of the 4-core reference box.
// Calls that fill every core of a shared VM time its neighbours' load (a
// 4-thread ingest spread twice as wide from run to run as a 2-thread one).
inline constexpr int kThreads = 2;
// live: offered rate, the number of rings/analyzers fed, and the simulated
// snapshot interval.  The rate is a third of what one RollingAnalyzer
// sustains with 5-minute snapshots, so the 16 K-slot drop-oldest ring rides
// out the longest snapshot publish without dropping.
inline constexpr double kLiveRecordsPerSecond = 250000.0;
inline constexpr int kLiveRings = 2;
inline constexpr bsdtrace::Duration kSnapshotInterval = bsdtrace::Duration::Minutes(5);
// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

// The input a run uses: under --tiny, 40 users per machine and no record cut.
FleetInput Sized(const FleetInput& input, const RunOptions& options);

// Generator options for `input` at the run's seed, spilling into the workdir.
bsdtrace::FleetGeneratorOptions GeneratorOptions(const FleetInput& input,
                                                 const RunOptions& options);

// Parses the fleet spec of `input` (a constant; failure is a program bug).
bsdtrace::FleetProfile Fleet(const FleetInput& input);

// Generates `input` in memory and cuts it to its first input.records records.
bsdtrace::StatusOr<bsdtrace::Trace> GeneratePrefix(const FleetInput& input,
                                                   const RunOptions& options);

// Analyze() options over a trace file at `threads`, and over a trace in memory.
bsdtrace::AnalyzeOptions FileAnalysis(const std::string& path, unsigned threads);
bsdtrace::AnalyzeOptions MemoryAnalysis(const bsdtrace::Trace& trace);

// Samples of one or more open-loop replays (see RunLiveReplay).
struct LiveSamples {
  std::vector<double> lag_ms;            // boundary record due -> on_snapshot
  std::vector<double> publish_ms;        // boundary record popped -> on_snapshot
  std::vector<double> queue_wait_ms;     // record due -> popped (every 16th record)
  std::vector<double> producer_late_ms;  // record due -> pushed (every 16th record)
  uint64_t offered = 0;                  // records offered, summed over rings
  uint64_t dropped = 0;
  uint64_t max_occupancy = 0;
  uint64_t snapshots = 0;
  uint64_t consumed = 0;
  double busy_s = 0.0;  // analyzer time spent processing popped records, summed over rings
  std::vector<bsdtrace::TraceAnalysis> finals;  // last replay, one per ring
};

// One open-loop replay of `trace`: a producer pushes record i at
// start + i / kLiveRecordsPerSecond into kLiveRings drop-oldest rings, each
// drained by a RollingAnalyzer thread with kSnapshotInterval snapshots.
// Appends its samples to `out` and replaces out->finals; spans go under
// `parent` when the tracer is enabled.
void RunLiveReplay(const bsdtrace::Trace& trace, Tracer* tracer, int parent, LiveSamples* out);

// Runs the named workload (ingest, analyze, sweep, live); untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics.  A
// non-ok status means the run could not start (unknown workload, set-up
// failure); failed operations are counted in the result instead.
bsdtrace::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

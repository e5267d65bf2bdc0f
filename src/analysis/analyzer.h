// The analysis front door: every Section-5 analysis — batch over an
// in-memory trace, streaming over any TraceSource (files, merges, live
// rings), segment-parallel over an indexed on-disk trace, and rolling live
// analysis with periodic snapshots — goes through one entry point,
// Analyze(AnalyzeOptions).

#ifndef BSDTRACE_SRC_ANALYSIS_ANALYZER_H_
#define BSDTRACE_SRC_ANALYSIS_ANALYZER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/activity.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/overall.h"
#include "src/analysis/patterns.h"
#include "src/analysis/per_user_activity.h"
#include "src/analysis/sequentiality.h"
#include "src/trace/trace.h"
#include "src/trace/trace_source.h"
#include "src/util/status.h"

namespace bsdtrace {

// How an analysis was actually executed.  Execution metadata, not a result:
// every mode produces bit-identical statistics for the same records, and
// AnalysisBitIdentical ignores it.  Callers asked for a mode they did not
// get (e.g. threads=8 over an index-less v1 file) can now see the fallback
// instead of silently timing the wrong engine.
enum class AnalyzeMode : uint8_t {
  kSerial,    // one streaming pass
  kParallel,  // segment-parallel workers + stitch
  kLive,      // rolling segments with periodic snapshots
};

const char* AnalyzeModeName(AnalyzeMode mode);

// Everything Section 5 of the paper reports about a trace.
struct TraceAnalysis {
  OverallStats overall;            // Table III + §3.1 intervals
  ActivityStats activity;          // Table IV
  PerUserActivityStats per_user;   // Table I per-user activity
  SequentialityStats sequentiality;  // Table V
  RunLengthStats runs;             // Figure 1
  FileSizeStats file_sizes;        // Figure 2
  OpenTimeStats open_times;        // Figure 3
  LifetimeStats lifetimes;         // Figure 4

  // -- Execution metadata (set by Analyze; ignored by AnalysisBitIdentical) --
  AnalyzeMode mode = AnalyzeMode::kSerial;  // the mode that actually ran
  unsigned threads_used = 1;   // concurrent workers that actually ran
  size_t segments_used = 1;    // segments analyzed (1 for a serial pass)
  // Table I band verdicts, one per fleet instance; filled only when
  // AnalyzeOptions::check_bands was set and the header carried a fleet tag.
  std::vector<ActivityBandCheck> band_checks;

  bool bands_ok() const {
    for (const ActivityBandCheck& c : band_checks) {
      if (!c.ok) {
        return false;
      }
    }
    return true;
  }
};

// Options for Analyze().  Exactly ONE of {trace, source, path}
// must be set; everything else tunes how that record stream is analyzed.
struct AnalyzeOptions {
  // -- The record stream (pick one) -------------------------------------
  const Trace* trace = nullptr;          // in-memory records
  TraceSource* source = nullptr;         // any pull stream (file, merge, ring)
  std::string path;                      // trace file on disk

  // -- Execution --------------------------------------------------------
  // Worker threads; 0 means hardware concurrency.  More than one engages
  // the segment-parallel engine when the input is an indexed on-disk trace
  // with enough records; the effective choice is reported in
  // TraceAnalysis::mode.  Streaming-only inputs (trace/source) and rolling
  // runs always analyze serially.
  unsigned threads = 1;

  // -- Rolling snapshots (live mode) ------------------------------------
  // When positive, the analyzer closes a segment at every multiple of this
  // interval of SIMULATED time and invokes on_snapshot with an immutable
  // prefix analysis that is bit-identical to a batch Analyze of the records
  // before that boundary.  Works over any input shape; a ring-backed source
  // makes it the live-daemon path (trace_stream serve).
  Duration snapshot_interval = Duration::Zero();
  // Called once per crossed boundary, in boundary order, from the analyzing
  // thread.  The SimTime argument is the boundary the snapshot covers up to
  // (records with time >= boundary are not included).
  std::function<void(const TraceAnalysis&, SimTime)> on_snapshot;

  // -- Validation -------------------------------------------------------
  // Check each fleet instance's per-user rate against its profile's Table I
  // band and report the verdicts in TraceAnalysis::band_checks.
  bool check_bands = false;
};

// Runs the Section-5 collector set over the configured stream.  Errors —
// no/ambiguous input, or an I/O failure from the underlying source —
// surface as a Status.  Results are bit-identical across every execution
// mode for the same records.
//
// This is the one analysis entry point (the legacy AnalyzeTrace /
// ParallelAnalyzeTrace wrappers are gone); the historical call shapes map
// onto options directly:
//   in-memory trace     Analyze({.trace = &trace})
//   streaming source    Analyze({.source = &source})
//   file path + threads Analyze({.path = path, .threads = N})
StatusOr<TraceAnalysis> Analyze(const AnalyzeOptions& options);

namespace internal {

// Serial engine internals, used by Analyze() and the parallel fallback.
TraceAnalysis SerialAnalyze(const Trace& trace);
StatusOr<TraceAnalysis> SerialAnalyze(TraceSource& source);

}  // namespace internal

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ANALYZER_H_

// Rolling live analysis: consume a (possibly unbounded) record stream and
// publish an immutable Section-5 analysis of the prefix at every simulated
// interval boundary.
//
// Implementation is the segment/stitch machinery shared with the parallel
// analyzer (segment_stitcher.h): the stream is cut into one segment per
// interval, each segment runs the segment-mode collector set, and an
// incremental stitcher absorbs segments as their boundary passes.  A
// snapshot is the stitcher's finalized prefix state, so it is bit-identical
// to a batch Analyze of exactly the records before the boundary — the
// correctness gate of the live pipeline (rolling_analyzer_test).
//
// Single-threaded: one RollingAnalyzer is driven by one consumer thread
// (typically draining a RingTraceSource).  Concurrency lives in the ring,
// not here.

#ifndef BSDTRACE_SRC_ANALYSIS_ROLLING_ANALYZER_H_
#define BSDTRACE_SRC_ANALYSIS_ROLLING_ANALYZER_H_

#include <functional>
#include <memory>

#include "src/analysis/analyzer.h"
#include "src/analysis/segment_stitcher.h"
#include "src/trace/trace_source.h"
#include "src/util/sim_time.h"

namespace bsdtrace {

class RollingAnalyzer {
 public:
  // Called at each crossed boundary with the prefix analysis (records with
  // time < boundary) and the boundary itself.  An interval with no records
  // still publishes — the snapshot simply equals the previous one — so a
  // dashboard ticks every simulated hour even when the machine idles.
  using SnapshotCallback = std::function<void(const TraceAnalysis&, SimTime)>;

  // interval must be positive.  callback may be empty (snapshots are then
  // only counted, which the tests use to probe boundary bookkeeping).
  explicit RollingAnalyzer(Duration interval, SnapshotCallback callback = nullptr);

  // Feeds one record; records must arrive in non-decreasing time order.
  // Crossing one or more boundaries publishes the due snapshots before the
  // record is applied to the new segment.
  void Process(const TraceRecord& record);

  // Ends the stream and returns the full analysis (mode kLive), bit-identical
  // to a batch Analyze of every record processed.  No snapshot is published
  // for the final partial interval.  The analyzer may not be reused.
  TraceAnalysis Finish();

  uint64_t records_processed() const { return records_; }
  uint64_t snapshots_published() const { return snapshots_; }

 private:
  void CloseSegment();

  Duration interval_;
  SnapshotCallback callback_;
  SimTime next_boundary_;
  std::unique_ptr<SegmentCollector> segment_;
  SegmentStitcher stitcher_;
  uint64_t records_ = 0;
  uint64_t snapshots_ = 0;
};

// Drains `source` through a RollingAnalyzer.  Source errors surface as a
// Status (snapshots already published before the failure stand).
StatusOr<TraceAnalysis> RollingAnalyze(TraceSource& source, Duration interval,
                                       RollingAnalyzer::SnapshotCallback callback = nullptr);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_ROLLING_ANALYZER_H_

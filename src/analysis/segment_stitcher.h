// The segment/stitch machinery behind every non-serial Section-5 analysis.
//
// A trace can be split at ANY record boundary into contiguous, time-ordered
// segments; the split is an execution detail, never a semantic one.  Each
// segment runs the full collector set in isolation (SegmentCollector),
// exporting order-free partial statistics plus boundary state — opens still
// pending at its end, and the records it could not interpret because their
// open lies in an earlier segment ("orphans").  SegmentStitcher then absorbs
// the segments in time order, replaying each segment's orphans against the
// open state carried from earlier segments and merging the partials.
//
// Two consumers drive it:
//   * Analyze's parallel engine carves an on-disk trace into per-worker segments
//     and stitches them after the workers join (parallel_analyzer.cc).
//   * RollingAnalyzer closes one segment per simulated hour of a LIVE stream
//     and stitches incrementally; Snapshot() publishes the prefix analysis
//     at each boundary without disturbing the stitch (rolling_analyzer.h).
//
// Invariant, inherited from the parallel analyzer's parity gate: after
// stitching segments 1..k the finalized result is bit-identical to the
// serial streaming analyzer run over exactly those segments' records.

#ifndef BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_
#define BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/analysis/collector_set.h"
#include "src/trace/reconstruct.h"
#include "src/trace/trace_source.h"
#include "src/util/status.h"

namespace bsdtrace {

struct TraceAnalysis;  // analyzer.h

// A record a segment could not interpret (its open lies in an earlier
// segment), plus the lifetime zone its eventual write transfer lands in.
struct OrphanRecord {
  TraceRecord record;
  LifetimeOrphanTag tag;
};

// Everything one segment hands to the stitcher.
struct SegmentResult {
  Status status = Status::Ok();
  std::vector<OrphanRecord> orphans;
  std::unordered_map<OpenId, AccessReconstructor::OpenState> open_states;
  OverallStats overall;
  std::unordered_map<OpenId, SimTime> pending_last_events;
  ActivitySegment activity;
  PerUserSegment per_user;
  SequentialityStats sequentiality;
  RunLengthStats runs;
  FileSizeStats file_sizes;
  OpenTimeStats open_times;
  LifetimeSegment lifetimes;
};

// Push-side collector for one segment: the segment-mode collector set and
// the orphan detector, fed one record at a time.  The parallel workers drain
// a cursor through it; the rolling analyzer pushes live records into it.
class SegmentCollector {
 public:
  SegmentCollector();
  SegmentCollector(const SegmentCollector&) = delete;
  SegmentCollector& operator=(const SegmentCollector&) = delete;

  // Records must arrive in non-decreasing time order.
  void Process(const TraceRecord& record);

  // Finalizes the segment (the collector may not be reused).
  SegmentResult Take();

 private:
  CollectorSet collectors_{/*segment_mode=*/true};
  AccessReconstructor reconstructor_{&collectors_};
  SegmentResult seg_;
  uint64_t orphans_seen_ = 0;
};

// Runs a whole TraceSource (e.g. one parallel worker's block-range cursor)
// through a SegmentCollector.  Source errors surface in SegmentResult::status.
SegmentResult RunSegment(TraceSource& cursor);

// Order-dependent serial reduction over segments.  Add() absorbs segments in
// time order; Snapshot() finalizes a copy of the current prefix state
// (pending opens, live incarnations, and straddling inter-event samples are
// right-censored exactly as the serial analyzer censors them at end of
// trace); Finish() finalizes destructively.  Not copyable: the stitch owns a
// reconstructor wired to internal sinks.
class SegmentStitcher {
 public:
  SegmentStitcher();
  ~SegmentStitcher();
  SegmentStitcher(const SegmentStitcher&) = delete;
  SegmentStitcher& operator=(const SegmentStitcher&) = delete;

  void Add(SegmentResult segment);
  TraceAnalysis Snapshot() const;
  TraceAnalysis Finish();

  // Segments absorbed so far.
  size_t segments() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_SEGMENT_STITCHER_H_

// Parallel Section-5 analysis over an on-disk v3/v4 trace.
//
// The trace is carved at block boundaries (the v3/v4 footer index) into one
// contiguous segment per worker.  Each worker runs the full collector set
// over its segment in isolation (SegmentCollector), and a serial stitch pass
// (SegmentStitcher) walks the segments in time order, replaying boundary
// orphans and merging the partials — see segment_stitcher.h, which both
// this engine and the rolling live analyzer share.
//
// The result is bit-identical to the serial analyzer: every counter is
// exact integer arithmetic, every CDF is canonicalized over its sample
// multiset (WeightedCdf), and the one order-sensitive reduction — Table IV's
// Welford accumulators — is rebuilt by replaying the merged per-interval
// summaries in exactly the serial visit order (ActivitySegment::Finalize).

#ifndef BSDTRACE_SRC_ANALYSIS_PARALLEL_ANALYZER_H_
#define BSDTRACE_SRC_ANALYSIS_PARALLEL_ANALYZER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/trace/trace_source.h"
#include "src/util/status.h"

namespace bsdtrace {

namespace internal {

// Carves the footer index into at most `threads` contiguous (first_block,
// block_count) ranges balanced by record count, coalescing tiny blocks: no
// range is created for fewer than `min_records` records (except when the
// whole trace is smaller), so a trace written with a small block target —
// many near-empty footer entries — yields a few substantial segments instead
// of degenerating to per-block workers.  Segment boundaries affect only load
// balance, never results: the stitcher is carve-agnostic.  Exposed for
// tests; the segmented engine uses it with its default minimum.
std::vector<std::pair<size_t, size_t>> CarveIndex(
    const std::vector<TraceBlockIndexEntry>& index, unsigned threads, uint64_t min_records);

// The segmented engine behind Analyze() for indexed on-disk traces.  Falls
// back to the serial streaming pass — same results by construction — when
// threads <= 1, the file has no block index (v1/v2, or v3/v4 written
// without one), or the index holds too few records to be worth splitting;
// the analysis reports which engine actually ran (TraceAnalysis::mode).
StatusOr<TraceAnalysis> SegmentedAnalyze(const SeekableTraceSource& seekable,
                                         unsigned threads);

}  // namespace internal

// Exact (bitwise) equality of two analyses — the parity check the
// ParallelAnalyzer tests use.  Every scalar, counter, Welford accumulator, and
// CDF sample multiset must match exactly.  Execution metadata (mode, thread
// and segment counts, band verdicts) is deliberately ignored: the guarantee
// is that every engine computes the same statistics.
bool AnalysisBitIdentical(const TraceAnalysis& a, const TraceAnalysis& b);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_PARALLEL_ANALYZER_H_

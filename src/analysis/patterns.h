// Access-pattern distributions: sequential-run lengths (Fig. 1), dynamic
// file sizes at close (Fig. 2), and open durations (Fig. 3).

#ifndef BSDTRACE_SRC_ANALYSIS_PATTERNS_H_
#define BSDTRACE_SRC_ANALYSIS_PATTERNS_H_

#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

// Figure 1: cumulative distributions of sequential-run lengths.
struct RunLengthStats {
  // (a) weighted by number of runs.
  WeightedCdf by_runs;
  // (b) weighted by bytes transferred in the run.
  WeightedCdf by_bytes;

  void Merge(const RunLengthStats& other) {
    by_runs.Merge(other.by_runs);
    by_bytes.Merge(other.by_bytes);
  }
};

// Figure 2: dynamic distribution of file sizes, measured at close.
struct FileSizeStats {
  // (a) weighted by number of file accesses.
  WeightedCdf by_accesses;
  // (b) weighted by bytes transferred during the access.
  WeightedCdf by_bytes;

  void Merge(const FileSizeStats& other) {
    by_accesses.Merge(other.by_accesses);
    by_bytes.Merge(other.by_bytes);
  }
};

// Figure 3: distribution of the time files stay open.
struct OpenTimeStats {
  WeightedCdf seconds;

  void Merge(const OpenTimeStats& other) { seconds.Merge(other.seconds); }
};

class PatternsCollector final : public ReconstructionSink {
 public:
  void OnTransfer(const Transfer& transfer) override;
  void OnAccess(const AccessSummary& access) override;

  RunLengthStats TakeRuns() { return std::move(runs_); }
  FileSizeStats TakeFileSizes() { return std::move(sizes_); }
  OpenTimeStats TakeOpenTimes() { return std::move(open_times_); }

 private:
  RunLengthStats runs_;
  FileSizeStats sizes_;
  OpenTimeStats open_times_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_PATTERNS_H_

// File popularity analysis (extension): how opens concentrate on few files.
//
// Not a paper table, but implied throughout: shared configuration files,
// status files, and the administrative databases take a disproportionate
// share of accesses (Fig. 2 notes a few large files get ~20% of accesses).
// Popularity skew is what makes caching shared blocks effective.

#ifndef BSDTRACE_SRC_ANALYSIS_POPULARITY_H_
#define BSDTRACE_SRC_ANALYSIS_POPULARITY_H_

#include <unordered_map>
#include <vector>

#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct PopularityStats {
  uint64_t distinct_files = 0;
  uint64_t total_accesses = 0;
  uint64_t total_bytes = 0;

  // Fraction of all accesses (or bytes) going to the most-accessed N files.
  double TopAccessShare(size_t n) const;
  double TopByteShare(size_t n) const;
  // Smallest number of files covering the given fraction of accesses.
  uint64_t FilesForAccessFraction(double fraction) const;
  // Accesses-per-file distribution.
  WeightedCdf accesses_per_file;

  // Per-file totals, sorted descending (by accesses / by bytes).
  std::vector<uint64_t> access_counts_sorted;
  std::vector<uint64_t> byte_counts_sorted;
};

class PopularityCollector : public ReconstructionSink {
 public:
  void OnAccess(const AccessSummary& access) override;
  void OnTransfer(const Transfer& transfer) override;
  void OnRecord(const TraceRecord& record, RecordOwner owner) override;

  PopularityStats Take();

 private:
  struct FileTotals {
    uint64_t accesses = 0;
    uint64_t bytes = 0;
  };
  std::unordered_map<FileId, FileTotals> files_;
};

// Convenience: one pass over a trace.
PopularityStats AnalyzePopularity(const Trace& trace);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_POPULARITY_H_

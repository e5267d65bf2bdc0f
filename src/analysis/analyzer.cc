#include "src/analysis/analyzer.h"

#include "src/analysis/collector_set.h"

namespace bsdtrace {

TraceAnalysis CollectorSet::Take() {
  TraceAnalysis analysis;
  analysis.overall = overall.Take();
  analysis.activity = activity.Take();
  analysis.per_user = per_user.Take();
  analysis.sequentiality = sequentiality.Take();
  analysis.runs = patterns.TakeRuns();
  analysis.file_sizes = patterns.TakeFileSizes();
  analysis.open_times = patterns.TakeOpenTimes();
  analysis.lifetimes = lifetimes.Take();
  return analysis;
}

const char* AnalyzeModeName(AnalyzeMode mode) {
  switch (mode) {
    case AnalyzeMode::kSerial:
      return "serial";
    case AnalyzeMode::kParallel:
      return "parallel";
    case AnalyzeMode::kLive:
      return "live";
  }
  return "?";
}

namespace internal {

TraceAnalysis SerialAnalyze(const Trace& trace) {
  CollectorSet collectors;
  Reconstruct(trace, &collectors);
  return collectors.Take();
}

StatusOr<TraceAnalysis> SerialAnalyze(TraceSource& source) {
  CollectorSet collectors;
  const Status status = Reconstruct(source, &collectors);
  if (!status.ok()) {
    return status;
  }
  return collectors.Take();
}

}  // namespace internal

}  // namespace bsdtrace

// The Section-5 collector set behind every analysis mode.
//
// The serial analyzer (analyzer.cc) and every segment of the parallel and
// live analyzers (segment_stitcher.h) run the same six collectors, fed by one
// AccessReconstructor.  The reconstructor reaches the set through one virtual
// call per event; the set fans the event out to its collectors by direct
// calls (every collector is final), so there is no second, per-collector
// virtual fan-out.

#ifndef BSDTRACE_SRC_ANALYSIS_COLLECTOR_SET_H_
#define BSDTRACE_SRC_ANALYSIS_COLLECTOR_SET_H_

#include "src/analysis/activity.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/overall.h"
#include "src/analysis/patterns.h"
#include "src/analysis/per_user_activity.h"
#include "src/analysis/sequentiality.h"
#include "src/trace/reconstruct.h"

namespace bsdtrace {

struct TraceAnalysis;  // analyzer.h

class CollectorSet final : public ReconstructionSink {
 public:
  // segment_mode: run the collectors that have one in their segment mode
  // (see SegmentCollector).
  explicit CollectorSet(bool segment_mode = false)
      : activity(segment_mode), per_user(segment_mode), lifetimes(segment_mode) {}

  void OnTransfer(const Transfer& t) override {
    ForEach([&](auto& c) { c.OnTransfer(t); });
  }
  void OnAccess(const AccessSummary& a) override {
    ForEach([&](auto& c) { c.OnAccess(a); });
  }
  void OnRecord(const TraceRecord& r, RecordOwner owner) override {
    ForEach([&](auto& c) { c.OnRecord(r, owner); });
  }

  // The serial-mode results (the set may not be reused).
  TraceAnalysis Take();

  OverallStatsCollector overall;
  ActivityCollector activity;
  PerUserActivityCollector per_user;
  SequentialityCollector sequentiality;
  PatternsCollector patterns;
  LifetimeCollector lifetimes;

 private:
  template <typename F>
  void ForEach(F&& f) {
    f(overall);
    f(activity);
    f(per_user);
    f(sequentiality);
    f(patterns);
    f(lifetimes);
  }
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_COLLECTOR_SET_H_

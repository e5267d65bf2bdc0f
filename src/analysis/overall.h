// Overall trace statistics (paper Table III) and the inter-event interval
// measurement of §3.1 (how tight the no-read-write time bounds are).

#ifndef BSDTRACE_SRC_ANALYSIS_OVERALL_H_
#define BSDTRACE_SRC_ANALYSIS_OVERALL_H_

#include <array>
#include <unordered_map>

#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct OverallStats {
  Duration duration;
  uint64_t total_records = 0;
  // Counts indexed by EventType's underlying value (1..7).
  std::array<uint64_t, 8> count_by_type{};
  // Total file data read or written (reconstructed transfers).
  uint64_t bytes_transferred = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Intervals between successive trace events for the same open file —
  // these bound when the intervening data transfers actually occurred.
  // The paper measured 75% < 0.5 s, 90% < 10 s, 99% < 30 s.
  WeightedCdf inter_event_interval_seconds;

  uint64_t Count(EventType type) const {
    return count_by_type[static_cast<size_t>(type)];
  }
  double Fraction(EventType type) const {
    return total_records > 0
               ? static_cast<double>(Count(type)) / static_cast<double>(total_records)
               : 0.0;
  }

  // Absorbs another segment's statistics (parallel reduction): counters sum,
  // duration takes the max, the interval CDF takes the union of samples.
  void Merge(const OverallStats& other);
};

// Streaming collector; feed it through AccessReconstructor.
class OverallStatsCollector final : public ReconstructionSink {
 public:
  void OnRecord(const TraceRecord& record, RecordOwner owner) override;
  void OnTransfer(const Transfer& transfer) override;

  // Finalizes and returns the statistics (collector may not be reused).
  OverallStats Take();

  // Segment handoff: the last event time of each open still pending, so the
  // stitcher can emit the inter-event samples that straddle the boundary.
  // (Seeks and closes whose open lies in an earlier segment are silently
  // skipped here — the map miss — and replayed by the stitcher.)
  std::unordered_map<OpenId, SimTime> TakePendingLastEvents() {
    return std::move(last_event_for_open_);
  }

 private:
  OverallStats stats_;
  SimTime last_time_;
  std::unordered_map<OpenId, SimTime> last_event_for_open_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_OVERALL_H_

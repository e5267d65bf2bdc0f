#include "src/analysis/overall.h"

#include <algorithm>

namespace bsdtrace {

void OverallStats::Merge(const OverallStats& other) {
  duration = std::max(duration, other.duration);
  total_records += other.total_records;
  for (size_t i = 0; i < count_by_type.size(); ++i) {
    count_by_type[i] += other.count_by_type[i];
  }
  bytes_transferred += other.bytes_transferred;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  inter_event_interval_seconds.Merge(other.inter_event_interval_seconds);
}

void OverallStatsCollector::OnRecord(const TraceRecord& r, RecordOwner) {
  ++stats_.total_records;
  stats_.count_by_type[static_cast<size_t>(r.type)] += 1;
  if (r.time > last_time_) {
    last_time_ = r.time;
  }

  // Track per-open-file event gaps.
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate:
      last_event_for_open_[r.open_id] = r.time;
      break;
    case EventType::kSeek: {
      auto it = last_event_for_open_.find(r.open_id);
      if (it != last_event_for_open_.end()) {
        stats_.inter_event_interval_seconds.Add((r.time - it->second).seconds());
        it->second = r.time;
      }
      break;
    }
    case EventType::kClose: {
      auto it = last_event_for_open_.find(r.open_id);
      if (it != last_event_for_open_.end()) {
        stats_.inter_event_interval_seconds.Add((r.time - it->second).seconds());
        last_event_for_open_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void OverallStatsCollector::OnTransfer(const Transfer& t) {
  stats_.bytes_transferred += t.length;
  if (t.direction == TransferDirection::kRead) {
    stats_.bytes_read += t.length;
  } else {
    stats_.bytes_written += t.length;
  }
}

OverallStats OverallStatsCollector::Take() {
  stats_.duration = last_time_ - SimTime::Origin();
  return std::move(stats_);
}

}  // namespace bsdtrace

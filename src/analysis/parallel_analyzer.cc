#include "src/analysis/parallel_analyzer.h"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/segment_stitcher.h"

namespace bsdtrace {
namespace {

// Segments below this record count are not worth a worker: the stitch pass
// and collector setup cost more than the records.  CarveIndex coalesces the
// footer's blocks until each segment clears it.
constexpr uint64_t kMinSegmentRecords = 8192;

}  // namespace

namespace internal {

std::vector<std::pair<size_t, size_t>> CarveIndex(
    const std::vector<TraceBlockIndexEntry>& index, unsigned threads, uint64_t min_records) {
  std::vector<std::pair<size_t, size_t>> ranges;  // (first_block, block_count)
  if (index.empty()) {
    return ranges;
  }
  uint64_t total = 0;
  for (const TraceBlockIndexEntry& entry : index) {
    total += entry.record_count;
  }
  // The segment coalescer: cap the segment count so every segment (except
  // possibly the last) clears min_records, then balance by record count.
  uint64_t segments = threads;
  if (min_records > 0) {
    segments = std::min<uint64_t>(segments, std::max<uint64_t>(total / min_records, 1));
  }
  size_t first = 0;
  uint64_t remaining = total;
  for (uint64_t s = 0; s < segments && first < index.size(); ++s) {
    const uint64_t want = (remaining + (segments - s) - 1) / (segments - s);
    size_t last = first;
    uint64_t got = 0;
    while (last < index.size() && (got < want || last == first)) {
      got += index[last].record_count;
      ++last;
    }
    ranges.emplace_back(first, last - first);
    first = last;
    remaining -= got < remaining ? got : remaining;
  }
  if (first < index.size()) {
    ranges.back().second += index.size() - first;
  }
  return ranges;
}

StatusOr<TraceAnalysis> SegmentedAnalyze(const SeekableTraceSource& seekable,
                                         unsigned threads) {
  if (!seekable.status().ok()) {
    return seekable.status();
  }
  const std::vector<TraceBlockIndexEntry>& index = seekable.index();
  std::vector<std::pair<size_t, size_t>> ranges =
      threads <= 1 ? std::vector<std::pair<size_t, size_t>>{}
                   : CarveIndex(index, threads, kMinSegmentRecords);
  if (ranges.size() < 2) {
    // Not worth segmenting: run — and report — the serial streaming pass.
    TraceFileSource source(seekable.path());
    return SerialAnalyze(source);
  }

  std::vector<SegmentResult> segments(ranges.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < ranges.size(); i = next.fetch_add(1)) {
      auto cursor = seekable.OpenCursor(ranges[i].first, ranges[i].second);
      segments[i] = RunSegment(*cursor);
    }
  };
  const size_t pool = std::min<size_t>(threads, ranges.size());
  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    workers.emplace_back(worker);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const SegmentResult& seg : segments) {
    if (!seg.status.ok()) {
      return seg.status;
    }
  }

  SegmentStitcher stitcher;
  for (SegmentResult& seg : segments) {
    stitcher.Add(std::move(seg));
  }
  TraceAnalysis result = stitcher.Finish();
  result.mode = AnalyzeMode::kParallel;
  result.threads_used = static_cast<unsigned>(pool);
  result.segments_used = ranges.size();
  return result;
}

}  // namespace internal

namespace {

bool CdfIdentical(const WeightedCdf& a, const WeightedCdf& b) {
  return a.runs() == b.runs();
}

bool StatsIdentical(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() && a.max() == b.max() &&
         a.sum() == b.sum();
}

bool IntervalIdentical(const IntervalActivity& a, const IntervalActivity& b) {
  return a.interval_length.micros() == b.interval_length.micros() &&
         StatsIdentical(a.active_users, b.active_users) &&
         StatsIdentical(a.throughput_per_user, b.throughput_per_user) &&
         a.max_active_users == b.max_active_users && a.intervals == b.intervals;
}

bool ModeIdentical(const ModeSequentiality& a, const ModeSequentiality& b) {
  return a.accesses == b.accesses && a.whole_file == b.whole_file &&
         a.sequential == b.sequential && a.bytes == b.bytes &&
         a.whole_file_bytes == b.whole_file_bytes &&
         a.sequential_bytes == b.sequential_bytes;
}

}  // namespace

bool AnalysisBitIdentical(const TraceAnalysis& a, const TraceAnalysis& b) {
  if (a.overall.duration.micros() != b.overall.duration.micros() ||
      a.overall.total_records != b.overall.total_records ||
      a.overall.count_by_type != b.overall.count_by_type ||
      a.overall.bytes_transferred != b.overall.bytes_transferred ||
      a.overall.bytes_read != b.overall.bytes_read ||
      a.overall.bytes_written != b.overall.bytes_written ||
      !CdfIdentical(a.overall.inter_event_interval_seconds,
                    b.overall.inter_event_interval_seconds)) {
    return false;
  }
  if (a.activity.duration.micros() != b.activity.duration.micros() ||
      a.activity.total_bytes != b.activity.total_bytes ||
      a.activity.average_throughput != b.activity.average_throughput ||
      a.activity.distinct_users != b.activity.distinct_users ||
      !IntervalIdentical(a.activity.ten_minute, b.activity.ten_minute) ||
      !IntervalIdentical(a.activity.ten_second, b.activity.ten_second)) {
    return false;
  }
  if (a.per_user.duration.micros() != b.per_user.duration.micros() ||
      a.per_user.days != b.per_user.days ||
      a.per_user.total_records != b.per_user.total_records ||
      a.per_user.total_bytes != b.per_user.total_bytes ||
      a.per_user.users != b.per_user.users ||
      !StatsIdentical(a.per_user.records_per_user_day, b.per_user.records_per_user_day) ||
      !StatsIdentical(a.per_user.active_users_per_day, b.per_user.active_users_per_day)) {
    return false;
  }
  for (size_t i = 0; i < a.sequentiality.by_mode.size(); ++i) {
    if (!ModeIdentical(a.sequentiality.by_mode[i], b.sequentiality.by_mode[i])) {
      return false;
    }
  }
  return CdfIdentical(a.runs.by_runs, b.runs.by_runs) &&
         CdfIdentical(a.runs.by_bytes, b.runs.by_bytes) &&
         CdfIdentical(a.file_sizes.by_accesses, b.file_sizes.by_accesses) &&
         CdfIdentical(a.file_sizes.by_bytes, b.file_sizes.by_bytes) &&
         CdfIdentical(a.open_times.seconds, b.open_times.seconds) &&
         CdfIdentical(a.lifetimes.by_files, b.lifetimes.by_files) &&
         CdfIdentical(a.lifetimes.by_bytes, b.lifetimes.by_bytes) &&
         a.lifetimes.new_files == b.lifetimes.new_files &&
         a.lifetimes.observed_deaths == b.lifetimes.observed_deaths;
}

}  // namespace bsdtrace

#include "src/analysis/popularity.h"

#include <algorithm>

#include "src/trace/trace.h"

namespace bsdtrace {
namespace {

double TopShare(const std::vector<uint64_t>& sorted, uint64_t total, size_t n) {
  if (total == 0) {
    return 0.0;
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < n && i < sorted.size(); ++i) {
    sum += sorted[i];
  }
  return static_cast<double>(sum) / static_cast<double>(total);
}

}  // namespace

double PopularityStats::TopAccessShare(size_t n) const {
  return TopShare(access_counts_sorted, total_accesses, n);
}

double PopularityStats::TopByteShare(size_t n) const {
  return TopShare(byte_counts_sorted, total_bytes, n);
}

uint64_t PopularityStats::FilesForAccessFraction(double fraction) const {
  const auto target = static_cast<uint64_t>(fraction * static_cast<double>(total_accesses));
  uint64_t sum = 0;
  for (size_t i = 0; i < access_counts_sorted.size(); ++i) {
    sum += access_counts_sorted[i];
    if (sum >= target) {
      return i + 1;
    }
  }
  return access_counts_sorted.size();
}

void PopularityCollector::OnAccess(const AccessSummary& a) {
  FileTotals& totals = files_[a.file_id];
  totals.accesses += 1;
  totals.bytes += a.bytes_transferred;
}

void PopularityCollector::OnTransfer(const Transfer&) {}

void PopularityCollector::OnRecord(const TraceRecord& r, RecordOwner) {
  // Executions count as accesses to the program file.
  if (r.type == EventType::kExecve) {
    files_[r.file_id].accesses += 1;
  }
}

PopularityStats PopularityCollector::Take() {
  PopularityStats stats;
  stats.distinct_files = files_.size();
  for (const auto& [file, totals] : files_) {
    stats.total_accesses += totals.accesses;
    stats.total_bytes += totals.bytes;
    stats.access_counts_sorted.push_back(totals.accesses);
    stats.byte_counts_sorted.push_back(totals.bytes);
    stats.accesses_per_file.Add(static_cast<double>(totals.accesses));
  }
  std::sort(stats.access_counts_sorted.rbegin(), stats.access_counts_sorted.rend());
  std::sort(stats.byte_counts_sorted.rbegin(), stats.byte_counts_sorted.rend());
  return stats;
}

PopularityStats AnalyzePopularity(const Trace& trace) {
  PopularityCollector collector;
  Reconstruct(trace, &collector);
  return collector.Take();
}

}  // namespace bsdtrace

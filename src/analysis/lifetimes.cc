#include "src/analysis/lifetimes.h"

#include <algorithm>

namespace bsdtrace {

double LifetimeStats::FileFractionIn(double lo_seconds, double hi_seconds) const {
  if (by_files.total_weight() <= 0) {
    return 0.0;
  }
  return by_files.FractionAtOrBelow(hi_seconds) - by_files.FractionAtOrBelow(lo_seconds);
}

LifetimeCollector::LifetimeCollector(bool segment_mode) : segment_mode_(segment_mode) {}

void LifetimeCollector::Kill(FileId file, SimTime when) {
  auto it = live_.find(file);
  if (it == live_.end()) {
    return;
  }
  const double lifetime = (when - it->second.birth).seconds();
  stats_.by_files.Add(lifetime);
  if (it->second.bytes_written > 0) {
    stats_.by_bytes.Add(lifetime, static_cast<double>(it->second.bytes_written));
  }
  stats_.observed_deaths += 1;
  live_.erase(it);
}

void LifetimeCollector::SegmentEvent(FileId file, SimTime when, bool creates) {
  FileSegState& st = seg_files_[file];
  if (!st.has_event) {
    // First local event: kills the carried incarnation, if the stitcher
    // finds one live at this boundary.
    st.has_event = true;
    st.first_event_time = when;
  } else if (st.live_slot >= 0) {
    LifetimeSegment::Slot& slot = slots_[static_cast<size_t>(st.live_slot)];
    slot.death = when;
    slot.dead = true;
    if (!slot.marked) {
      // Complete within the segment with no stitch bytes pending: emit now.
      const double lifetime = (when - slot.birth).seconds();
      stats_.by_files.Add(lifetime);
      if (slot.bytes > 0) {
        stats_.by_bytes.Add(lifetime, static_cast<double>(slot.bytes));
      }
      stats_.observed_deaths += 1;
    }
  }
  st.live_slot = -1;
  if (creates) {
    st.live_slot = static_cast<int32_t>(slots_.size());
    slots_.push_back(LifetimeSegment::Slot{.birth = when, .death = SimTime()});
    stats_.new_files += 1;
  }
}

void LifetimeCollector::OnRecord(const TraceRecord& r, RecordOwner) {
  switch (r.type) {
    case EventType::kCreate:
      // Re-creation completely overwrites the previous incarnation.
      if (segment_mode_) {
        SegmentEvent(r.file_id, r.time, /*creates=*/true);
      } else {
        Kill(r.file_id, r.time);
        live_[r.file_id] = Incarnation{.birth = r.time, .bytes_written = 0};
        stats_.new_files += 1;
      }
      break;
    case EventType::kUnlink:
      if (segment_mode_) {
        SegmentEvent(r.file_id, r.time, /*creates=*/false);
      } else {
        Kill(r.file_id, r.time);
      }
      break;
    case EventType::kTruncate:
      if (r.size == 0) {
        if (segment_mode_) {
          SegmentEvent(r.file_id, r.time, /*creates=*/false);
        } else {
          Kill(r.file_id, r.time);
        }
      }
      break;
    default:
      break;
  }
}

void LifetimeCollector::OnTransfer(const Transfer& t) {
  if (t.direction != TransferDirection::kWrite) {
    return;
  }
  if (!segment_mode_) {
    auto it = live_.find(t.file_id);
    if (it != live_.end()) {
      it->second.bytes_written += t.length;
    }
    return;
  }
  auto it = seg_files_.find(t.file_id);
  if (it == seg_files_.end()) {
    // Nothing local yet: the bytes belong to a possible carried incarnation.
    seg_files_[t.file_id].pre_bytes += t.length;
    return;
  }
  if (it->second.live_slot >= 0) {
    slots_[static_cast<size_t>(it->second.live_slot)].bytes += t.length;
  } else if (!it->second.has_event) {
    it->second.pre_bytes += t.length;
  }
  // else: dead zone — a kill already happened and nothing is live; dropped,
  // exactly as the streaming collector drops bytes to a non-live file.
}

LifetimeOrphanTag LifetimeCollector::TagOrphanTransfer(FileId file) {
  LifetimeOrphanTag tag;
  FileSegState& st = seg_files_[file];
  if (st.live_slot >= 0) {
    tag.zone = LifetimeOrphanTag::Zone::kSlot;
    tag.slot = static_cast<uint32_t>(st.live_slot);
    slots_[static_cast<size_t>(st.live_slot)].marked = true;
  } else if (!st.has_event) {
    tag.zone = LifetimeOrphanTag::Zone::kPre;
  } else {
    tag.zone = LifetimeOrphanTag::Zone::kDead;
  }
  return tag;
}

LifetimeSegment LifetimeCollector::TakeSegment() {
  LifetimeSegment segment;
  segment.slots = std::move(slots_);
  segment.files.reserve(seg_files_.size());
  for (const auto& [file, st] : seg_files_) {
    // Files with no boundary-relevant state need no hand-off.
    if (st.pre_bytes == 0 && !st.has_event && st.live_slot < 0) {
      continue;
    }
    segment.files.push_back(LifetimeSegment::FileBoundary{
        .file = file,
        .pre_bytes = st.pre_bytes,
        .has_event = st.has_event,
        .first_event_time = st.first_event_time,
        .exit_slot = st.live_slot,
    });
  }
  std::sort(segment.files.begin(), segment.files.end(),
            [](const LifetimeSegment::FileBoundary& a,
               const LifetimeSegment::FileBoundary& b) { return a.file < b.file; });
  segment.local = std::move(stats_);
  return segment;
}

}  // namespace bsdtrace

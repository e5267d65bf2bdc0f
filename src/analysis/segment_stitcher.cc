#include "src/analysis/segment_stitcher.h"

#include <utility>

#include "src/analysis/analyzer.h"

namespace bsdtrace {

SegmentCollector::SegmentCollector() = default;

void SegmentCollector::Process(const TraceRecord& record) {
  reconstructor_.Process(record);
  if (reconstructor_.orphan_events() != orphans_seen_) {
    orphans_seen_ = reconstructor_.orphan_events();
    seg_.orphans.push_back(
        OrphanRecord{record, collectors_.lifetimes.TagOrphanTransfer(record.file_id)});
  }
}

SegmentResult SegmentCollector::Take() {
  seg_.open_states = reconstructor_.TakeOpenStates();
  seg_.overall = collectors_.overall.Take();
  seg_.pending_last_events = collectors_.overall.TakePendingLastEvents();
  seg_.activity = collectors_.activity.TakeSegment();
  seg_.per_user = collectors_.per_user.TakeSegment();
  seg_.sequentiality = collectors_.sequentiality.Take();
  seg_.runs = collectors_.patterns.TakeRuns();
  seg_.file_sizes = collectors_.patterns.TakeFileSizes();
  seg_.open_times = collectors_.patterns.TakeOpenTimes();
  seg_.lifetimes = collectors_.lifetimes.TakeSegment();
  // Sort the CDF frontiers here, on the parallel worker, so the serial
  // stitch only merges sorted levels.
  for (WeightedCdf* cdf : {&seg_.overall.inter_event_interval_seconds, &seg_.runs.by_runs,
                           &seg_.runs.by_bytes, &seg_.file_sizes.by_accesses,
                           &seg_.file_sizes.by_bytes, &seg_.open_times.seconds,
                           &seg_.lifetimes.local.by_files, &seg_.lifetimes.local.by_bytes}) {
    cdf->Fold();
  }
  return std::move(seg_);
}

SegmentResult RunSegment(TraceSource& cursor) {
  SegmentCollector collector;
  TraceRecord r;
  while (cursor.Next(&r)) {
    collector.Process(r);
  }
  if (!cursor.status().ok()) {
    SegmentResult seg;
    seg.status = cursor.status();
    return seg;
  }
  return collector.Take();
}

namespace {

// An incarnation alive across a segment boundary.
struct CarriedIncarnation {
  SimTime birth;
  uint64_t bytes = 0;
};

// Receives the carried reconstructor's output while the stitcher replays
// orphan records.  The segments already counted the records themselves and
// the stitch loop restores their inter-event samples, so a replayed record
// only touches Table IV / Table I activity, attributed to the owner the
// carried open state resolves.
class StitchSink : public ReconstructionSink {
 public:
  StitchSink(OverallStats* overall_extra, PatternsCollector* patterns,
             SequentialityCollector* sequentiality, ActivitySegment* activity,
             PerUserSegment* per_user,
             std::unordered_map<FileId, CarriedIncarnation>* carried_live)
      : overall_extra_(overall_extra),
        patterns_(patterns),
        sequentiality_(sequentiality),
        activity_(activity),
        per_user_(per_user),
        carried_live_(carried_live) {}

  void set_segment(LifetimeSegment* lifetimes) { lifetimes_ = lifetimes; }
  void set_tag(LifetimeOrphanTag tag) { tag_ = tag; }

  void OnTransfer(const Transfer& t) override {
    overall_extra_->bytes_transferred += t.length;
    if (t.direction == TransferDirection::kRead) {
      overall_extra_->bytes_read += t.length;
    } else {
      overall_extra_->bytes_written += t.length;
    }
    patterns_->OnTransfer(t);
    activity_->Touch(t.time, t.user_id, t.length);
    per_user_->Touch(t.time, t.user_id, /*records=*/0, t.length);
    if (t.direction == TransferDirection::kWrite) {
      switch (tag_.zone) {
        case LifetimeOrphanTag::Zone::kPre: {
          auto it = carried_live_->find(t.file_id);
          if (it != carried_live_->end()) {
            it->second.bytes += t.length;
          }
          break;
        }
        case LifetimeOrphanTag::Zone::kSlot:
          lifetimes_->slots[tag_.slot].bytes += t.length;
          break;
        case LifetimeOrphanTag::Zone::kDead:
          break;  // a kill preceded the transfer; the bytes are dropped
      }
    }
  }

  void OnAccess(const AccessSummary& a) override {
    sequentiality_->OnAccess(a);
    patterns_->OnAccess(a);
  }

  void OnRecord(const TraceRecord& r, RecordOwner owner) override {
    activity_->Touch(r.time, owner.user, 0);
    per_user_->Touch(r.time, owner.user, /*records=*/1, /*bytes=*/0);
  }

 private:
  OverallStats* overall_extra_;
  PatternsCollector* patterns_;
  SequentialityCollector* sequentiality_;
  ActivitySegment* activity_;
  PerUserSegment* per_user_;
  std::unordered_map<FileId, CarriedIncarnation>* carried_live_;
  LifetimeSegment* lifetimes_ = nullptr;
  LifetimeOrphanTag tag_;
};

void EmitLifetimeSample(LifetimeStats* stats, SimTime birth, SimTime death,
                        uint64_t bytes) {
  const double lifetime = (death - birth).seconds();
  stats->by_files.Add(lifetime);
  if (bytes > 0) {
    stats->by_bytes.Add(lifetime, static_cast<double>(bytes));
  }
  stats->observed_deaths += 1;
}

}  // namespace

struct SegmentStitcher::Impl {
  Impl()
      : sink(&overall_extra, &patterns, &sequentiality, &activity, &per_user,
             &carried_live),
        reconstructor(&sink) {}

  // Merged order-free partials of the segments absorbed so far, stitch-side
  // extras included.
  TraceAnalysis partial;
  // Order-free stitch-side extras of the segment being absorbed: bytes +
  // samples recovered from orphan replays, and lifetime samples completed at
  // boundaries.  Add() drains them into partial.
  OverallStats overall_extra;
  PatternsCollector patterns;
  SequentialityCollector sequentiality;
  LifetimeStats lifetime_extra;
  // Table IV / Table I interval summaries of the whole prefix, replayed in
  // interval order by Snapshot() and Finish() (closed Table IV intervals
  // already replayed).
  ActivitySegment activity;
  PerUserSegment per_user;
  // Boundary state carried into later segments.
  std::unordered_map<FileId, CarriedIncarnation> carried_live;
  std::unordered_map<OpenId, SimTime> carried_last_event;
  StitchSink sink;
  AccessReconstructor reconstructor;
  size_t segments = 0;

  void Add(SegmentResult&& seg);
  TraceAnalysis Snapshot() const;
  TraceAnalysis Finish();
};

void SegmentStitcher::Impl::Add(SegmentResult&& seg) {
  sink.set_segment(&seg.lifetimes);
  // 1. Replay the records whose open lies in an earlier segment.  The
  // carried reconstructor emits their transfers, access summaries and
  // owner-attributed activity touches; the loop itself restores the
  // inter-event interval sample the segment had to skip (it needs the
  // previous event time, known only here).
  for (const OrphanRecord& orphan : seg.orphans) {
    const TraceRecord& r = orphan.record;
    auto last = carried_last_event.find(r.open_id);
    if (last != carried_last_event.end()) {
      overall_extra.inter_event_interval_seconds.Add((r.time - last->second).seconds());
      if (r.type == EventType::kSeek) {
        last->second = r.time;
      } else {
        carried_last_event.erase(last);
      }
    }
    sink.set_tag(orphan.tag);
    reconstructor.Process(r);
  }

  // 2. Adopt this segment's boundary state: its pending opens become the
  // carried opens for later segments.
  reconstructor.AdoptOpenStates(std::move(seg.open_states));
  for (const auto& [open_id, time] : seg.pending_last_events) {
    carried_last_event.insert_or_assign(open_id, time);
  }

  // 3. Lifetime boundary processing (orphan bytes are already routed).
  // Pre-event bytes feed the carried incarnation; the segment's first
  // birth-or-death event kills it; marked completed slots emit now that
  // their byte counts are final; exit-live slots become carried.
  for (const LifetimeSegment::FileBoundary& fb : seg.lifetimes.files) {
    auto it = carried_live.find(fb.file);
    if (it != carried_live.end()) {
      it->second.bytes += fb.pre_bytes;
      if (fb.has_event) {
        EmitLifetimeSample(&lifetime_extra, it->second.birth, fb.first_event_time,
                           it->second.bytes);
        carried_live.erase(it);
      }
    }
    if (fb.exit_slot >= 0) {
      const LifetimeSegment::Slot& slot =
          seg.lifetimes.slots[static_cast<size_t>(fb.exit_slot)];
      carried_live[fb.file] = CarriedIncarnation{slot.birth, slot.bytes};
    }
  }
  for (const LifetimeSegment::Slot& slot : seg.lifetimes.slots) {
    if (slot.dead && slot.marked) {
      EmitLifetimeSample(&lifetime_extra, slot.birth, slot.death, slot.bytes);
    }
  }

  // 4. Merge the order-free partials, then drain the stitch-side extras
  // into them: every one of those merges is a sum, a max or a multiset
  // union, so draining per segment changes no result.  Activity intervals
  // no later segment can reach are replayed once and closed, which leaves
  // Snapshot() only the open intervals to finalize.
  partial.overall.Merge(seg.overall);
  activity.Merge(seg.activity);
  activity.CloseSettledIntervals();
  per_user.Merge(seg.per_user);
  partial.sequentiality.Merge(seg.sequentiality);
  partial.runs.Merge(seg.runs);
  partial.file_sizes.Merge(seg.file_sizes);
  partial.open_times.Merge(seg.open_times);
  partial.lifetimes.Merge(seg.lifetimes.local);
  partial.overall.Merge(std::exchange(overall_extra, OverallStats{}));
  partial.sequentiality.Merge(sequentiality.Take());
  sequentiality = SequentialityCollector();
  partial.runs.Merge(patterns.TakeRuns());
  partial.file_sizes.Merge(patterns.TakeFileSizes());
  partial.open_times.Merge(patterns.TakeOpenTimes());
  partial.lifetimes.Merge(std::exchange(lifetime_extra, LifetimeStats{}));
  ++segments;
}

// Finalization, shared by Snapshot (copies) and Finish (moves).  Incarnations
// still live, opens still pending, and inter-event samples still straddling
// are right-censored and dropped, exactly as the streaming collector treats
// end of trace — which is what makes a boundary snapshot bit-identical to a
// batch analysis of the prefix.  The copy shares partial's immutable CDF run
// levels, so it costs O(levels), not O(samples).
TraceAnalysis SegmentStitcher::Impl::Snapshot() const {
  TraceAnalysis result = partial;
  result.activity = activity.Finalize();
  result.per_user = per_user.Finalize();
  return result;
}

TraceAnalysis SegmentStitcher::Impl::Finish() {
  TraceAnalysis result = std::move(partial);
  result.activity = activity.Finalize();
  result.per_user = per_user.Finalize();
  return result;
}

SegmentStitcher::SegmentStitcher() : impl_(new Impl()) {}
SegmentStitcher::~SegmentStitcher() = default;

void SegmentStitcher::Add(SegmentResult segment) { impl_->Add(std::move(segment)); }
TraceAnalysis SegmentStitcher::Snapshot() const { return impl_->Snapshot(); }
TraceAnalysis SegmentStitcher::Finish() { return impl_->Finish(); }
size_t SegmentStitcher::segments() const { return impl_->segments; }

}  // namespace bsdtrace

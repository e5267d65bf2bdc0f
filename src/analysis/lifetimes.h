// File lifetime measurement (paper Fig. 4 and §5.3).
//
// A "new file" is one created during the trace or truncated to zero length —
// the paper's definition of newly-written information.  The lifetime of that
// information runs from creation until the file is deleted (unlink), emptied
// (truncate to 0), or completely overwritten (re-created).  Only deaths
// observed within the trace are counted; data still live at the end of the
// trace is right-censored and excluded, as in the paper.
//
// Two weightings are reported: by number of files (Fig. 4a) and by bytes
// written to the new file during its life (Fig. 4b).
//
// Segment mode (parallel analysis) handles incarnations that straddle
// segment boundaries.  Per file the worker tracks three zones: bytes written
// before its first birth-or-death event (they belong to an incarnation born
// in an earlier segment), locally born incarnations ("slots"), and the dead
// zone after a kill with nothing live.  Slots whose lifetime completes
// locally emit their sample immediately — unless an orphan record (a close
// or seek whose open straddles the boundary) was tagged against them, in
// which case the sample is deferred until the stitcher has replayed the
// orphan and knows the slot's final byte count.

#ifndef BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_
#define BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_

#include <unordered_map>
#include <vector>

#include "src/trace/reconstruct.h"
#include "src/util/stats.h"

namespace bsdtrace {

struct LifetimeStats {
  // Lifetimes in seconds, weighted by file count (Fig. 4a).
  WeightedCdf by_files;
  // Lifetimes in seconds, weighted by bytes written (Fig. 4b).
  WeightedCdf by_bytes;
  uint64_t new_files = 0;       // incarnations born during the trace
  uint64_t observed_deaths = 0; // deaths observed before the trace ended

  // Fraction of new files whose lifetime falls in [lo, hi) seconds — used to
  // spot the 180-second daemon spike.
  double FileFractionIn(double lo_seconds, double hi_seconds) const;

  // Absorbs another segment's samples and counters (parallel reduction).
  void Merge(const LifetimeStats& other) {
    by_files.Merge(other.by_files);
    by_bytes.Merge(other.by_bytes);
    new_files += other.new_files;
    observed_deaths += other.observed_deaths;
  }
};

// Which incarnation an orphan record's eventual write transfer belongs to,
// decided at the worker's scan position when the orphan is buffered.
struct LifetimeOrphanTag {
  enum class Zone : uint8_t {
    kPre,   // before the file's first local event: the carried incarnation
    kSlot,  // a locally born incarnation (slot index below)
    kDead,  // after a kill with nothing live: the bytes are dropped
  };
  Zone zone = Zone::kDead;
  uint32_t slot = 0;  // valid when zone == kSlot
};

// One segment's lifetime hand-off to the stitcher.
struct LifetimeSegment {
  // A locally born incarnation.  `dead` slots completed locally; a slot that
  // is both dead and marked had its sample deferred (stitch bytes pending).
  // Live slots at segment end are reachable via FileBoundary::exit_slot.
  struct Slot {
    SimTime birth;
    SimTime death;
    uint64_t bytes = 0;
    bool dead = false;
    bool marked = false;  // an orphan tag references this slot
  };

  // Per-file boundary summary, in file-id order.
  struct FileBoundary {
    FileId file = kInvalidFileId;
    // Bytes written before the first local event (carried incarnation).
    uint64_t pre_bytes = 0;
    // First local create/unlink/truncate-to-zero, which kills the carried
    // incarnation if one is live.
    bool has_event = false;
    SimTime first_event_time;
    // Slot still live at segment end, or -1.
    int32_t exit_slot = -1;
  };

  std::vector<Slot> slots;
  std::vector<FileBoundary> files;
  // Samples and counters already final within the segment.
  LifetimeStats local;
};

class LifetimeCollector final : public ReconstructionSink {
 public:
  explicit LifetimeCollector(bool segment_mode = false);

  void OnRecord(const TraceRecord& record, RecordOwner owner) override;
  void OnTransfer(const Transfer& transfer) override;

  LifetimeStats Take() { return std::move(stats_); }

  // Segment mode: the zone a (future) write transfer to `file` lands in at
  // the current scan position.  Marks the slot when it returns kSlot, which
  // defers that slot's sample to the stitcher.
  LifetimeOrphanTag TagOrphanTransfer(FileId file);
  // Segment-mode result (collector may not be reused).
  LifetimeSegment TakeSegment();

 private:
  struct Incarnation {
    SimTime birth;
    uint64_t bytes_written = 0;
  };
  // Segment-mode per-file state (see file comment).
  struct FileSegState {
    uint64_t pre_bytes = 0;
    bool has_event = false;
    SimTime first_event_time;
    int32_t live_slot = -1;
  };

  void Kill(FileId file, SimTime when);
  // Segment mode: a birth-or-death event for `file`; completes the live slot
  // (or records the boundary kill) and opens a new slot when `creates`.
  void SegmentEvent(FileId file, SimTime when, bool creates);

  bool segment_mode_;
  std::unordered_map<FileId, Incarnation> live_;
  LifetimeStats stats_;
  std::unordered_map<FileId, FileSegState> seg_files_;
  std::vector<LifetimeSegment::Slot> slots_;
};

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_LIFETIMES_H_

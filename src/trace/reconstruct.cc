#include "src/trace/reconstruct.h"

#include <cassert>

#include "src/trace/trace.h"
#include "src/trace/trace_source.h"

namespace bsdtrace {
namespace {

// Direction of one run.  Opens for reading or writing only are unambiguous.
// For read-write opens the trace cannot distinguish reads from writes; runs
// that extend the file beyond its size at open must have been writes, and we
// classify the rest as reads.  (Read-write opens are rare — see Table V — so
// this heuristic has little effect on aggregate results.)
TransferDirection RunDirection(AccessMode mode, uint64_t run_end, uint64_t size_at_open) {
  switch (mode) {
    case AccessMode::kReadOnly:
      return TransferDirection::kRead;
    case AccessMode::kWriteOnly:
      return TransferDirection::kWrite;
    case AccessMode::kReadWrite:
      return run_end > size_at_open ? TransferDirection::kWrite : TransferDirection::kRead;
  }
  return TransferDirection::kRead;
}

}  // namespace

AccessReconstructor::AccessReconstructor(ReconstructionSink* sink, BillingPolicy billing)
    : sink_(sink), billing_(billing) {
  assert(sink != nullptr);
}

void AccessReconstructor::EndRun(OpenState& state, SimTime end_time, uint64_t run_end) {
  if (run_end <= state.run_start) {
    return;  // empty run: no bytes moved since the last event
  }
  Transfer t;
  t.time = billing_ == BillingPolicy::kAtNextEvent ? end_time : state.run_start_time;
  t.open_id = state.summary.open_id;
  t.file_id = state.summary.file_id;
  t.user_id = state.summary.user_id;
  t.mode = state.summary.mode;
  t.direction = RunDirection(state.summary.mode, run_end, state.summary.size_at_open);
  t.offset = state.run_start;
  t.length = run_end - state.run_start;
  state.summary.bytes_transferred += t.length;
  state.summary.run_count += 1;
  sink_->OnTransfer(t);
}

void AccessReconstructor::Process(const TraceRecord& r) {
  RecordOwner owner{.user = r.user_id, .open_seen = true};
  switch (r.type) {
    case EventType::kOpen:
    case EventType::kCreate: {
      OpenState state;
      state.summary.open_id = r.open_id;
      state.summary.file_id = r.file_id;
      state.summary.user_id = r.user_id;
      state.summary.mode = r.mode;
      state.summary.created = (r.type == EventType::kCreate);
      state.summary.open_time = r.time;
      state.summary.size_at_open = r.size;
      state.run_start = r.position;
      state.run_start_time = r.time;
      open_files_[r.open_id] = state;
      break;
    }
    case EventType::kSeek: {
      auto it = open_files_.find(r.open_id);
      if (it == open_files_.end()) {
        ++orphan_events_;
        owner.open_seen = false;
        break;
      }
      OpenState& state = it->second;
      owner.user = state.summary.user_id;
      if (r.seek_from > state.run_start && state.summary.seek_count == 0) {
        state.transferred_before_first_seek = true;
      }
      EndRun(state, r.time, r.seek_from);
      state.summary.seek_count += 1;
      state.run_start = r.seek_to;
      state.run_start_time = r.time;
      break;
    }
    case EventType::kClose: {
      auto it = open_files_.find(r.open_id);
      if (it == open_files_.end()) {
        ++orphan_events_;
        owner.open_seen = false;
        break;
      }
      OpenState& state = it->second;
      owner.user = state.summary.user_id;
      EndRun(state, r.time, r.position);
      AccessSummary& s = state.summary;
      s.close_time = r.time;
      s.size_at_close = r.size;
      // Whole-file transfer: from byte 0 to end of file with no repositioning.
      const bool started_at_zero = (s.seek_count == 0 && state.run_start <= r.position &&
                                    r.position == s.bytes_transferred);
      s.whole_file = started_at_zero && r.position == s.size_at_close &&
                     (s.bytes_transferred > 0 || s.size_at_close == 0);
      // Sequential: no repositioning at all, or a single reposition before
      // any bytes were transferred (paper Table V definition).
      s.sequential =
          s.seek_count == 0 || (s.seek_count == 1 && !state.transferred_before_first_seek);
      sink_->OnAccess(s);
      open_files_.erase(it);
      break;
    }
    case EventType::kUnlink:
    case EventType::kTruncate:
    case EventType::kExecve:
      break;
  }
  sink_->OnRecord(r, owner);
}

void AccessReconstructor::Finish() {
  dangling_opens_ += open_files_.size();
  open_files_.clear();
}

std::unordered_map<OpenId, AccessReconstructor::OpenState>
AccessReconstructor::TakeOpenStates() {
  std::unordered_map<OpenId, OpenState> taken;
  taken.swap(open_files_);
  return taken;
}

void AccessReconstructor::AdoptOpenStates(std::unordered_map<OpenId, OpenState> states) {
  for (auto& [id, state] : states) {
    open_files_.insert_or_assign(id, std::move(state));
  }
}

void Reconstruct(const Trace& trace, ReconstructionSink* sink, BillingPolicy billing) {
  AccessReconstructor reconstructor(sink, billing);
  for (const TraceRecord& r : trace.records()) {
    reconstructor.Process(r);
  }
  reconstructor.Finish();
}

Status Reconstruct(TraceSource& source, ReconstructionSink* sink, BillingPolicy billing) {
  AccessReconstructor reconstructor(sink, billing);
  TraceRecord r;
  while (source.Next(&r)) {
    reconstructor.Process(r);
  }
  if (!source.status().ok()) {
    return source.status();
  }
  reconstructor.Finish();
  return Status::Ok();
}

}  // namespace bsdtrace

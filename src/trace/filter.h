// Trace slicing and per-user event counts.
//
// A slice stays structurally valid: it keeps the record set closed over open
// ids (a kept close always has its open kept, and vice versa), so the
// validator and all analyzers accept the result.

#ifndef BSDTRACE_SRC_TRACE_FILTER_H_
#define BSDTRACE_SRC_TRACE_FILTER_H_

#include <map>

#include "src/trace/trace.h"

namespace bsdtrace {

// Keeps records with start <= time < end.  Accesses straddling a boundary
// are dropped entirely (their open or close lies outside the window), which
// matches the reconstructor's treatment of clipped opens.  Timestamps are
// rebased so the slice starts at 0 when `rebase` is true.
Trace SliceByTime(const Trace& trace, SimTime start, SimTime end, bool rebase = true);

// Event counts per user over the whole trace (close/seek attributed to the
// opening user).
std::map<UserId, uint64_t> CountEventsByUser(const Trace& trace);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_TRACE_FILTER_H_

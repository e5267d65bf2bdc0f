#include "src/trace/filter.h"

#include <unordered_map>
#include <unordered_set>

namespace bsdtrace {

Trace SliceByTime(const Trace& source, SimTime start, SimTime end, bool rebase) {
  // Opens whose whole lifetime lies inside the window.
  std::unordered_set<OpenId> inside;
  std::unordered_set<OpenId> spoiled;
  for (const TraceRecord& r : source.records()) {
    const bool in_window = r.time >= start && r.time < end;
    switch (r.type) {
      case EventType::kOpen:
      case EventType::kCreate:
        if (in_window) {
          inside.insert(r.open_id);
        } else {
          spoiled.insert(r.open_id);
        }
        break;
      case EventType::kSeek:
      case EventType::kClose:
        if (!in_window) {
          spoiled.insert(r.open_id);
        }
        break;
      default:
        break;
    }
  }

  // The slice keeps the header, with the derivation noted in its description.
  TraceHeader header = source.header();
  if (!header.description.empty()) {
    header.description += "; ";
  }
  header.description += "slice [" + start.ToString() + ", " + end.ToString() + ")";
  Trace out(header);
  const Duration shift = start - SimTime::Origin();
  for (const TraceRecord& r : source.records()) {
    if (r.time < start || r.time >= end) {
      continue;
    }
    switch (r.type) {
      case EventType::kOpen:
      case EventType::kCreate:
      case EventType::kClose:
      case EventType::kSeek:
        if (inside.count(r.open_id) == 0 || spoiled.count(r.open_id) != 0) {
          continue;
        }
        break;
      default:
        break;
    }
    TraceRecord copy = r;
    if (rebase) {
      copy.time = copy.time - shift;
    }
    out.Append(copy);
  }
  return out;
}

std::map<UserId, uint64_t> CountEventsByUser(const Trace& trace) {
  std::map<UserId, uint64_t> counts;
  std::unordered_map<OpenId, UserId> open_user;
  for (const TraceRecord& r : trace.records()) {
    switch (r.type) {
      case EventType::kOpen:
      case EventType::kCreate:
        open_user[r.open_id] = r.user_id;
        counts[r.user_id] += 1;
        break;
      case EventType::kSeek:
      case EventType::kClose: {
        auto it = open_user.find(r.open_id);
        counts[it != open_user.end() ? it->second : r.user_id] += 1;
        if (r.type == EventType::kClose && it != open_user.end()) {
          open_user.erase(it);
        }
        break;
      }
      default:
        counts[r.user_id] += 1;
        break;
    }
  }
  return counts;
}

}  // namespace bsdtrace

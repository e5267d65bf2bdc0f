// Dense user indices and sorted per-user vectors for the Table I/IV
// collectors (activity.h, per_user_activity.h).
//
// Every record and every transfer touches some per-user state, so the
// collectors keep that state in flat arrays indexed by a dense user index.
// UserIndex assigns the indices in first-seen order through a FlatMap; a raw
// id is never used as an array index, because imported traces may carry
// sparse 32-bit ids up to UINT32_MAX.  ActiveInterval tracks who is active
// in the current interval of one window over those indices.  What a
// collector exports (its segment summary) is keyed by UserId again, as
// vectors sorted by ascending id: merging two of them is a linear merge, and
// iterating one visits users in the order the Welford replays require.

#ifndef BSDTRACE_SRC_ANALYSIS_USER_INDEX_H_
#define BSDTRACE_SRC_ANALYSIS_USER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/trace/types.h"
#include "src/util/flat_map.h"
#include "src/util/sim_time.h"

namespace bsdtrace {

class UserIndex {
 public:
  // The dense index of `user`, assigned on first sight (0, 1, 2, ...).
  uint32_t Intern(UserId user) {
    // A close and the transfers it bills share one user, and a user's
    // records cluster in time: on a 4-machine A5 fleet trace 73 % of calls
    // repeat the previous user, and skipping the probe for them cuts the
    // two collectors' self time by about 8 %.
    if (user == last_user_) {
      return last_index_;
    }
    uint32_t& slot = map_.FindOrInsert(user, kUnassigned);
    if (slot == kUnassigned) {
      slot = static_cast<uint32_t>(ids_.size());
      ids_.push_back(user);
    }
    last_user_ = user;
    last_index_ = slot;
    return slot;
  }

  UserId id(uint32_t index) const { return ids_[index]; }
  // Every interned id, in index order.
  const std::vector<UserId>& ids() const { return ids_; }

 private:
  static constexpr uint32_t kUnassigned = ~uint32_t{0};

  // Keys are widened so that no 32-bit id collides with the empty key.
  FlatMap<uint64_t, uint32_t, IdHash> map_{~uint64_t{0}};
  std::vector<UserId> ids_;
  uint64_t last_user_ = ~uint64_t{0};
  uint32_t last_index_ = 0;
};

// The users active in the current interval of one fixed length — a 10 s or
// 10 min Table IV window, or a Table I day — over dense user indices.  A
// user is active in the interval when its stamp equals the interval's
// generation, so moving to the next interval bumps one counter instead of
// clearing a set.
class ActiveInterval {
 public:
  explicit ActiveInterval(Duration length) : length_us_(length.micros()) {}

  // Makes room for the next dense user index.
  void AddUser() { stamp_.push_back(0); }

  // Makes the interval holding `micros` current.  When that moves to another
  // interval, the finished one is first handed to flush (see Flush).
  template <typename F>
  void MoveTo(int64_t micros, F&& flush) {
    if (micros >= begin_us_ && micros < end_us_) {
      return;
    }
    const int64_t index = micros / length_us_;
    if (index != index_) {
      Flush(flush);
      index_ = index;
      ++generation_;
    }
    begin_us_ = index * length_us_;
    end_us_ = begin_us_ + length_us_;
  }

  // Marks `user` active in the current interval.
  void Mark(uint32_t user) {
    if (stamp_[user] != generation_) {
      stamp_[user] = generation_;
      active_.push_back(user);
    }
  }

  // Calls flush(interval index, its active users in first-touch order) if
  // any user is active, then empties the interval.
  template <typename F>
  void Flush(F&& flush) {
    if (!active_.empty()) {
      flush(index_, std::as_const(active_));
      active_.clear();
    }
  }

 private:
  int64_t length_us_;
  int64_t index_ = -1;  // the current interval; -1 before the first MoveTo
  // The current interval's bounds; the first MoveTo falls outside them.
  int64_t begin_us_ = 0;
  int64_t end_us_ = 0;
  uint64_t generation_ = 0;
  std::vector<uint64_t> stamp_;    // per dense user
  std::vector<uint32_t> active_;   // dense users active in the interval
};

// Merges `from` into `into`; both are sorted by strictly ascending key(...).
// An entry whose key is in both is combined by combine(into_entry,
// from_entry).
template <typename T, typename Key, typename Combine>
void MergeSorted(std::vector<T>& into, const std::vector<T>& from, Key key, Combine combine) {
  if (from.empty()) {
    return;
  }
  if (into.empty() || key(into.back()) < key(from.front())) {
    into.insert(into.end(), from.begin(), from.end());
    return;
  }
  std::vector<T> merged;
  merged.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() && b != from.end()) {
    if (key(*a) < key(*b)) {
      merged.push_back(std::move(*a++));
    } else if (key(*b) < key(*a)) {
      merged.push_back(*b++);
    } else {
      combine(*a, *b++);
      merged.push_back(std::move(*a++));
    }
  }
  merged.insert(merged.end(), std::make_move_iterator(a), std::make_move_iterator(into.end()));
  merged.insert(merged.end(), b, from.end());
  into = std::move(merged);
}

// The value for `user` in `entries`, (id, value) pairs sorted by ascending
// id; a default value is inserted in place if `user` is absent.
template <typename V>
V& FindOrInsertSorted(std::vector<std::pair<UserId, V>>& entries, UserId user) {
  auto it = std::lower_bound(entries.begin(), entries.end(), user,
                             [](const auto& entry, UserId id) { return entry.first < id; });
  if (it == entries.end() || it->first != user) {
    it = entries.insert(it, {user, V{}});
  }
  return it->second;
}

// Adds `user` to `users`, a set kept as a vector of ascending ids.
inline void InsertSortedUser(std::vector<UserId>& users, UserId user) {
  auto it = std::lower_bound(users.begin(), users.end(), user);
  if (it == users.end() || *it != user) {
    users.insert(it, user);
  }
}

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_ANALYSIS_USER_INDEX_H_

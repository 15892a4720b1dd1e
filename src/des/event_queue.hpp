// The pipeline kernel's event queue: a small array kept sorted by
// (time, seq), latest first.
#pragma once

#include <utility>
#include <vector>

namespace fepia::des {

/// Priority queue of events. `Event` carries a `double time` and an
/// unsigned `seq`; events surface in nondecreasing time, and events at
/// exactly equal times in increasing seq. Callers hand out seqs that are
/// unique within one run, which makes the pop order a total order: it
/// depends only on the (time, seq) pairs pushed, never on when each
/// event was pushed.
///
/// The array is sorted latest-first, so a pop is a pop_back and a push
/// is one insertion step. The pipeline kernel holds only in-flight work
/// (a handful of events), where this beats a binary heap's sift; a push
/// costs O(size), so it is not meant for deep queues.
template <class Event>
class EventQueue {
 public:
  void push(Event e) {
    events_.push_back(e);
    auto it = events_.end() - 1;
    for (; it != events_.begin() && earlier(*(it - 1), e); --it) {
      *it = std::move(*(it - 1));
    }
    *it = std::move(e);
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    Event e = std::move(events_.back());
    events_.pop_back();
    return e;
  }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Drops every event and keeps the storage for the next run.
  void clear() noexcept { events_.clear(); }

 private:
  /// True when `a` surfaces before `b`.
  static bool earlier(const Event& a, const Event& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::vector<Event> events_;  ///< latest first; back() is the next pop
};

}  // namespace fepia::des

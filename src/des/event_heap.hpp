// The pipeline kernel's event queue: a binary min-heap ordered by
// (time, seq).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace fepia::des {

/// Min-heap of events. `Event` carries a `double time` and an unsigned
/// `seq`; events surface in nondecreasing time, and events at exactly
/// equal times in increasing seq. Callers hand out seqs that are unique
/// within one run, which makes the pop order a total order: it depends
/// only on the (time, seq) pairs pushed, never on the heap's layout or
/// on when each event was pushed.
template <class Event>
class EventHeap {
 public:
  void push(Event e) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Drops every event and keeps the storage for the next run.
  void clear() noexcept { heap_.clear(); }

 private:
  /// The std::push_heap "less" comparator: true when `a` surfaces after
  /// `b`.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  std::vector<Event> heap_;
};

}  // namespace fepia::des

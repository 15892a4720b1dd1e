// Minimal discrete-event simulation kernel: a time-ordered event queue
// of closures, with cancellation, and single-server FIFO resources.
//
// The HiPer-D pipeline simulation (des/pipeline.hpp) does not schedule
// closures: it runs its own typed-event loop over the same (time, seq)
// heap (des/event_heap.hpp), so both order events identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>

#include "des/event_heap.hpp"
#include "obs/metrics.hpp"

namespace fepia::des {

/// Handle to a scheduled event, usable with Simulator::cancel.
using EventId = std::uint64_t;

/// Event-driven simulation clock and scheduler.
///
/// Ordering contract: events fire in nondecreasing time, and events at
/// exactly equal times fire in scheduling order (FIFO). The tie-break is
/// an explicit monotonic sequence number carried by every event — not an
/// accident of the heap implementation — so fault-injected runs, which
/// create bursts of same-instant cancel/failover events, are
/// deterministic by construction.
class Simulator {
 public:
  using Action = std::function<void()>;

  /// Current simulation time (seconds).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` seconds from now; returns a
  /// handle for cancel(). Throws std::invalid_argument for negative or
  /// non-finite delay.
  EventId schedule(double delay, Action action);

  /// Cancels a pending event. Returns true when the event was still
  /// pending (it will be silently skipped); false when it already fired,
  /// was already cancelled, or never existed. Cancellation is lazy: the
  /// tombstone is resolved when the event surfaces at the queue head.
  bool cancel(EventId id);

  /// Runs until the queue drains or `maxEvents` were processed.
  /// Returns the number of events processed (cancelled events are
  /// skipped and do not count).
  std::size_t run(std::size_t maxEvents = static_cast<std::size_t>(-1));

  [[nodiscard]] bool empty() const noexcept {
    return queue_.size() == cancelled_.size();
  }

  /// Events processed over the simulator's lifetime (all run() calls).
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return eventsProcessed_;
  }
  /// Events cancelled over the simulator's lifetime.
  [[nodiscard]] std::uint64_t eventsCancelled() const noexcept {
    return eventsCancelled_;
  }
  /// Largest event-queue depth ever observed (updated on schedule()).
  [[nodiscard]] std::size_t queueHighWater() const noexcept {
    return queueHighWater_;
  }

  /// Bumps "des.events_processed" / "des.events_cancelled" and sets
  /// gauge "des.queue_high_water".
  void exportMetrics(obs::Registry& out) const;

 private:
  struct Event {
    double time;
    EventId seq;
    Action action;
  };

  double now_ = 0.0;
  EventId nextSeq_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t eventsCancelled_ = 0;
  std::size_t queueHighWater_ = 0;
  // The top event is moved out on pop (no copy of its std::function),
  // and cancelled entries are dropped as they surface.
  EventHeap<Event> queue_;
  std::unordered_set<EventId> cancelled_;
};

/// A single-server FIFO resource (a machine or a network link). Jobs are
/// served in submission order; service starts when the server frees up.
class FifoResource {
 public:
  FifoResource(Simulator& sim, std::string name);

  /// Submits a job with the given service time; `onComplete` fires at
  /// departure. Throws std::invalid_argument for negative service time.
  void submit(double serviceTime, Simulator::Action onComplete);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Total busy (serving) time accumulated.
  [[nodiscard]] double busyTime() const noexcept { return busy_; }
  [[nodiscard]] std::size_t jobsServed() const noexcept { return jobs_; }
  /// Time at which the server next becomes idle (>= now when busy).
  [[nodiscard]] double busyUntil() const noexcept { return busyUntil_; }

 private:
  Simulator& sim_;
  std::string name_;
  double busyUntil_ = 0.0;
  double busy_ = 0.0;
  std::size_t jobs_ = 0;
};

}  // namespace fepia::des

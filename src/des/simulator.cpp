#include "des/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fepia::des {

EventId Simulator::schedule(double delay, Action action) {
  if (delay < 0.0 || !std::isfinite(delay)) {
    throw std::invalid_argument("des::Simulator::schedule: bad delay");
  }
  if (!action) {
    throw std::invalid_argument("des::Simulator::schedule: null action");
  }
  const EventId id = nextSeq_++;
  queue_.push(Event{now_ + delay, id, std::move(action)});
  const std::size_t live = queue_.size() - cancelled_.size();
  if (live > queueHighWater_) queueHighWater_ = live;
  return id;
}

bool Simulator::cancel(EventId id) {
  if (id >= nextSeq_) return false;  // never scheduled
  // A tombstone is only meaningful while the event is still queued; an
  // already-fired id would poison a future id otherwise — but ids are
  // never reused, so membership in the queue is the only question.
  const bool pending =
      std::ranges::any_of(queue_.items(),
                          [id](const Event& e) { return e.seq == id; });
  if (!pending) return false;
  if (!cancelled_.insert(id).second) return false;  // cancelled twice
  ++eventsCancelled_;
  return true;
}

std::size_t Simulator::run(std::size_t maxEvents) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < maxEvents) {
    Event ev = queue_.pop();
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) > 0) {
      continue;  // tombstoned: drop without advancing the clock
    }
    now_ = ev.time;
    ev.action();
    ++processed;
    ++eventsProcessed_;
  }
  return processed;
}

void Simulator::exportMetrics(obs::Registry& out) const {
  out.counters().bump("des.events_processed", eventsProcessed_);
  out.counters().bump("des.events_cancelled", eventsCancelled_);
  out.maxGauge("des.queue_high_water",
               static_cast<double>(queueHighWater_));
}

FifoResource::FifoResource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void FifoResource::submit(double serviceTime, Simulator::Action onComplete) {
  if (serviceTime < 0.0 || !std::isfinite(serviceTime)) {
    throw std::invalid_argument("des::FifoResource::submit: bad service time");
  }
  const double start = std::max(sim_.now(), busyUntil_);
  busyUntil_ = start + serviceTime;
  busy_ += serviceTime;
  ++jobs_;
  sim_.schedule(busyUntil_ - sim_.now(), std::move(onComplete));
}

}  // namespace fepia::des

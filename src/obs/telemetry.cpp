#include "obs/telemetry.hpp"

#include <chrono>
#include <sstream>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"

namespace fepia::obs {
namespace {

/// Milliseconds with microsecond resolution — readable timestamps that
/// still order samples taken within one interval.
double relMillis(std::uint64_t relNs) {
  return static_cast<double>(relNs / 1000) / 1000.0;
}

}  // namespace

TelemetryHub::TelemetryHub(TelemetryOptions opts, std::ostream* sink)
    : opts_(std::move(opts)),
      baseNs_(nowNanos()),
      sink_(sink),
      alerts_(opts_.alerts) {}

TelemetryHub::~TelemetryHub() { stop(); }

std::uint64_t TelemetryHub::nowRelNanos() const noexcept {
  return nowNanos() - baseNs_;
}

std::size_t TelemetryHub::addSource(SourceFn fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t id = nextSourceId_++;
  sources_.push_back(Source{id, std::move(fn)});
  return id;
}

void TelemetryHub::removeSource(std::size_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->id == id) {
      sources_.erase(it);
      return;
    }
  }
}

void TelemetryHub::publish(const Registry& reg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  base_.merge(reg);
}

std::size_t TelemetryHub::addWatchdog(std::string name,
                                      double deadlineSeconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto dog = std::make_unique<Watchdog>();
  dog->id = nextWatchdogId_++;
  dog->name = std::move(name);
  dog->deadlineNs =
      static_cast<std::uint64_t>(deadlineSeconds * 1e9);
  dog->lastNs.store(nowRelNanos(), std::memory_order_relaxed);
  const std::size_t id = dog->id;
  watchdogs_.push_back(std::move(dog));
  return id;
}

void TelemetryHub::noteProgress(std::size_t watchdogId) noexcept {
  // The clock read stays outside the lock so a sampler mid-serialise
  // cannot skew the progress timestamp.
  const std::uint64_t now = nowRelNanos();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& dog : watchdogs_) {
    if (dog->id == watchdogId) {
      dog->lastNs.store(now, std::memory_order_relaxed);
      return;
    }
  }
}

void TelemetryHub::removeWatchdog(std::size_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = watchdogs_.begin(); it != watchdogs_.end(); ++it) {
    if ((*it)->id == id) {
      watchdogs_.erase(it);
      return;
    }
  }
}

void TelemetryHub::start() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Only Idle -> Running starts a sampler; start() during Running is
  // the documented no-op and start() racing a stop() in flight must not
  // spawn a second thread into the slot being joined.
  if (state_ != State::Idle) return;
  state_ = State::Running;
  sampleLocked();  // the t=0 snapshot
  sampler_ = std::thread([this] { samplerLoop(); });
}

void TelemetryHub::stop() {
  std::thread joinable;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Exactly one caller wins Running -> Stopping and owns the join +
    // final sample. A stop() that never saw a start() (Idle) and a
    // stop() racing the winner (Stopping) both return immediately —
    // idempotent stop/double-stop/stop-without-start are all no-ops.
    if (state_ != State::Running) return;
    state_ = State::Stopping;
    joinable = std::move(sampler_);
  }
  wake_.notify_all();
  if (joinable.joinable()) joinable.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sampleLocked();  // the final snapshot — guarantees >= 2 samples
    state_ = State::Idle;
  }
}

void TelemetryHub::samplerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval = std::chrono::milliseconds(opts_.intervalMillis);
  while (state_ == State::Running) {
    if (wake_.wait_for(lock, interval,
                       [this] { return state_ != State::Running; })) {
      break;
    }
    sampleLocked();
  }
}

void TelemetryHub::sampleNow() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sampleLocked();
}

void TelemetryHub::sampleLocked() {
  const std::uint64_t seq = sampleSeq_++;
  const std::uint64_t tNs = nowRelNanos();
  Registry snapshot = base_;
  for (const Source& src : sources_) src.fn(snapshot);

  std::ostringstream record;
  JsonWriter w(record);
  w.object(JsonLayout::Compact).str("type", "sample").count("seq", seq);
  w.num("t_ms", relMillis(tNs));
  snapshot.writeJson(w.key("metrics").valueStream());
  w.end();
  writeRecordLocked(record.str());

  for (const AlertCrossing& crossing : alerts_.evaluate(snapshot)) {
    writeEventLocked("alert",
                     JsonFields()
                         .str("kind", "threshold")
                         .str("rule", crossing.rule->str())
                         .str("metric", crossing.rule->metric)
                         .num("value", crossing.value)
                         .num("threshold", crossing.rule->threshold),
                     tNs);
  }

  for (const auto& dog : watchdogs_) {
    const std::uint64_t last = dog->lastNs.load(std::memory_order_relaxed);
    const bool stalled = tNs > last && tNs - last > dog->deadlineNs;
    if (stalled && !dog->stalled) {
      writeEventLocked(
          "alert",
          JsonFields()
              .str("kind", "stall")
              .str("watchdog", dog->name)
              .num("idle_seconds", static_cast<double>(tNs - last) / 1e9)
              .num("deadline_seconds",
                   static_cast<double>(dog->deadlineNs) / 1e9),
          tNs);
    }
    dog->stalled = stalled;
  }

  latest_ = std::move(snapshot);
}

void TelemetryHub::emit(std::string_view type, const JsonFields& fields) {
  const std::uint64_t tNs = nowRelNanos();
  const std::lock_guard<std::mutex> lock(mutex_);
  writeEventLocked(type, fields, tNs);
}

void TelemetryHub::writeEventLocked(std::string_view type,
                                    const JsonFields& fields,
                                    std::uint64_t tNs) {
  JsonFields record;
  record.str("type", type).num("t_ms", relMillis(tNs)).append(fields);
  writeRecordLocked(record.object());
}

void TelemetryHub::writeRecordLocked(const std::string& line) {
  if (sink_ == nullptr) return;
  *sink_ << line << '\n';
  sink_->flush();
}

void TelemetryHub::exportPrometheus(std::ostream& os) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!latest_.has_value()) sampleLocked();
  fepia::obs::exportPrometheus(os, *latest_);
}

}  // namespace fepia::obs

// Live telemetry hub: periodic metrics sampling, structured events,
// threshold alerts, stall watchdogs, and a Prometheus-ready export.
//
// Everything the obs layer produced so far is post-mortem — spans become
// one trace file and the Registry one JSON blob at process exit. The
// TelemetryHub is the continuous-observation layer on top of the same
// primitives: a background sampler thread wakes on a fixed interval,
// assembles a snapshot Registry (the published base registry plus every
// registered live-gauge source), streams it as one JSONL record,
// evaluates the alert rules, and checks the stall watchdogs. Subsystems
// additionally push structured events (sweep heartbeats, straggler
// warnings) into the same stream through emit().
//
// The sink is the one record of a run: the hub keeps no history of its
// own, only the latest snapshot (for exportPrometheus), so a resident
// server's memory stays flat however long it samples. A reader of the
// run reads the stream.
//
// The hard guarantee carried over from the span layer: telemetry must
// be invisible to the numerics. Sources hand the sampler *copies* read
// from atomics or taken under short-lived locks — never a lock held
// across kernel work — and nothing in the hub feeds back into any
// computation, so every radius, surface, and journal byte is identical
// with telemetry on or off at any thread count (asserted by
// tests/telemetry_test.cpp at threads {1, 2, 8}).
//
// Record stream (one JSON object per line; tools/schemas/
// telemetry.schema.json specifies it, docs/observability.md documents
// it):
//   {"type":"sample","seq":N,"t_ms":T,"metrics":{...}}    periodic
//   {"type":"heartbeat","t_ms":T,...}                     per sweep shard
//   {"type":"warning","t_ms":T,"kind":"straggler",...}    slow shard
//   {"type":"alert","t_ms":T,"kind":"threshold",...}      rule crossing
//   {"type":"alert","t_ms":T,"kind":"stall",...}          watchdog
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/alert.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fepia::obs {

/// Sampler configuration.
struct TelemetryOptions {
  /// Sampling period of the background thread.
  std::uint64_t intervalMillis = 250;
  /// Threshold rules evaluated against every sample.
  std::vector<AlertRule> alerts;
};

/// The hub. Construct, register sources/watchdogs, start(); stop() (or
/// the destructor) joins the sampler after one final sample, so a run
/// always emits at least the first and last snapshots regardless of the
/// interval. All public methods are thread-safe.
class TelemetryHub {
 public:
  /// A live-gauge source: called by the sampler with the snapshot under
  /// construction; must only read atomics or take short-lived locks
  /// (never a lock held across kernel work) and must stay valid until
  /// removeSource.
  using SourceFn = std::function<void(Registry&)>;

  /// `sink` receives the JSONL stream (flushed per record); nullptr
  /// discards it. The hub does not own the stream.
  explicit TelemetryHub(TelemetryOptions opts, std::ostream* sink = nullptr);
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Registers a live-gauge source; returns its id for removeSource.
  std::size_t addSource(SourceFn fn);
  void removeSource(std::size_t id);

  /// Merges `reg` into the hub's base registry (the accumulated
  /// post-join metrics every snapshot starts from).
  void publish(const Registry& reg);

  /// Registers a stall watchdog: when no noteProgress(id) call lands
  /// within `deadlineSeconds`, the next sample emits one
  /// {"type":"alert","kind":"stall"} event (re-armed by progress).
  /// The watchdog starts "fed" at registration time.
  std::size_t addWatchdog(std::string name, double deadlineSeconds);
  /// Feeds watchdog `id`: a brief lookup under the hub lock plus one
  /// relaxed store. Cheap enough for per-sweep-point use (points cost
  /// whole estimator runs), but keep it off per-classification paths.
  void noteProgress(std::size_t watchdogId) noexcept;
  void removeWatchdog(std::size_t id);

  /// Starts the background sampler (takes an immediate first sample).
  /// No-op when already running.
  void start();
  /// Takes a final sample, stops and joins the sampler. Idempotent.
  void stop();

  /// Takes one sample synchronously (also evaluates alerts/watchdogs).
  void sampleNow();

  /// Emits one structured event into the stream, timestamped by the
  /// hub's clock: {"type":<type>,"t_ms":T<fields>}. For example
  ///   hub.emit("heartbeat", obs::JsonFields().count("shard", s)
  ///                             .num("eta_seconds", eta));
  void emit(std::string_view type, const JsonFields& fields);

  /// Writes the latest snapshot (taking a fresh one when none exists
  /// yet) in the Prometheus text exposition format — the payload of the
  /// future fepiad /metrics scrape endpoint.
  void exportPrometheus(std::ostream& os);

 private:
  struct Source {
    std::size_t id;
    SourceFn fn;
  };
  struct Watchdog {
    std::size_t id = 0;
    std::string name;
    std::uint64_t deadlineNs = 0;
    std::atomic<std::uint64_t> lastNs{0};
    bool stalled = false;  ///< sampler thread only (under mutex_)
  };

  /// Sampler lifecycle. A plain `running_` bool made concurrent stop()
  /// racy: the second caller saw running_ still true, joined a
  /// moved-from thread, and took a duplicate final sample. The explicit
  /// state machine gives every transition one owner: start() only moves
  /// Idle -> Running; the stop() call that wins the Running -> Stopping
  /// transition is the only one that joins and takes the final sample
  /// (back to Idle); every other start()/stop() is a no-op — so
  /// stop-without-start, double-stop, and concurrent stop are all safe.
  enum class State { Idle, Running, Stopping };

  void samplerLoop();
  /// Assembles a snapshot, writes the sample record, runs alerts +
  /// watchdogs, and keeps the snapshot as latest_. Requires mutex_ held.
  void sampleLocked();
  /// Writes one event record (with timestamp `tNs`). Requires mutex_
  /// held.
  void writeEventLocked(std::string_view type, const JsonFields& fields,
                        std::uint64_t tNs);
  void writeRecordLocked(const std::string& line);
  [[nodiscard]] std::uint64_t nowRelNanos() const noexcept;

  const TelemetryOptions opts_;
  const std::uint64_t baseNs_;
  std::ostream* sink_;

  std::mutex mutex_;
  std::condition_variable wake_;
  State state_ = State::Idle;  ///< under mutex_
  std::thread sampler_;

  std::vector<Source> sources_;
  std::size_t nextSourceId_ = 0;
  std::deque<std::unique_ptr<Watchdog>> watchdogs_;  ///< stable addresses
  std::size_t nextWatchdogId_ = 0;
  Registry base_;
  AlertEngine alerts_;
  std::optional<Registry> latest_;  ///< the last snapshot taken
  std::uint64_t sampleSeq_ = 0;
};

/// Registers a live-gauge source on `hub` (nullptr: none) and unhooks it
/// before the frame that feeds it dies — the sampler thread must never
/// call into dead locals, including on early returns and exceptions.
struct SourceGuard {
  TelemetryHub* hub = nullptr;
  std::size_t id = 0;
  SourceGuard(TelemetryHub* h, TelemetryHub::SourceFn fn)
      : hub(h), id(h != nullptr ? h->addSource(std::move(fn)) : 0) {}
  SourceGuard(const SourceGuard&) = delete;
  SourceGuard& operator=(const SourceGuard&) = delete;
  ~SourceGuard() {
    if (hub != nullptr) hub->removeSource(id);
  }
};

}  // namespace fepia::obs

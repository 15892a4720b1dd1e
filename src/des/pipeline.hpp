// Queueing simulation of a HiPer-D pipeline.
//
// Sensors emit synchronized data-set generations at the required
// throughput rate; each application processes a generation once all its
// input messages have arrived, on its machine's FIFO server; messages
// occupy their link's FIFO server for bytes/bandwidth seconds. The
// simulation measures achieved end-to-end latency per path and whether
// the pipeline sustains the input rate (stable queues) — the empirical
// ground truth against which the analytic robustness radius is checked.
//
// Fault injection: PipelineOptions::faults points at a FaultInjector
// (implemented by fault::PlanInjector from a fault::FaultPlan). When
// set, the simulation additionally models discrete perturbation kinds —
// machine crashes survived by failover to a backup after a detection
// timeout, transient compute/transfer slowdowns, and message loss
// retried with capped exponential backoff — and reports the degradation
// counters in PipelineResult::faults.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "des/event_heap.hpp"
#include "hiperd/system.hpp"
#include "la/vector.hpp"

namespace fepia::des {

/// Degradation bookkeeping of a fault-injected run.
struct FaultCounters {
  /// Compute jobs re-dispatched to a backup machine after a crash.
  std::uint64_t failovers = 0;
  /// Transfer attempts lost in flight.
  std::uint64_t lostMessages = 0;
  /// Retransmissions issued for lost transfers.
  std::uint64_t retries = 0;
  /// Transfers abandoned after the retry budget was exhausted.
  std::uint64_t droppedMessages = 0;
  /// Compute jobs with no live machine left to fail over to.
  std::uint64_t unrecoveredJobs = 0;
  /// Job-seconds spent waiting for crash detection + failover dispatch.
  double downtimeSeconds = 0.0;
  /// Seconds spent in retry backoff across all lost transfers.
  double backoffWaitSeconds = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return failovers || lostMessages || retries || droppedMessages ||
           unrecoveredJobs;
  }
};

/// Fault-injection hooks consulted by simulatePipeline. Implementations
/// must be deterministic pure functions of their arguments (the
/// simulation replays bit-identically from the same inputs); the stock
/// implementation is fault::PlanInjector. All hooks describe a fault
/// *plan*, fixed before the run — the simulation never feeds back into
/// the injector.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Time at which `machine` crashes (never recovers); +inf = never.
  [[nodiscard]] virtual double crashTime(std::size_t machine) const = 0;
  /// Failover target for work stranded on crashed `machine`; nullopt =
  /// no backup configured (the job is unrecoverable).
  [[nodiscard]] virtual std::optional<std::size_t> backupFor(
      std::size_t machine) const = 0;
  /// Failure-detection timeout: a machine's crash becomes known (and
  /// failover possible) this many seconds after it happens. Jobs
  /// stranded earlier wait until detection; once the failure is known,
  /// later dispatches reroute to the backup without extra delay.
  [[nodiscard]] virtual double detectionTimeout() const = 0;

  /// Multiplier on the service time of a compute job *starting* on
  /// `machine` at time `t` (transient slowdown windows; 1 = nominal).
  [[nodiscard]] virtual double computeFactor(std::size_t machine,
                                             double t) const = 0;
  /// Multiplier on the service time of a transfer starting on `link`.
  [[nodiscard]] virtual double transferFactor(std::size_t link,
                                              double t) const = 0;

  /// True when transfer attempt `attempt` (0-based) of message `k` in
  /// generation `g` is lost in flight. Must depend only on (k, g,
  /// attempt) so the draw is independent of event interleaving.
  [[nodiscard]] virtual bool messageLost(std::size_t k, std::size_t g,
                                         std::size_t attempt) const = 0;
  /// Backoff before retransmission number `attempt + 1` (capped
  /// exponential in the stock implementation).
  [[nodiscard]] virtual double retryBackoff(std::size_t attempt) const = 0;
  /// Retransmissions allowed per message-generation before it is
  /// dropped for good.
  [[nodiscard]] virtual std::size_t maxRetries() const = 0;
};

/// Result of a pipeline simulation.
struct PipelineResult {
  /// Post-warmup end-to-end latencies, one vector per system path.
  std::vector<std::vector<double>> pathLatencies;
  /// busy / elapsed per machine and link (may exceed 1 only transiently).
  std::vector<double> machineUtilization;
  std::vector<double> linkUtilization;
  /// Largest post-warmup latency across paths.
  double maxObservedLatency = 0.0;
  /// Least-squares slope of latency vs generation (seconds/generation),
  /// maximised over paths. Positive slope => queues grow => the input
  /// rate is not sustainable.
  double latencyGrowthPerGeneration = 0.0;
  /// True when the pipeline is stable at the offered rate.
  bool throughputSustained = false;
  double simulatedSeconds = 0.0;
  std::size_t generations = 0;
  /// Path-generation pairs whose terminal app never completed. Zero for
  /// a well-formed DAG pipeline without faults; under fault injection,
  /// dropped messages and unrecoverable jobs surface here.
  std::size_t incompleteObservations = 0;
  /// Simulator kernel statistics for this run.
  std::uint64_t eventsProcessed = 0;
  std::size_t queueHighWater = 0;
  /// Degradation counters (all zero when no injector was configured).
  FaultCounters faults{};

  /// True when the run respects `maxLatency` and sustains throughput.
  /// Under fault injection the run must also have *completed* every
  /// observation — a generation silently lost to an unrecovered fault is
  /// a QoS violation, not a free pass.
  [[nodiscard]] bool satisfies(double maxLatencySeconds) const noexcept {
    return throughputSustained && maxObservedLatency <= maxLatencySeconds &&
           incompleteObservations == 0;
  }
};

/// Simulation parameters.
struct PipelineOptions {
  std::size_t generations = 400;   ///< data-set generations to emit
  /// Fraction of the generations excluded from statistics; in [0, 1).
  double warmupFraction = 0.25;
  /// Stability threshold: sustained iff total post-warmup drift
  /// (slope x generations) is below this fraction of one period. Finite
  /// and nonnegative.
  double driftTolerance = 0.01;
  /// Multiplicative gamma noise on every service time (compute and
  /// transfer): each job's time is scaled by Gamma(mean 1, CoV = this).
  /// 0 keeps the pipeline deterministic. Models run-to-run execution
  /// time variability on top of the (e ⋆ m) operating point.
  double serviceJitterCov = 0.0;
  std::uint64_t jitterSeed = 0x1234ABCDull;
  /// Fault-injection hooks; null (the default) runs the exact fault-free
  /// code path. Not owned; must outlive the call.
  const FaultInjector* faults = nullptr;
};

/// Result of a verdict-only run (PipelineKernel::verdict).
struct PipelineVerdict {
  /// Equal to simulate(...).satisfies(maxLatencySeconds) on the same
  /// inputs.
  bool satisfies = false;
  /// True when a post-warmup end-to-end latency above the bound ended
  /// the run before its queue drained. Such a latency already decides
  /// satisfies() == false, since maxObservedLatency only grows.
  bool stoppedEarly = false;
  /// Degradation counters of the simulated part of the run: the prefix
  /// up to the stop when stoppedEarly, the whole run otherwise.
  FaultCounters faults{};
};

/// A pipeline compiled for repeated simulation. Construction derives
/// the static wiring once (in-degrees, outgoing messages, path
/// terminals) and rejects a cyclic message graph with
/// std::invalid_argument. Copies share the wiring and each own their
/// event queue and per-run buffers, which are reused from run to run:
/// one copy per thread runs without synchronisation.
///
/// The event loop is a typed-event kernel. Each event is a small POD
/// (time, seq, kind, app or message, generation, machine or attempt)
/// in a reused (time, seq) heap, dispatched by a switch. Emission g+1
/// is queued when emission g fires, under the seq reserved for it, so
/// the queue holds only in-flight work. Seqs and event times are those
/// of a scheduler that queued all emissions first (seqs 0..gens-1) and
/// numbered every later event in scheduling order, so every result is
/// deterministic and fixed by its inputs.
class PipelineKernel {
 public:
  explicit PipelineKernel(const hiperd::System& sys);

  /// Simulates the pipeline with explicit per-app execution seconds
  /// and per-message sizes at the given arrival rate; see
  /// simulatePipeline.
  [[nodiscard]] PipelineResult simulate(const la::Vector& execSeconds,
                                        const la::Vector& messageBytes,
                                        double arrivalRate,
                                        const PipelineOptions& opts = {});

  /// The QoS verdict of simulate(...) alone. The run stops at the first
  /// post-warmup end-to-end latency above `maxLatencySeconds`; every
  /// other run is simulated in full, because the throughput-drift test
  /// needs all observations.
  [[nodiscard]] PipelineVerdict verdict(const la::Vector& execSeconds,
                                        const la::Vector& messageBytes,
                                        double arrivalRate,
                                        double maxLatencySeconds,
                                        const PipelineOptions& opts = {});

 private:
  struct Wiring;
  enum class Kind : std::uint8_t;
  struct Event {
    double time;
    std::uint64_t seq;
    std::uint32_t id;   ///< app (compute, failover) or message (transfer)
    std::uint32_t gen;  ///< generation
    std::uint32_t aux;  ///< backup machine (failover) or attempt (transfer)
    std::uint16_t hops; ///< failovers so far (failover)
    Kind kind;
  };
  /// A single-server FIFO queue: a machine or a link.
  struct Server {
    double busyUntil = 0.0;
    double busy = 0.0;
  };

  void check(const la::Vector& execSeconds, const la::Vector& messageBytes,
             double arrivalRate, const PipelineOptions& opts) const;
  /// Runs the event loop; returns true when it stopped on a post-warmup
  /// latency above `stopAbove`.
  bool run(const la::Vector& execSeconds, const la::Vector& messageBytes,
           double period, const PipelineOptions& opts, double stopAbove);
  /// Fills the observation statistics of `res` (generations, simulated
  /// seconds, latencies, incompleteness, drift) from the last run;
  /// keeps each path's latencies when `keepLatencies`.
  void observe(const PipelineOptions& opts, double period, bool keepLatencies,
               PipelineResult& res);
  /// Adds the machine downtime within the last run's horizon to the
  /// fault counters.
  void addDowntime(const FaultInjector* faults);

  std::shared_ptr<const Wiring> wiring_;
  // Per-run state, reused by the next run.
  EventHeap<Event> queue_;
  std::vector<Server> machines_;
  std::vector<Server> links_;
  std::vector<std::uint32_t> arrived_; ///< [app * gens + g] inputs in
  std::vector<double> finish_;         ///< [terminal * gens + g], -1 = never
  std::vector<double> latencies_;      ///< observe() scratch
  FaultCounters faults_;
  double now_ = 0.0;
  std::uint64_t events_ = 0;
  std::size_t highWater_ = 0;
};

/// Simulates the pipeline with explicit per-app execution seconds and
/// per-message sizes (the (e ⋆ m) perturbation realisation) at the given
/// arrival rate (data sets per second per sensor generation).
/// Throws std::invalid_argument on dimension mismatch, bad rate or bad
/// options (a warmupFraction outside [0, 1), a driftTolerance that is
/// negative or not finite).
[[nodiscard]] PipelineResult simulatePipeline(const hiperd::System& sys,
                                              const la::Vector& execSeconds,
                                              const la::Vector& messageBytes,
                                              double arrivalRate,
                                              const PipelineOptions& opts = {});

/// Convenience: derives execution times and message sizes from the
/// load-based model at `loads`, then simulates.
[[nodiscard]] PipelineResult simulateAtLoads(const hiperd::System& sys,
                                             const la::Vector& loads,
                                             double arrivalRate,
                                             const PipelineOptions& opts = {});

}  // namespace fepia::des

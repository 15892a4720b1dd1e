// A fault plan compiled to the per-entity tables the pipeline kernel
// reads: crash time and backup per machine, slowdown windows per
// machine and link, loss probability per message, the loss seed and the
// retry policy. The hooks are inline table lookups, so a fault-injected
// run makes no indirect call per event.
//
// The tables are filled by fault::PlanInjector, which validates a
// fault::FaultPlan against the system first; this header knows nothing
// of plans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "rng/xoshiro.hpp"

namespace fepia::des {

/// Degradation-handling knobs shared by every fault in a plan.
struct RetryPolicy {
  /// Delay between a job hitting a crashed machine and its re-dispatch
  /// to the backup.
  double detectionTimeoutSeconds = 0.05;
  /// Backoff before retransmission n is initial * factor^n, capped.
  double initialBackoffSeconds = 0.01;
  double backoffFactor = 2.0;
  double maxBackoffSeconds = 0.5;
  /// Retransmissions allowed per message-generation before the transfer
  /// is dropped for good.
  std::size_t maxRetries = 8;
};

/// Fault hooks consulted by the pipeline kernel. Every hook is a pure
/// function of its arguments and the tables, fixed before the run (the
/// simulation replays bit-identically from the same inputs, and never
/// feeds back into the model).
class FaultModel {
 public:
  /// Time at which `machine` crashes (never recovers); +inf = never.
  [[nodiscard]] double crashTime(std::size_t machine) const {
    return crashAt_[machine];
  }
  /// Failover target for work stranded on crashed `machine`; nullopt =
  /// no backup configured (the job is unrecoverable).
  [[nodiscard]] std::optional<std::size_t> backupFor(
      std::size_t machine) const {
    return backup_[machine];
  }
  /// Failure-detection timeout: a machine's crash becomes known (and
  /// failover possible) this many seconds after it happens. Jobs
  /// stranded earlier wait until detection; once the failure is known,
  /// later dispatches reroute to the backup without extra delay.
  [[nodiscard]] double detectionTimeout() const {
    return policy_.detectionTimeoutSeconds;
  }

  /// Multiplier on the service time of a compute job *starting* on
  /// `machine` at time `t` (1 = nominal). Windows are half-open
  /// [from, to) and compound multiplicatively where they overlap.
  [[nodiscard]] double computeFactor(std::size_t machine, double t) const {
    return factorAt(machineWindows_[machine], t);
  }
  /// Multiplier on the service time of a transfer starting on `link`.
  [[nodiscard]] double transferFactor(std::size_t link, double t) const {
    return factorAt(linkWindows_[link], t);
  }

  /// True when transfer attempt `attempt` (0-based) of message `k` in
  /// generation `g` is lost in flight.
  [[nodiscard]] bool messageLost(std::size_t k, std::size_t g,
                                 std::size_t attempt) const {
    const double p = lossProb_[k];
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    // Stateless hash of (seed, k, g, attempt): the draw is a pure
    // function of the transfer's identity, independent of event
    // interleaving, so fault-injected runs stay bit-identical at any
    // thread count.
    std::uint64_t h =
        rng::SplitMix64(lossSeed_ ^ (0x9E3779B97F4A7C15ull *
                                     (static_cast<std::uint64_t>(k) + 1)))
            .next();
    h = rng::SplitMix64(h ^ (0xBF58476D1CE4E5B9ull *
                             (static_cast<std::uint64_t>(g) + 1)))
            .next();
    h = rng::SplitMix64(h ^ (0x94D049BB133111EBull *
                             (static_cast<std::uint64_t>(attempt) + 1)))
            .next();
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
  }
  /// Backoff before retransmission number `attempt + 1`: capped
  /// exponential.
  [[nodiscard]] double retryBackoff(std::size_t attempt) const {
    double b = policy_.initialBackoffSeconds;
    for (std::size_t i = 0; i < attempt; ++i) {
      b *= policy_.backoffFactor;
      if (b >= policy_.maxBackoffSeconds) break;
    }
    return std::min(b, policy_.maxBackoffSeconds);
  }
  /// Retransmissions allowed per message-generation before it is
  /// dropped for good.
  [[nodiscard]] std::size_t maxRetries() const { return policy_.maxRetries; }

 protected:
  /// A service-time multiplier over [from, to).
  struct Window {
    double from, to, factor;
  };

  /// Only a builder that fills the tables (fault::PlanInjector) makes
  /// one.
  FaultModel() = default;

  std::vector<double> crashAt_;                     ///< per machine; +inf = never
  std::vector<std::optional<std::size_t>> backup_;  ///< per machine
  std::vector<std::vector<Window>> machineWindows_; ///< per machine
  std::vector<std::vector<Window>> linkWindows_;    ///< per link
  std::vector<double> lossProb_;                    ///< per message
  RetryPolicy policy_;
  std::uint64_t lossSeed_ = 0;

 private:
  static double factorAt(const std::vector<Window>& windows, double t) {
    double f = 1.0;
    for (const Window& w : windows) {
      if (t >= w.from && t < w.to) f *= w.factor;
    }
    return f;
  }
};

}  // namespace fepia::des

// Fault plans: discrete perturbation kinds for the DES pipeline.
//
// The paper's premise is robustness against *multiple kinds* of
// perturbations, and its FePIA substrate (Ali et al., TPDS 2004)
// explicitly lists machine failures next to execution-time drift as a
// kind a general approach must cover. A FaultPlan is a deterministic
// description of such discrete perturbations — machine crashes, bounded
// slowdown windows, message loss — that des::simulatePipeline injects
// through a des::FaultModel while the graceful-degradation
// machinery (failover to a backup after a detection timeout, capped
// exponential retry backoff) tries to keep QoS intact.
//
// Determinism contract: a plan is data, not a process. Crash times and
// slowdown windows are fixed numbers; message-loss decisions are a
// stateless hash of (seed, message, generation, attempt) on the
// repo-wide splitmix/xoshiro substream discipline — so a fault-injected
// run is bit-reproducible at any thread count and independent of event
// interleaving.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "des/pipeline.hpp"
#include "hiperd/system.hpp"

namespace fepia::fault {

/// Permanent loss of one machine at a point in time. Work stranded on
/// the machine fails over to `backup` (when set) once the failure is
/// detected.
struct MachineCrash {
  std::size_t machine = 0;
  double atSeconds = 0.0;
  /// Failover target; nullopt leaves stranded jobs unrecoverable.
  std::optional<std::size_t> backup;
};

/// Transient slowdown: service times on the target are multiplied by
/// `factor` for jobs starting within [fromSeconds, toSeconds).
/// Overlapping windows on the same target compound multiplicatively.
struct Slowdown {
  enum class Target { Machine, Link };
  Target target = Target::Machine;
  std::size_t index = 0;
  double fromSeconds = 0.0;
  double toSeconds = 0.0;
  double factor = 1.0;  ///< > 1 degrades; (0, 1) would speed up
};

/// Per-attempt message loss on one link. Lost transfers still occupy
/// the link (the bytes were sent; the loss surfaces at the receiver),
/// then retry under the plan's RetryPolicy.
struct MessageLoss {
  std::size_t link = 0;
  double probability = 0.0;  ///< in [0, 1]
};

/// Degradation-handling knobs shared by every fault in a plan.
using RetryPolicy = des::RetryPolicy;

/// A complete fault scenario for one simulation run.
struct FaultPlan {
  std::vector<MachineCrash> crashes;
  std::vector<Slowdown> slowdowns;
  std::vector<MessageLoss> losses;
  RetryPolicy policy;
  /// Seed of the message-loss substream (only consulted when a loss
  /// entry has positive probability).
  std::uint64_t lossSeed = 0xFA01B5EEDull;

  /// True when the plan injects nothing (no crashes, slowdowns or
  /// losses). An empty plan must leave the simulation bit-identical to
  /// a run without any injector.
  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && slowdowns.empty() && losses.empty();
  }

  /// Number of injected fault events — the size term of the degraded
  /// radius backend's cost model (each event adds failover/retry work to
  /// every DES classification).
  [[nodiscard]] std::size_t eventCount() const noexcept {
    return crashes.size() + slowdowns.size() + losses.size();
  }

  /// Validates every index against `sys` and every number against its
  /// domain (finite nonnegative times, probability in [0, 1], positive
  /// finite factors, backup != machine). Throws std::invalid_argument.
  void validateAgainst(const hiperd::System& sys) const;
};

/// A FaultPlan compiled into the des::FaultModel tables the pipeline
/// kernel reads. Holds references to neither the plan nor the system
/// after construction; crash data and loss probabilities are resolved
/// per machine and per message up front.
class PlanInjector final : public des::FaultModel {
 public:
  /// Validates the plan against `sys` (throws std::invalid_argument).
  PlanInjector(const FaultPlan& plan, const hiperd::System& sys);
};

/// Knobs for samplePlan.
struct SamplerOptions {
  std::size_t crashes = 1;
  std::size_t slowdowns = 1;
  std::size_t losses = 1;
  /// Crash instants and slowdown windows are drawn within [0, horizon).
  double horizonSeconds = 20.0;
  double maxSlowdownFactor = 3.0;
  double maxLossProbability = 0.2;
};

/// Draws a random (but seed-deterministic) plan against `sys`: crash
/// machines with round-robin backups, slowdown windows alternating
/// between machines and links, and per-link loss rates. Entries that
/// the topology cannot support (a slowdown on a system without links, a
/// second machine to back up to) are skipped, so the result is always
/// valid against `sys`.
[[nodiscard]] FaultPlan samplePlan(const hiperd::System& sys,
                                   const SamplerOptions& opts,
                                   std::uint64_t seed);

}  // namespace fepia::fault

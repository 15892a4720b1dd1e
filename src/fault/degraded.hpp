// Degraded-mode robustness radius.
//
// The analytic rho of the paper measures distance to the QoS boundary
// under *continuous* perturbations (execution-time drift, message-size
// growth). This module measures the same distance while *discrete*
// perturbation kinds — the fault scenarios of fault::FaultPlan — are
// simultaneously active in the DES: the Monte-Carlo validator samples
// the joint (continuous perturbation x fault scenario) space by keying a
// deterministic scenario off every probe-direction index, and the
// smallest boundary distance found is the degraded-mode empirical
// radius. With no scenarios the construction collapses, by sharing the
// code path, to the plain DES cross-check of `fepia_cli validate --des`
// — bit-for-bit, which the determinism tests assert.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "des/pipeline.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "validate/empirical.hpp"

namespace fepia::fault {

/// Live degradation totals across every DES classification so far, for
/// the telemetry sampler to watch while an estimation runs. All relaxed
/// atomics; the estimator only ever adds to them — fault retry/drop
/// *rates* are derived by the sampler from successive snapshots.
struct LiveFaultStats {
  std::atomic<std::uint64_t> classifications{0};  ///< DES runs completed
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> droppedMessages{0};

  /// Sets the fault.live_classifications, fault.live_retries and
  /// fault.live_dropped gauges from the current totals.
  void writeGauges(obs::Registry& reg) const;
};

/// Knobs of the degraded estimate beyond the estimator's own options.
struct DegradedOptions {
  /// Data-set generations per DES classification (the validate --des
  /// setting; small keeps thousands of classifications viable).
  std::size_t generations = 200;
  /// True when the caller chose EstimatorOptions::directions explicitly
  /// (the --samples flag); false applies the --des default of 64.
  bool explicitDirections = false;
  /// Multiplicative per-job service-time jitter CoV passed through to
  /// des::PipelineOptions (0 keeps every classification deterministic
  /// from its operating point alone — the STOCH sweep's knob).
  double serviceJitterCov = 0.0;
  /// Optional telemetry sink: each DES classification adds its fault
  /// counters here as it completes (relaxed adds on the worker threads;
  /// never read back, so results are unaffected).
  LiveFaultStats* live = nullptr;
};

/// Applies the DES-specific estimator tuning of `validate --des` to
/// `base`: 64 directions unless explicitly chosen, chunk size capped at
/// 8, horizon 4 (relative coordinates; operating points go unphysical
/// beyond 1), 12 polish sweeps (each classification is a full DES run).
[[nodiscard]] validate::EstimatorOptions desEstimatorOptions(
    validate::EstimatorOptions base, bool explicitDirections);

/// Result of a degraded-mode estimation.
struct DegradedEstimate {
  /// Analytic rho of the fault-free problem (normalized-by-original
  /// merge scheme) — the paper's radius, for comparison.
  double analyticRho = 0.0;
  /// Name of the critical feature realising the analytic rho.
  std::string criticalFeature;
  /// Empirical radius under active fault scenarios. Zero (with an empty
  /// sample) when the scenarios already break QoS at the operating
  /// point; equal to the plain --des estimate when no scenario injects
  /// anything.
  validate::EmpiricalEstimate degraded;
  /// One simulation of scenario 0 (or the fault-free pipeline when
  /// `scenarios` is empty) at the unperturbed operating point.
  des::PipelineResult nominal;
  /// nominal.satisfies(qos.maxLatencySeconds).
  bool nominalSatisfies = false;
};

/// Estimates the degraded-mode empirical robustness radius of `ref`
/// under `scenarios`. Probe direction i runs against scenario
/// i % scenarios.size() (every evaluation along one ray sees the same
/// scenario); an empty scenario list — or one whose every plan is
/// empty — reproduces the fault-free DES classification exactly.
/// Deterministic for fixed options at any thread count. Scenario plans
/// are validated against the system (throws std::invalid_argument).
[[nodiscard]] DegradedEstimate estimateDegradedRadius(
    const hiperd::ReferenceSystem& ref, const std::vector<FaultPlan>& scenarios,
    const validate::EstimatorOptions& estimator, const DegradedOptions& opts = {},
    parallel::ThreadPool* pool = nullptr);

}  // namespace fepia::fault

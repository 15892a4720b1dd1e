// Radius backend kernels: one interface over the four radius engines.
//
// The paper's robustness radius has four implementations in this repo —
// the closed-form analytic stack (src/radius/closed_forms + merge), the
// AD-driven numeric boundary solver (src/radius/engine + src/opt), the
// Monte-Carlo empirical estimator (src/validate), and the fault-degraded
// DES sampler (src/fault/degraded). Historically every caller hard-coded
// its choice. A Backend wraps one implementation as a registered kernel
// with three declared properties the scheduler needs:
//
//   capability — a predicate over the problem (feature linearity /
//     closed-form structure, dimensionality, DES requirement, fault
//     scenarios) saying whether this kernel can answer at all;
//   cost — calibrated constants x problem size, an estimate of the work
//     in abstract classification units plus a units-per-second constant
//     that turns it into wall seconds for deadline scheduling;
//   accuracy — the declared maximum relative error of the answer, which
//     doubles as the agreement envelope: every outcome carries the
//     interval [rho·(1-e), rho·(1+e)] (or the bootstrap CI for sampling
//     kernels), and any two capable backends must produce overlapping
//     intervals on the same problem (tests/backend_agreement_test.cpp).
//
// The global BackendRegistry lists the built-in backends (see
// registry.hpp); solveRadius (scheduler.hpp) picks the cheapest capable
// one meeting the requested accuracy.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/engine.hpp"
#include "radius/fepia.hpp"
#include "radius/merge.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace fepia::radius::backend {

/// Typed failure of backend selection or a backend solve: no capable
/// backend, an unknown/incapable override, or every candidate failing.
/// Callers (the CLI) turn it into a one-line diagnostic and exit 1.
class BackendError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The problem a backend is asked to solve: a FepiaProblem under a merge
/// scheme, optionally classified by discrete-event simulation of a
/// reference system with fault scenarios active. Non-owning — the caller
/// keeps `problem` / `system` alive across the solve.
struct RadiusProblem {
  /// The analytic feature-stack problem. May be null only when `system`
  /// is set and the classification is DES-based (fault-sim has no
  /// explicit FepiaProblem; the degraded kernel derives it).
  const FepiaProblem* problem = nullptr;
  MergeScheme scheme = MergeScheme::NormalizedByOriginal;
  /// DES-backed reference system; required by DES-classifying kernels.
  const hiperd::ReferenceSystem* system = nullptr;
  /// Active fault scenarios (probe direction i runs against scenario
  /// i % scenarios.size()); only fault-capable kernels accept them.
  std::vector<fault::FaultPlan> scenarios;
  /// True: classify the safe region by simulating the pipeline against
  /// QoS (the `validate --des` / fault-sim question) instead of the
  /// analytic feature stack. The two questions have different answers —
  /// queueing shrinks the region — so kernels declare which one they
  /// compute and the scheduler never substitutes one for the other.
  bool desClassification = false;

  [[nodiscard]] std::size_t dimension() const;
  [[nodiscard]] std::size_t featureCount() const;
  /// Every feature has a closed-form boundary (linear or quadratic).
  [[nodiscard]] bool allFeaturesClosedForm() const;
  /// Throws std::invalid_argument on an unsolvable description (neither
  /// problem nor system set, or DES classification without a system).
  void validate() const;
};

/// What the caller wants from solveRadius.
struct RadiusRequest {
  /// Maximum acceptable declared relative error. Backends whose declared
  /// accuracy is worse are skipped when a better one is capable; when no
  /// capable backend meets the bound the scheduler relaxes it (recording
  /// the relaxation in the fallback chain) rather than failing.
  double accuracy = 1e-2;
  /// Wall-clock budget; backends whose cost-model estimate exceeds it
  /// are skipped the same graceful way. Infinity = no deadline.
  double deadlineSeconds = std::numeric_limits<double>::infinity();
  /// Forces one backend by name. Unknown or incapable -> BackendError
  /// (the CLI --backend contract: exit 1 with a diagnostic).
  std::string backendOverride;
  /// Options forwarded verbatim to the sampling kernels — the empirical
  /// estimator's directions/seed/metrics and the degraded DES knobs.
  /// Passing them through unchanged is what keeps registry-routed
  /// callers bit-identical to the direct calls they replaced.
  validate::EstimatorOptions estimator{};
  fault::DegradedOptions degraded{};
  /// Options for the numeric boundary solver.
  NumericOptions numeric{};
  /// Optional metrics sink for registry.* counters. obs::Registry is not
  /// thread-safe: leave null when calling solveRadius concurrently (the
  /// sweep engine does) and bump from one thread only.
  obs::Registry* metrics = nullptr;
};

/// The declared accuracy envelope of an answer: the interval the true
/// radius is claimed to lie in. Two backends agree on a problem when
/// their envelopes overlap (Michael et al.'s uncertainty-interval
/// criterion, applied to radius backends).
struct AccuracyInterval {
  double lo = std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool contains(double x) const noexcept {
    return lo <= x && x <= hi;
  }
  [[nodiscard]] bool overlaps(const AccuracyInterval& other) const noexcept {
    return lo <= other.hi && other.lo <= hi;
  }
};

/// One scheduler decision that did not produce the final answer: a
/// backend skipped by a predicate or bound, or one that failed at solve
/// time. The full chain is recorded in the outcome and surfaced through
/// the registry.* metrics.
struct FallbackStep {
  std::string backend;  ///< backend name, or "(scheduler)" for decisions
  std::string reason;
};

/// The result of a routed radius solve.
struct RadiusOutcome {
  /// The robustness radius (+inf when no finite boundary is reachable).
  double rho = std::numeric_limits<double>::infinity();
  /// Declared accuracy envelope around rho (bootstrap CI based for the
  /// sampling kernels). {inf, inf} when rho is infinite.
  AccuracyInterval envelope{};
  /// Name and index of the feature realising rho (empty/0 when the
  /// kernel has no per-feature decomposition).
  std::string criticalFeature;
  std::size_t criticalFeatureIndex = 0;
  /// True when every per-feature radius came from an exact closed form.
  bool exact = false;
  /// Work actually spent, in feature evaluations / safe-region
  /// classifications (the cost model's unit).
  std::uint64_t classifications = 0;

  // ---- filled by the scheduler --------------------------------------
  std::string backendName;        ///< the kernel that produced the answer
  double declaredAccuracy = 0.0;  ///< its accuracy(problem, request)
  double costEstimate = 0.0;      ///< its cost(problem, request)
  /// Everything considered-and-rejected or attempted-and-failed before
  /// this answer, in decision order. Empty for a clean first-choice hit.
  std::vector<FallbackStep> fallbacks;

  // ---- kernel-specific payloads (at most one is set) ----------------
  /// Analytic / numeric kernels: the full per-feature merged report.
  std::shared_ptr<const MergedRobustnessReport> merged;
  /// Empirical kernel: the per-feature + joint comparison rows.
  std::shared_ptr<const validate::SchemeValidation> validation;
  /// Degraded kernel: the DES estimate with nominal-run counters.
  std::shared_ptr<const fault::DegradedEstimate> degraded;

  [[nodiscard]] bool finite() const noexcept {
    return rho < std::numeric_limits<double>::infinity();
  }
};

/// Static capability predicate of a kernel, evaluated against a
/// RadiusProblem before any work is spent.
struct Capability {
  /// Needs an explicit FepiaProblem (false only for kernels that derive
  /// the analytic side from the reference system themselves).
  bool requiresProblem = true;
  /// Every feature must have a closed-form boundary (linear/quadratic).
  bool requiresClosedFormFeatures = false;
  /// Dimensionality ceiling; 0 = unbounded.
  std::size_t maxDimension = 0;
  /// Needs a DES-backed hiperd::ReferenceSystem.
  bool requiresSystem = false;
  /// Can honor fault scenarios (discrete perturbation kinds).
  bool supportsFaultScenarios = false;
  /// Classifies the safe region by DES simulation (true) or by the
  /// analytic feature stack (false). Must match the problem's
  /// desClassification — the two answer different questions.
  bool classifiesByDes = false;
};

/// One registered radius kernel.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;
  [[nodiscard]] virtual const Capability& capability() const noexcept = 0;

  /// Estimated work in classification units (calibrated constants x
  /// problem size). Used for cheapest-capable selection.
  [[nodiscard]] virtual double cost(const RadiusProblem& problem,
                                    const RadiusRequest& request) const = 0;
  /// Calibrated throughput constant (classification units per second)
  /// turning cost into the wall-clock estimate for deadline checks.
  [[nodiscard]] virtual double unitsPerSecond() const noexcept = 0;
  /// Declared maximum relative error for this problem/request.
  [[nodiscard]] virtual double accuracy(const RadiusProblem& problem,
                                        const RadiusRequest& request) const = 0;
  /// Solves. The scheduler guarantees capable() held; kernels still
  /// throw (std::domain_error, BackendError, ...) on problems that pass
  /// the static predicate but fail at solve time — the scheduler treats
  /// that as a runtime fallback.
  [[nodiscard]] virtual RadiusOutcome solve(const RadiusProblem& problem,
                                            const RadiusRequest& request,
                                            parallel::ThreadPool* pool) const = 0;

  /// Empty when this kernel can solve `problem`; otherwise the first
  /// failing capability predicate, spelled out for diagnostics.
  [[nodiscard]] std::string incapabilityReason(const RadiusProblem& problem) const;
  [[nodiscard]] bool capable(const RadiusProblem& problem) const {
    return incapabilityReason(problem).empty();
  }
  /// cost / unitsPerSecond, for deadline scheduling.
  [[nodiscard]] double estimatedSeconds(const RadiusProblem& problem,
                                        const RadiusRequest& request) const {
    return cost(problem, request) / unitsPerSecond();
  }
};

/// Symmetric relative envelope rho·(1 ± err); {inf, inf} when rho is
/// infinite (two infinite answers agree).
[[nodiscard]] AccuracyInterval relativeEnvelope(double rho, double err) noexcept;

/// Outcome skeleton shared by the kernels that produce a full merged
/// report (analytic, numeric): rho, critical feature, exactness (true
/// only when every per-feature radius is a closed form), evaluation
/// count, and the report payload.
[[nodiscard]] RadiusOutcome outcomeFromMergedReport(
    std::shared_ptr<const MergedRobustnessReport> report);

}  // namespace fepia::radius::backend

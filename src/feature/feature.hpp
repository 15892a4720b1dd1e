// Performance features phi_i and their tolerable-variation bounds — steps
// 1 and 3 of the FePIA procedure.
//
// A PerformanceFeature is a scalar field over the (concatenated)
// perturbation space: phi_i = f_i(pi). FeatureBounds is the tuple
// <beta_i^min, beta_i^max> of step 1. A FeatureSet is the set Phi whose
// per-feature robustness radii are min-aggregated into rho (step 4).
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/point_block.hpp"
#include "la/vector.hpp"
#include "units/unit.hpp"

namespace fepia::feature {

/// A feature evaluated to NaN inside a containment check. NaN has no
/// order, so "within bounds" is undefined for it; silently treating it
/// as a violation (the historical behaviour) hid model bugs inside
/// Monte-Carlo estimates. Matches the finite-or-typed-error contract of
/// the radius backends (tests/backend_fuzz_test.cpp): derives from
/// std::domain_error, so existing typed-error handling catches it.
class NonFiniteFeatureError : public std::domain_error {
 public:
  using std::domain_error::domain_error;
};

/// Abstract scalar performance feature phi = f(pi) over R^n.
class PerformanceFeature {
 public:
  virtual ~PerformanceFeature() = default;

  /// Human-readable name, e.g. "makespan" or "latency(path 2)".
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Dimension n of the perturbation space this feature is defined on.
  [[nodiscard]] virtual std::size_t dimension() const noexcept = 0;

  /// Feature value at `pi`; throws std::invalid_argument on a dimension
  /// mismatch.
  [[nodiscard]] virtual double evaluate(const la::Vector& pi) const = 0;

  /// Evaluates the feature at every live lane of `block`, writing lane
  /// l's value to `out[l]`. The default gathers each lane and calls
  /// evaluate(); QuadraticFeature overrides it with a contiguous
  /// structure-of-arrays kernel whose per-lane accumulation order
  /// replicates evaluate() exactly, so block results are bit-identical
  /// to point-at-a-time results. LinearFeature keeps the default:
  /// classify::BlockClassifier compiles runs of linear features into
  /// one table of their nonzero (column, coefficient) terms and never
  /// calls this for them. Skipping a zero term changes a sum on finite
  /// coordinates only in the sign of a zero result, which no bound test
  /// sees; blocks with a non-finite coordinate in a skipped column take
  /// the scalar path, where 0 * inf still yields NaN. Throws
  /// std::invalid_argument on a dimension mismatch or when `out` has
  /// fewer than block.lanes() elements.
  virtual void evaluateBlock(const la::PointBlock& block,
                             std::span<double> out) const;

  /// Gradient at `pi`. Exact for the closed-form subclasses; subclasses
  /// without analytic derivatives use forward-mode AD or central
  /// differences (documented per class).
  [[nodiscard]] virtual la::Vector gradient(const la::Vector& pi) const = 0;

  /// Unit of the feature's value (seconds for latency, 1/s for
  /// throughput, ...). Dimensionless by default.
  [[nodiscard]] virtual units::Unit unit() const { return units::Unit{}; }
};

/// The tolerable-variation tuple <beta^min, beta^max> of FePIA step 1.
/// Either side may be infinite (unbounded).
class FeatureBounds {
 public:
  /// Two-sided bounds; throws std::invalid_argument when min > max.
  FeatureBounds(double betaMin, double betaMax);

  /// Only an upper limit (beta^min = -inf) — e.g. "latency <= L_max".
  static FeatureBounds upper(double betaMax);

  /// Only a lower limit (beta^max = +inf) — e.g. "throughput >= R_min".
  static FeatureBounds lower(double betaMin);

  /// The paper's relative form: beta^max = beta * phi^orig for beta > 1
  /// (upper bound only; see Section 3.1, "in many cases we limit the
  /// changes in phi_i to some percentage of its original value").
  static FeatureBounds relativeUpper(double originalValue, double beta);

  [[nodiscard]] double betaMin() const noexcept { return min_; }
  [[nodiscard]] double betaMax() const noexcept { return max_; }
  [[nodiscard]] bool hasMin() const noexcept;
  [[nodiscard]] bool hasMax() const noexcept;

  /// Typed containment verdict of one feature value. ±inf still
  /// compares (an infinite value is decisively outside a finite bound);
  /// only NaN — which has no order — maps to NonFinite.
  enum class Containment { Inside, Outside, NonFinite };

  /// True when `value` lies within the tolerable interval (inclusive).
  /// NaN returns false; callers that must distinguish "violating" from
  /// "not a number" use classify() instead.
  [[nodiscard]] bool contains(double value) const noexcept;

  /// Containment with NaN reported as a typed NonFinite outcome instead
  /// of silently counting as a violation.
  [[nodiscard]] Containment classify(double value) const noexcept;

 private:
  double min_;
  double max_;
};

/// A feature paired with its bounds — one element of Phi.
struct BoundedFeature {
  std::shared_ptr<const PerformanceFeature> feature;
  FeatureBounds bounds;
};

/// The set Phi of FePIA step 1.
class FeatureSet {
 public:
  FeatureSet() = default;

  /// Adds phi_i with its bounds; returns its index. All features must
  /// share one perturbation-space dimension; throws std::invalid_argument
  /// otherwise (or on a null feature).
  std::size_t add(std::shared_ptr<const PerformanceFeature> feature,
                  FeatureBounds bounds);

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] const BoundedFeature& operator[](std::size_t i) const {
    return items_.at(i);
  }

  /// Dimension of the shared perturbation space (0 when empty).
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// True when every feature value at `pi` lies within its bounds —
  /// i.e. `pi` is inside the robust region. Features are evaluated in
  /// insertion order and the check returns false at the first finite
  /// violation without evaluating later features. Throws
  /// NonFiniteFeatureError when an evaluated feature value is NaN.
  [[nodiscard]] bool allWithinBounds(const la::Vector& pi) const;

  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

 private:
  std::vector<BoundedFeature> items_;
  std::size_t dimension_ = 0;
};

}  // namespace fepia::feature

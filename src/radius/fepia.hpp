// The four-step FePIA pipeline as a single entry point.
//
//   1. Describe the robustness requirement: add features with bounds.
//   2. Identify the perturbation parameters: add kinds.
//   3. The impact f_ij is carried by the feature objects themselves.
//   4. Solve: single-kind radii, same-unit rho, or the merged (P-space)
//      rho under either scheme — plus the operating-point tolerance test.
//
// This facade is what the examples and most downstream users touch; the
// lower-level engines remain available for custom flows.
#pragma once

#include <memory>
#include <span>

#include "perturb/space.hpp"
#include "radius/merge.hpp"
#include "radius/rho.hpp"

namespace fepia::radius {

/// Builder/runner for a FePIA robustness analysis.
class FepiaProblem {
 public:
  FepiaProblem() = default;

  /// Step 2: registers a perturbation kind; returns its index j.
  std::size_t addPerturbation(perturb::PerturbationParameter param);

  /// Steps 1+3: registers phi_i (defined over the concatenated space of
  /// all kinds, in registration order) with its tolerable bounds.
  /// Returns the feature index i. Features must be added after all
  /// perturbation kinds; throws std::logic_error otherwise so the
  /// concatenated dimension is unambiguous.
  std::size_t addFeature(std::shared_ptr<const feature::PerformanceFeature> phi,
                         feature::FeatureBounds bounds);

  [[nodiscard]] const perturb::PerturbationSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] const feature::FeatureSet& features() const noexcept {
    return phi_;
  }

  /// Step 4 in raw pi-space — only legal when every kind shares one unit
  /// (throws units::MismatchError otherwise, reproducing the paper's
  /// objection to naive concatenation of mixed kinds).
  [[nodiscard]] RobustnessReport robustnessSameUnits() const;

  /// r_mu(phi_i, pi_j): radius of one feature against one kind, all other
  /// kinds pinned at their assumed values (always legal — one kind has
  /// one unit).
  [[nodiscard]] RadiusResult singleKindRadius(std::size_t featureIndex,
                                              std::size_t kindIndex) const;

  /// Step 4 in P-space under the chosen merge scheme.
  [[nodiscard]] MergedAnalysis merged(MergeScheme scheme) const;

  /// Convenience: the merged rho only.
  [[nodiscard]] double rho(MergeScheme scheme) const;

  /// The paper's operating-point test: can the system run at these
  /// per-kind values (one vector per kind, registration order) without a
  /// QoS violation, according to the merged metric?
  [[nodiscard]] ToleranceCheck wouldTolerate(std::span<const la::Vector> perKind,
                                             MergeScheme scheme) const;

 private:
  perturb::PerturbationSpace space_;
  feature::FeatureSet phi_;
};

}  // namespace fepia::radius

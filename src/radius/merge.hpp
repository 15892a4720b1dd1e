// Merging multiple perturbation kinds into the dimensionless P-space —
// Section 3 of the paper, in both variants:
//
//  * Sensitivity-based weighting ([2]'s preliminary proposal, analysed in
//    Section 3.1): P = (alpha_1 x pi_1) ⋆ ... with alpha_j =
//    1 / r_mu(phi_i, pi_j), the reciprocal of the per-kind robustness
//    radius computed with all other kinds pinned at their assumed values.
//    The paper proves this degenerates for linear features of one-element
//    kinds (radius identically 1/sqrt(n)).
//
//  * Normalization by original values (the paper's Section 3.2 proposal):
//    P = [pi_11/pi_11^orig, ...], so P^orig = [1, ..., 1] and both P and
//    the radius are dimensionless.
//
// Both are diagonal changes of variable P = w ⊙ pi, captured by
// DiagonalMap; features are pushed into P-space by pre-composition with
// the inverse scaling (structure-preserving, see feature/transform.hpp).
#pragma once

#include <span>
#include <vector>

#include "feature/feature.hpp"
#include "perturb/space.hpp"
#include "radius/engine.hpp"
#include "radius/rho.hpp"

namespace fepia::radius {

/// Which merge scheme builds P-space.
enum class MergeScheme { Sensitivity, NormalizedByOriginal };

/// Human-readable scheme name ("sensitivity" / "normalized").
[[nodiscard]] const char* mergeSchemeName(MergeScheme s) noexcept;

/// Diagonal change of variable P = weights ⊙ pi between the concatenated
/// pi-space and P-space.
///
/// Weights must be finite and not all zero. Individual zero weights are
/// allowed — they arise in the sensitivity scheme when a feature is
/// insensitive to a kind (alpha_j = lim 1/r_j = 0 as r_j → ∞): such
/// coordinates carry no information in P-space, so `fromP` refuses and
/// `fromPOnto` fills them from a base point instead.
class DiagonalMap {
 public:
  /// Throws std::invalid_argument when empty, non-finite, or all zero.
  explicit DiagonalMap(la::Vector weights);

  [[nodiscard]] std::size_t dimension() const noexcept { return weights_.size(); }
  [[nodiscard]] const la::Vector& weights() const noexcept { return weights_; }

  /// True when every weight is nonzero (the map is invertible).
  [[nodiscard]] bool invertible() const noexcept;

  /// pi-space -> P-space: P = w ⊙ pi.
  [[nodiscard]] la::Vector toP(const la::Vector& pi) const;

  /// P-space -> pi-space: pi = P / w (elementwise).
  /// Throws std::domain_error when the map has zero weights.
  [[nodiscard]] la::Vector fromP(const la::Vector& p) const;

  /// P-space -> pi-space with zero-weight coordinates taken from `base`
  /// (the assumed operating point) — the pseudo-inverse consistent with
  /// alpha_j = 0 semantics.
  [[nodiscard]] la::Vector fromPOnto(const la::Vector& p,
                                     const la::Vector& base) const;

  /// The inverse weights 1/w; throws std::domain_error on zero weights.
  [[nodiscard]] la::Vector inverseWeights() const;

 private:
  la::Vector weights_;
};

/// The paper's Section 3.2 map: w = 1 / pi^orig elementwise.
/// Throws std::domain_error when any original element is zero.
[[nodiscard]] DiagonalMap normalizedMap(const perturb::PerturbationSpace& space);

/// Per-kind sensitivity weights for one feature: alpha_j and the per-kind
/// radii they came from.
struct SensitivityWeights {
  std::vector<double> alphas;               ///< one per kind, 1/r_j
  std::vector<RadiusResult> perKindRadius;  ///< r_mu(phi_i, pi_j)
};

/// Computes alpha_j = 1 / r_mu(phi_i, pi_j) per Step 1 of Section 3.1:
/// the radius of `phi` restricted to kind j with every other kind at its
/// assumed value. A kind the feature is insensitive to has infinite
/// per-kind radius and receives alpha_j = 0 (the limit of 1/r); its
/// perturbations then do not count against this feature. Throws
/// std::domain_error when a per-kind radius is zero (the assumed point
/// already sits on that boundary).
[[nodiscard]] SensitivityWeights sensitivityWeights(
    const feature::PerformanceFeature& phi,
    const feature::FeatureBounds& bounds,
    const perturb::PerturbationSpace& space, const NumericOptions& opts = {});

/// Expands per-kind alphas into the per-element DiagonalMap
/// (every element of kind j gets weight alpha_j).
[[nodiscard]] DiagonalMap sensitivityMap(const perturb::PerturbationSpace& space,
                                         const SensitivityWeights& weights);

/// Per-feature result of a merged (P-space) robustness analysis.
struct MergedFeatureReport {
  std::string featureName;
  /// Radius in P-space — r_mu(phi_i, P), Eq. (2); dimensionless.
  RadiusResult radius;
  /// The map that built this feature's P-space. Under the sensitivity
  /// scheme each feature has its own alphas; the normalized map is shared.
  la::Vector mapWeights;
  /// Per-kind alphas (sensitivity scheme only; empty otherwise).
  std::vector<double> alphasPerKind;
};

/// rho_mu(Phi, P) with per-feature detail.
struct MergedRobustnessReport {
  MergeScheme scheme{};
  double rho = std::numeric_limits<double>::infinity();
  std::size_t criticalFeature = 0;
  std::vector<MergedFeatureReport> features;

  [[nodiscard]] bool finite() const noexcept {
    return rho < std::numeric_limits<double>::infinity();
  }
};

/// Result of the paper's operating-point check (Section 3 steps (a)-(c)).
struct ToleranceCheck {
  bool tolerated = false;   ///< every feature: ‖P − P^orig‖ < r_mu(phi_i, P)
  double worstMargin = 0.0; ///< min over features of (radius − distance)
  std::vector<double> distances;  ///< per-feature ‖P − P^orig‖₂
  std::vector<double> radii;      ///< per-feature radii
};

/// The per-feature radius solver a MergedAnalysis runs in P-space:
/// featureRadius (closed form where one exists) or featureRadiusNumeric.
using FeatureRadiusSolver = RadiusResult (*)(const feature::PerformanceFeature&,
                                             const feature::FeatureBounds&,
                                             const la::Vector&,
                                             const NumericOptions&);

/// Full multi-kind robustness analysis: builds P-space per scheme, pushes
/// every feature through the map, and computes per-feature radii and rho.
/// This is the one place the P-space change of variable is built; the
/// registry's analytic and numeric backends and the scheme validator all
/// read it from here.
class MergedAnalysis {
 public:
  /// Throws std::invalid_argument when `phi` is empty, dimensions do not
  /// match the space, or (normalized scheme) an original element is zero;
  /// std::domain_error when sensitivity weighting is undefined. `solve`
  /// computes each feature's P-space radius; the sensitivity scheme's
  /// per-kind alphas always come from featureRadius, so every solver
  /// works in the same geometry.
  MergedAnalysis(feature::FeatureSet phi, perturb::PerturbationSpace space,
                 MergeScheme scheme, NumericOptions opts = {},
                 FeatureRadiusSolver solve = featureRadius);

  [[nodiscard]] const MergedRobustnessReport& report() const noexcept {
    return report_;
  }

  [[nodiscard]] const perturb::PerturbationSpace& space() const noexcept {
    return space_;
  }

  /// The map that built feature i's P-space.
  [[nodiscard]] const DiagonalMap& map(std::size_t i) const {
    return perFeatureMap_.at(i);
  }

  /// Every feature pulled back into its own P-space, with its bounds:
  /// f_i(P) = phi_i(pi(P)), where pi_d = P_d / w_d for weighted
  /// coordinates and pi_d = pi_d^orig for zero-weight ones. Under the
  /// normalized scheme all features share one map, so this set is also
  /// the joint safe region.
  [[nodiscard]] const feature::FeatureSet& pSpaceFeatures() const noexcept {
    return pSpace_;
  }

  /// The paper's procedure for deciding whether the system can operate at
  /// the given per-kind parameter values without violating a constraint:
  /// (a) convert to P, (b) measure ‖P − P^orig‖₂, (c) compare with the
  /// radius — per feature, under that feature's own map.
  [[nodiscard]] ToleranceCheck check(std::span<const la::Vector> perKind) const;

 private:
  feature::FeatureSet phi_;
  perturb::PerturbationSpace space_;
  NumericOptions opts_;
  MergedRobustnessReport report_;
  std::vector<DiagonalMap> perFeatureMap_;
  feature::FeatureSet pSpace_;
};

}  // namespace fepia::radius

#include "radius/merge.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "feature/transform.hpp"

namespace fepia::radius {

const char* mergeSchemeName(MergeScheme s) noexcept {
  switch (s) {
    case MergeScheme::Sensitivity:
      return "sensitivity";
    case MergeScheme::NormalizedByOriginal:
      return "normalized";
  }
  return "unknown";
}

DiagonalMap::DiagonalMap(la::Vector weights) : weights_(std::move(weights)) {
  if (weights_.empty()) {
    throw std::invalid_argument("radius::DiagonalMap: empty weights");
  }
  bool anyNonzero = false;
  for (double w : weights_) {
    if (!std::isfinite(w)) {
      throw std::invalid_argument("radius::DiagonalMap: weights must be finite");
    }
    if (w != 0.0) anyNonzero = true;
  }
  if (!anyNonzero) {
    throw std::invalid_argument("radius::DiagonalMap: all weights are zero");
  }
}

bool DiagonalMap::invertible() const noexcept {
  for (double w : weights_) {
    if (w == 0.0) return false;
  }
  return true;
}

la::Vector DiagonalMap::toP(const la::Vector& pi) const {
  return la::cwiseMul(pi, weights_);
}

la::Vector DiagonalMap::fromP(const la::Vector& p) const {
  if (!invertible()) {
    throw std::domain_error(
        "radius::DiagonalMap::fromP: map has zero weights; use fromPOnto");
  }
  return la::cwiseDiv(p, weights_);
}

la::Vector DiagonalMap::fromPOnto(const la::Vector& p,
                                  const la::Vector& base) const {
  if (p.size() != weights_.size() || base.size() != weights_.size()) {
    throw std::invalid_argument("radius::DiagonalMap::fromPOnto: dimensions");
  }
  la::Vector out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out[i] = weights_[i] != 0.0 ? p[i] / weights_[i] : base[i];
  }
  return out;
}

la::Vector DiagonalMap::inverseWeights() const {
  if (!invertible()) {
    throw std::domain_error(
        "radius::DiagonalMap::inverseWeights: map has zero weights");
  }
  la::Vector inv(weights_.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) inv[i] = 1.0 / weights_[i];
  return inv;
}

DiagonalMap normalizedMap(const perturb::PerturbationSpace& space) {
  const la::Vector orig = space.concatenatedOriginal();
  la::Vector w(orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (orig[i] == 0.0) {
      throw std::domain_error(
          "radius::normalizedMap: original value of '" + space.flatLabel(i) +
          "' is zero; normalization by originals is undefined");
    }
    w[i] = 1.0 / orig[i];
  }
  return DiagonalMap(std::move(w));
}

SensitivityWeights sensitivityWeights(const feature::PerformanceFeature& phi,
                                      const feature::FeatureBounds& bounds,
                                      const perturb::PerturbationSpace& space,
                                      const NumericOptions& opts) {
  if (phi.dimension() != space.totalDimension()) {
    throw std::invalid_argument(
        "radius::sensitivityWeights: feature dimension does not match space");
  }
  const la::Vector orig = space.concatenatedOriginal();
  // restrictToBlock needs shared ownership; alias the caller's reference
  // (non-owning) since the restriction only lives within this call.
  const std::shared_ptr<const feature::PerformanceFeature> alias(
      std::shared_ptr<const feature::PerformanceFeature>{}, &phi);

  SensitivityWeights out;
  out.alphas.reserve(space.kindCount());
  out.perKindRadius.reserve(space.kindCount());
  for (std::size_t j = 0; j < space.kindCount(); ++j) {
    const auto restricted = feature::restrictToBlock(
        alias, orig, space.blockOffset(j), space.kind(j).size());
    RadiusResult r =
        featureRadius(*restricted, bounds, space.kind(j).original(), opts);
    if (r.radius == 0.0) {
      throw std::domain_error(
          "radius::sensitivityWeights: per-kind radius for '" +
          space.kind(j).name() +
          "' is zero (the assumed point sits on the boundary); alpha_j = 1/r "
          "is undefined");
    }
    // Insensitive kind: r = ∞, alpha = lim 1/r = 0 — its perturbations do
    // not count against this feature.
    out.alphas.push_back(r.finite() ? 1.0 / r.radius : 0.0);
    out.perKindRadius.push_back(std::move(r));
  }
  return out;
}

DiagonalMap sensitivityMap(const perturb::PerturbationSpace& space,
                           const SensitivityWeights& weights) {
  if (weights.alphas.size() != space.kindCount()) {
    throw std::invalid_argument(
        "radius::sensitivityMap: one alpha per kind expected");
  }
  la::Vector w(space.totalDimension());
  for (std::size_t j = 0; j < space.kindCount(); ++j) {
    for (std::size_t i = 0; i < space.kind(j).size(); ++i) {
      w[space.blockOffset(j) + i] = weights.alphas[j];
    }
  }
  return DiagonalMap(std::move(w));
}

MergedAnalysis::MergedAnalysis(feature::FeatureSet phi,
                               perturb::PerturbationSpace space,
                               MergeScheme scheme, NumericOptions opts,
                               FeatureRadiusSolver solve)
    : phi_(std::move(phi)), space_(std::move(space)), opts_(opts) {
  if (phi_.empty()) {
    throw std::invalid_argument("radius::MergedAnalysis: empty feature set");
  }
  if (phi_.dimension() != space_.totalDimension()) {
    throw std::invalid_argument(
        "radius::MergedAnalysis: feature set dimension does not match space");
  }
  report_.scheme = scheme;
  report_.features.reserve(phi_.size());
  perFeatureMap_.reserve(phi_.size());
  const la::Vector piOrig = space_.concatenatedOriginal();

  for (std::size_t i = 0; i < phi_.size(); ++i) {
    const feature::BoundedFeature& bf = phi_[i];
    MergedFeatureReport fr;
    fr.featureName = bf.feature->name();

    // Build this feature's map.
    if (scheme == MergeScheme::NormalizedByOriginal) {
      perFeatureMap_.push_back(normalizedMap(space_));
    } else {
      const SensitivityWeights sw =
          sensitivityWeights(*bf.feature, bf.bounds, space_, opts_);
      bool anySensitive = false;
      for (double a : sw.alphas) anySensitive = anySensitive || a != 0.0;
      if (!anySensitive) {
        throw std::domain_error("radius::MergedAnalysis: feature '" +
                                bf.feature->name() +
                                "' has infinite radius against every kind; "
                                "it does not constrain the allocation");
      }
      fr.alphasPerKind = sw.alphas;
      perFeatureMap_.push_back(sensitivityMap(space_, sw));
    }
    const DiagonalMap& map = perFeatureMap_.back();
    fr.mapWeights = map.weights();

    // Pull the feature back into P-space: f_i(P) = phi(pi(P)) where
    // pi_i = P_i / w_i for weighted coordinates and pi_i = pi_i^orig for
    // zero-weight (insensitive) ones.
    la::Vector scale(map.dimension());
    la::Vector shift(map.dimension());
    for (std::size_t d = 0; d < map.dimension(); ++d) {
      if (map.weights()[d] != 0.0) {
        scale[d] = 1.0 / map.weights()[d];
        shift[d] = 0.0;
      } else {
        scale[d] = 0.0;
        shift[d] = piOrig[d];
      }
    }
    pSpace_.add(feature::precomposeAffineDiagonal(bf.feature, scale, shift),
                bf.bounds);
    fr.radius = solve(*pSpace_[i].feature, bf.bounds, map.toP(piOrig), opts_);

    if (fr.radius.radius < report_.rho) {
      report_.rho = fr.radius.radius;
      report_.criticalFeature = i;
    }
    report_.features.push_back(std::move(fr));
  }
}

ToleranceCheck MergedAnalysis::check(std::span<const la::Vector> perKind) const {
  const la::Vector pi = space_.concatenateUnchecked(perKind);
  const la::Vector piOrig = space_.concatenatedOriginal();

  ToleranceCheck out;
  out.tolerated = true;
  out.worstMargin = std::numeric_limits<double>::infinity();
  out.distances.reserve(phi_.size());
  out.radii.reserve(phi_.size());
  for (std::size_t i = 0; i < phi_.size(); ++i) {
    const DiagonalMap& map = perFeatureMap_[i];
    const double dist = la::distance(map.toP(pi), map.toP(piOrig));
    const double r = report_.features[i].radius.radius;
    out.distances.push_back(dist);
    out.radii.push_back(r);
    const double margin = r - dist;
    out.worstMargin = std::min(out.worstMargin, margin);
    if (!(dist < r)) out.tolerated = false;
  }
  return out;
}

}  // namespace fepia::radius

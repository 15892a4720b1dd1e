#include "radius/fepia.hpp"

#include <stdexcept>

#include "feature/transform.hpp"

namespace fepia::radius {

std::size_t FepiaProblem::addPerturbation(perturb::PerturbationParameter param) {
  if (!phi_.empty()) {
    throw std::logic_error(
        "radius::FepiaProblem: add all perturbation kinds before features");
  }
  return space_.add(std::move(param));
}

std::size_t FepiaProblem::addFeature(
    std::shared_ptr<const feature::PerformanceFeature> phi,
    feature::FeatureBounds bounds) {
  if (space_.kindCount() == 0) {
    throw std::logic_error(
        "radius::FepiaProblem: register perturbation kinds before features");
  }
  if (phi && phi->dimension() != space_.totalDimension()) {
    throw std::invalid_argument(
        "radius::FepiaProblem::addFeature: feature '" + phi->name() +
        "' dimension " + std::to_string(phi->dimension()) +
        " does not match concatenated space dimension " +
        std::to_string(space_.totalDimension()));
  }
  return phi_.add(std::move(phi), bounds);
}

RobustnessReport FepiaProblem::robustnessSameUnits() const {
  if (!space_.homogeneousUnits()) {
    // Trigger the descriptive MismatchError.
    for (std::size_t j = 1; j < space_.kindCount(); ++j) {
      units::requireSameUnit(space_.kind(0).unit(), space_.kind(j).unit(),
                             "radius::FepiaProblem::robustnessSameUnits");
    }
  }
  return robustness(phi_, space_.concatenatedOriginal());
}

RadiusResult FepiaProblem::singleKindRadius(std::size_t featureIndex,
                                            std::size_t kindIndex) const {
  if (featureIndex >= phi_.size()) {
    throw std::out_of_range("radius::FepiaProblem::singleKindRadius: feature");
  }
  const feature::BoundedFeature& bf = phi_[featureIndex];
  const auto restricted = feature::restrictToBlock(
      bf.feature, space_.concatenatedOriginal(), space_.blockOffset(kindIndex),
      space_.kind(kindIndex).size());
  return featureRadius(*restricted, bf.bounds,
                       space_.kind(kindIndex).original());
}

MergedAnalysis FepiaProblem::merged(MergeScheme scheme) const {
  return MergedAnalysis(phi_, space_, scheme);
}

double FepiaProblem::rho(MergeScheme scheme) const {
  return merged(scheme).report().rho;
}

ToleranceCheck FepiaProblem::wouldTolerate(std::span<const la::Vector> perKind,
                                           MergeScheme scheme) const {
  return merged(scheme).check(perKind);
}

}  // namespace fepia::radius

#include "feature/linear.hpp"

#include <stdexcept>

namespace fepia::feature {

LinearFeature::LinearFeature(std::string name, la::Vector coefficients,
                             double offset, units::Unit valueUnit)
    : name_(std::move(name)),
      coefficients_(std::move(coefficients)),
      offset_(offset),
      unit_(valueUnit) {
  if (coefficients_.empty()) {
    throw std::invalid_argument("feature::LinearFeature '" + name_ +
                                "': empty coefficient vector");
  }
  if (la::norm2(coefficients_) == 0.0) {
    throw std::invalid_argument("feature::LinearFeature '" + name_ +
                                "': all-zero coefficients (no boundary)");
  }
}

double LinearFeature::evaluate(const la::Vector& pi) const {
  if (pi.size() != coefficients_.size()) {
    throw std::invalid_argument("feature::LinearFeature '" + name_ +
                                "': dimension mismatch");
  }
  return la::dot(coefficients_, pi) + offset_;
}

la::Vector LinearFeature::gradient(const la::Vector& pi) const {
  if (pi.size() != coefficients_.size()) {
    throw std::invalid_argument("feature::LinearFeature '" + name_ +
                                "': dimension mismatch");
  }
  return coefficients_;
}

}  // namespace fepia::feature

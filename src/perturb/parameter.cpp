#include "perturb/parameter.hpp"

#include <stdexcept>

namespace fepia::perturb {

PerturbationParameter::PerturbationParameter(std::string name, units::Unit unit,
                                             la::Vector original)
    : name_(std::move(name)), unit_(unit), original_(std::move(original)) {
  if (original_.empty()) {
    throw std::invalid_argument("perturb::PerturbationParameter '" + name_ +
                                "': needs at least one element");
  }
}

PerturbationParameter::PerturbationParameter(std::string name, units::Unit unit,
                                             la::Vector original,
                                             std::vector<std::string> elementLabels)
    : PerturbationParameter(std::move(name), unit, std::move(original)) {
  if (elementLabels.size() != original_.size()) {
    throw std::invalid_argument("perturb::PerturbationParameter '" + name_ +
                                "': label count does not match dimension");
  }
  labels_ = std::move(elementLabels);
}

std::string PerturbationParameter::elementLabel(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("perturb::PerturbationParameter::elementLabel");
  }
  if (!labels_.empty()) return labels_[i];
  return name_ + "[" + std::to_string(i) + "]";
}

}  // namespace fepia::perturb

// A perturbation parameter pi_j — step 2 of the FePIA procedure.
//
// "Let Pi be the set of perturbation parameters. It is assumed that the
// elements of Pi are vectors. [...] representation of the perturbation
// parameters as separate elements of Pi would be based on their nature
// or kind (e.g., message length variables in pi_1 and computation time
// variables in pi_2)."
#pragma once

#include <string>
#include <vector>

#include "la/vector.hpp"
#include "units/unit.hpp"

namespace fepia::perturb {

/// One kind of perturbation parameter: a named vector whose elements all
/// share one unit, plus the assumed operating point pi_j^orig.
///
/// Invariants: at least one element; element labels, when provided, are
/// one per element.
class PerturbationParameter {
 public:
  /// Creates a parameter with anonymous elements.
  /// Throws std::invalid_argument when `original` is empty.
  PerturbationParameter(std::string name, units::Unit unit, la::Vector original);

  /// Creates a parameter with labelled elements (e.g. task names).
  /// Throws std::invalid_argument on size mismatch or empty `original`.
  PerturbationParameter(std::string name, units::Unit unit, la::Vector original,
                        std::vector<std::string> elementLabels);

  /// Kind name, e.g. "execution-times".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Physical unit shared by every element (seconds, bytes, ...).
  [[nodiscard]] const units::Unit& unit() const noexcept { return unit_; }

  /// Dimension n_{pi_j} of the vector.
  [[nodiscard]] std::size_t size() const noexcept { return original_.size(); }

  /// The assumed value pi_j^orig.
  [[nodiscard]] const la::Vector& original() const noexcept { return original_; }

  /// Label of element `i` ("<name>[i]" when unlabelled).
  [[nodiscard]] std::string elementLabel(std::size_t i) const;

 private:
  std::string name_;
  units::Unit unit_;
  la::Vector original_;
  std::vector<std::string> labels_;  // empty or one per element
};

}  // namespace fepia::perturb

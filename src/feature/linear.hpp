// Linear performance feature phi(pi) = k · pi + c.
//
// This is the paper's workhorse: both analytical case studies (Sections
// 3.1 and 3.2) assume phi_i is a linear function of the perturbation
// parameters, and the makespan/HiPer-D features of baseline [2] are
// linear in execution times and sensor loads. Its boundary set is a
// hyperplane, so the robustness radius has the closed form of Eq. (4).
#pragma once

#include <string>

#include "feature/feature.hpp"
#include "la/vector.hpp"

namespace fepia::feature {

/// phi(pi) = coefficients · pi + offset.
class LinearFeature final : public PerformanceFeature {
 public:
  /// Throws std::invalid_argument when `coefficients` is empty or all zero
  /// (a constant feature has no boundary and no meaningful radius).
  LinearFeature(std::string name, la::Vector coefficients, double offset = 0.0,
                units::Unit valueUnit = units::Unit{});

  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return coefficients_.size();
  }
  [[nodiscard]] double evaluate(const la::Vector& pi) const override;
  /// Exact gradient: the coefficient vector, independent of `pi`.
  [[nodiscard]] la::Vector gradient(const la::Vector& pi) const override;
  [[nodiscard]] units::Unit unit() const override { return unit_; }

  [[nodiscard]] const la::Vector& coefficients() const noexcept {
    return coefficients_;
  }
  [[nodiscard]] double offset() const noexcept { return offset_; }

 private:
  std::string name_;
  la::Vector coefficients_;
  double offset_;
  units::Unit unit_;
};

}  // namespace fepia::feature

// Fragility diagnostics: turning a robustness radius into actionable
// engineering information.
//
// The radius says HOW far the system is from failure; these helpers say
// WHERE the fragility lives — which perturbation elements the nearest
// boundary point moves.
#pragma once

#include <vector>

#include "feature/feature.hpp"
#include "radius/engine.hpp"

namespace fepia::radius {

/// Per-element decomposition of a boundary displacement pi* − pi^orig.
struct FragilityAttribution {
  /// Signed displacement per element (the worst-case co-movement).
  la::Vector displacement;
  /// Fraction of the squared distance carried by each element (sums to 1).
  std::vector<double> share;
  /// Index of the largest-share element.
  std::size_t dominantElement = 0;
};

/// Decomposes a finite radius result. Throws std::invalid_argument when
/// the result has no boundary point or dimensions mismatch.
[[nodiscard]] FragilityAttribution attributeFragility(const RadiusResult& r,
                                                      const la::Vector& orig);

}  // namespace fepia::radius

#include "radius/diagnostics.hpp"

#include <cmath>
#include <stdexcept>

namespace fepia::radius {

FragilityAttribution attributeFragility(const RadiusResult& r,
                                        const la::Vector& orig) {
  if (!r.finite() || r.boundaryPoint.empty()) {
    throw std::invalid_argument(
        "radius::attributeFragility: result has no boundary point");
  }
  if (r.boundaryPoint.size() != orig.size()) {
    throw std::invalid_argument("radius::attributeFragility: dimensions");
  }
  FragilityAttribution out;
  out.displacement = r.boundaryPoint - orig;
  const double total = la::normSq(out.displacement);
  out.share.resize(orig.size(), 0.0);
  if (total > 0.0) {
    double bestShare = -1.0;
    for (std::size_t i = 0; i < orig.size(); ++i) {
      out.share[i] = out.displacement[i] * out.displacement[i] / total;
      if (out.share[i] > bestShare) {
        bestShare = out.share[i];
        out.dominantElement = i;
      }
    }
  }
  return out;
}

}  // namespace fepia::radius

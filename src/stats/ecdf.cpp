#include "stats/ecdf.hpp"

#include <algorithm>
#include <stdexcept>

namespace fepia::stats {

Ecdf::Ecdf(std::span<const double> sample)
    : sorted_(sample.begin(), sample.end()) {
  if (sorted_.empty()) {
    throw std::invalid_argument("stats::Ecdf: empty sample");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

}  // namespace fepia::stats

#include "etc/etc.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"

namespace fepia::etc {

const char* heterogeneityName(Heterogeneity h) noexcept {
  switch (h) {
    case Heterogeneity::HiHi:
      return "hi-hi";
    case Heterogeneity::HiLo:
      return "hi-lo";
    case Heterogeneity::LoHi:
      return "lo-hi";
    case Heterogeneity::LoLo:
      return "lo-lo";
  }
  return "unknown";
}

CvbParams cvbPreset(Heterogeneity h, double meanTask) {
  constexpr double kHigh = 0.6;
  constexpr double kLow = 0.1;
  CvbParams p;
  p.meanTask = meanTask;
  switch (h) {
    case Heterogeneity::HiHi:
      p.covTask = kHigh;
      p.covMachine = kHigh;
      break;
    case Heterogeneity::HiLo:
      p.covTask = kHigh;
      p.covMachine = kLow;
      break;
    case Heterogeneity::LoHi:
      p.covTask = kLow;
      p.covMachine = kHigh;
      break;
    case Heterogeneity::LoLo:
      p.covTask = kLow;
      p.covMachine = kLow;
      break;
  }
  return p;
}

namespace {

void requireSizes(std::size_t tasks, std::size_t machines, const char* fn) {
  if (tasks == 0 || machines == 0) {
    throw std::invalid_argument(std::string("etc::") + fn +
                                ": tasks and machines must be nonzero");
  }
}

}  // namespace

la::Matrix generateCvb(std::size_t tasks, std::size_t machines,
                       const CvbParams& params, rng::Xoshiro256StarStar& g) {
  requireSizes(tasks, machines, "generateCvb");
  if (params.meanTask <= 0.0 || params.covTask <= 0.0 || params.covMachine <= 0.0) {
    throw std::invalid_argument("etc::generateCvb: parameters must be positive");
  }
  la::Matrix out(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    const double q = rng::gammaMeanCov(g, params.meanTask, params.covTask);
    for (std::size_t m = 0; m < machines; ++m) {
      out(t, m) = rng::gammaMeanCov(g, q, params.covMachine);
    }
  }
  return out;
}

HeterogeneityReport measureHeterogeneity(const la::Matrix& etcMatrix) {
  if (etcMatrix.rows() == 0 || etcMatrix.cols() == 0) {
    throw std::invalid_argument("etc::measureHeterogeneity: empty matrix");
  }
  const auto rows = etcMatrix.rows();
  const auto cols = etcMatrix.cols();
  std::vector<double> rowMeans(rows, 0.0);
  double covSum = 0.0;
  for (std::size_t t = 0; t < rows; ++t) {
    double mean = 0.0;
    for (std::size_t m = 0; m < cols; ++m) mean += etcMatrix(t, m);
    mean /= static_cast<double>(cols);
    rowMeans[t] = mean;
    if (cols >= 2 && mean > 0.0) {
      double var = 0.0;
      for (std::size_t m = 0; m < cols; ++m) {
        const double d = etcMatrix(t, m) - mean;
        var += d * d;
      }
      var /= static_cast<double>(cols - 1);
      covSum += std::sqrt(var) / mean;
    }
  }
  HeterogeneityReport rep;
  rep.machineCov = covSum / static_cast<double>(rows);
  double mm = 0.0;
  for (double v : rowMeans) mm += v;
  mm /= static_cast<double>(rows);
  if (rows >= 2 && mm > 0.0) {
    double var = 0.0;
    for (double v : rowMeans) var += (v - mm) * (v - mm);
    var /= static_cast<double>(rows - 1);
    rep.taskCov = std::sqrt(var) / mm;
  }
  return rep;
}

}  // namespace fepia::etc

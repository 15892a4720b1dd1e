// The degraded kernel: fault::estimateDegradedRadius — the DES-classified
// empirical radius with discrete fault scenarios riding along on the
// probe-direction index. The only kernel that classifies the safe region
// by simulation, and the only one that honors fault scenarios; it never
// substitutes for the analytic kernels (queueing shrinks the region, so
// the two questions have different answers — the capability predicate
// keeps them apart).
#include <algorithm>
#include <cmath>
#include <memory>

#include "radius/registry/registry.hpp"

namespace fepia::radius::backend {
namespace {

class DegradedBackend final : public Backend {
 public:
  const std::string& name() const noexcept override {
    static const std::string kName = "degraded";
    return kName;
  }

  const Capability& capability() const noexcept override {
    static const Capability kCap{/*requiresProblem=*/false,
                                 /*requiresClosedFormFeatures=*/false,
                                 /*maxDimension=*/0,
                                 /*requiresSystem=*/true,
                                 /*supportsFaultScenarios=*/true,
                                 /*classifiesByDes=*/true};
    return kCap;
  }

  double cost(const RadiusProblem& problem,
              const RadiusRequest& request) const override {
    // Every classification is a full DES run of `generations` data sets;
    // estimateDegradedRadius applies the --des default of 64 directions
    // unless the caller chose them explicitly.
    const double dirs = static_cast<double>(
        request.degraded.explicitDirections ? request.estimator.directions
                                            : 64);
    double events = 0.0;
    for (const fault::FaultPlan& plan : problem.scenarios) {
      events += static_cast<double>(plan.eventCount());
    }
    return dirs * 80.0 * static_cast<double>(request.degraded.generations) *
           (1.0 + events / 16.0);
  }

  double unitsPerSecond() const noexcept override { return 5.0e4; }

  double accuracy(const RadiusProblem& /*problem*/,
                  const RadiusRequest& request) const override {
    // Looser than the plain empirical kernel: the DES answer carries the
    // sampling bias plus data-set variability across generations.
    const double dirs = static_cast<double>(
        request.degraded.explicitDirections
            ? std::max<std::size_t>(request.estimator.directions, 1)
            : 64);
    const double gens = static_cast<double>(
        std::max<std::size_t>(request.degraded.generations, 1));
    return std::min(1.0, 0.05 + 2.0 / std::sqrt(dirs) + 1.0 / std::sqrt(gens));
  }

  RadiusOutcome solve(const RadiusProblem& problem, const RadiusRequest& request,
                      parallel::ThreadPool* pool) const override {
    auto est = std::make_shared<fault::DegradedEstimate>(
        fault::estimateDegradedRadius(*problem.system, problem.scenarios,
                                      request.estimator, request.degraded,
                                      pool));
    RadiusOutcome out;
    out.rho = est->degraded.radius;
    if (out.finite()) {
      out.envelope.lo = std::min(est->degraded.ci.lo, out.rho);
      out.envelope.hi = out.rho * (1.0 + 1e-12);
    }
    out.criticalFeature = est->criticalFeature;
    out.classifications = est->degraded.classifications;
    out.degraded = std::move(est);
    return out;
  }
};

}  // namespace

std::unique_ptr<Backend> detail::makeDegradedBackend() {
  return std::make_unique<DegradedBackend>();
}

}  // namespace fepia::radius::backend

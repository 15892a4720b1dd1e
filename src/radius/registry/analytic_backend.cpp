// The analytic kernel: closed-form per-feature radii via MergedAnalysis.
//
// Capable only when every feature has a closed-form boundary (linear
// hyperplane distance, Eq. (4), or the quadric closed form), which is
// what makes its declared accuracy essentially machine epsilon — and its
// cost the cheapest by orders of magnitude, so the scheduler prefers it
// whenever the capability predicate holds.
#include <memory>

#include "radius/registry/registry.hpp"

namespace fepia::radius::backend {
namespace {

class AnalyticBackend final : public Backend {
 public:
  const std::string& name() const noexcept override {
    static const std::string kName = "analytic";
    return kName;
  }

  const Capability& capability() const noexcept override {
    static const Capability kCap{/*requiresProblem=*/true,
                                 /*requiresClosedFormFeatures=*/true,
                                 /*maxDimension=*/0,
                                 /*requiresSystem=*/false,
                                 /*supportsFaultScenarios=*/false,
                                 /*classifiesByDes=*/false};
    return kCap;
  }

  double cost(const RadiusProblem& problem,
              const RadiusRequest& /*request*/) const override {
    // One closed-form solve per feature (the sensitivity scheme adds a
    // per-kind solve each, still O(dim) arithmetic per solve).
    return static_cast<double>(problem.featureCount()) *
           static_cast<double>(problem.dimension() + 1);
  }

  double unitsPerSecond() const noexcept override { return 2.0e8; }

  double accuracy(const RadiusProblem& /*problem*/,
                  const RadiusRequest& /*request*/) const override {
    return 1.0e-12;
  }

  RadiusOutcome solve(const RadiusProblem& problem, const RadiusRequest& request,
                      parallel::ThreadPool* /*pool*/) const override {
    const MergedAnalysis analysis = problem.problem->merged(problem.scheme);
    RadiusOutcome out = outcomeFromMergedReport(
        std::make_shared<MergedRobustnessReport>(analysis.report()));
    out.envelope = relativeEnvelope(out.rho, accuracy(problem, request));
    return out;
  }
};

}  // namespace

std::unique_ptr<Backend> detail::makeAnalyticBackend() {
  return std::make_unique<AnalyticBackend>();
}

}  // namespace fepia::radius::backend

// The numeric kernel: the multistart nearest-boundary solver of src/opt
// forced on every feature, through MergedAnalysis's P-space construction
// (radius/merge.cpp). Capable for any differentiable feature — the
// fallback when a feature has no closed form — at a cost dominated by
// multistart ray probes and refinement iterations.
#include <memory>

#include "radius/registry/registry.hpp"

namespace fepia::radius::backend {
namespace {

class NumericBackend final : public Backend {
 public:
  const std::string& name() const noexcept override {
    static const std::string kName = "numeric";
    return kName;
  }

  const Capability& capability() const noexcept override {
    static const Capability kCap{/*requiresProblem=*/true,
                                 /*requiresClosedFormFeatures=*/false,
                                 /*maxDimension=*/0,
                                 /*requiresSystem=*/false,
                                 /*supportsFaultScenarios=*/false,
                                 /*classifiesByDes=*/false};
    return kCap;
  }

  double cost(const RadiusProblem& problem,
              const RadiusRequest& request) const override {
    const auto& solver = request.numeric.solver;
    const double dim = static_cast<double>(problem.dimension());
    const double probes =
        static_cast<double>(solver.multistarts) +
        (solver.probeAxes ? 2.0 * dim : 0.0);
    const double perFeature =
        probes * (dim + 1.0) +
        static_cast<double>(solver.maxRefineIterations) * (dim + 1.0);
    return static_cast<double>(problem.featureCount()) * perFeature;
  }

  double unitsPerSecond() const noexcept override { return 5.0e6; }

  double accuracy(const RadiusProblem& /*problem*/,
                  const RadiusRequest& /*request*/) const override {
    // Empirically the converged multistart solver lands within ~1e-5 of
    // the closed form up to dimension 32 (property_radius_test); declare
    // two orders of margin so small-radius problems (where the solver's
    // absolute floor dominates the relative error) stay inside.
    return 1.0e-3;
  }

  RadiusOutcome solve(const RadiusProblem& problem, const RadiusRequest& request,
                      parallel::ThreadPool* /*pool*/) const override {
    // MergedAnalysis builds P-space; only the per-feature solver is
    // swapped, so the closed-form dispatch is bypassed, not re-derived.
    const FepiaProblem& fp = *problem.problem;
    const MergedAnalysis analysis(fp.features(), fp.space(), problem.scheme,
                                  request.numeric, featureRadiusNumeric);
    RadiusOutcome out = outcomeFromMergedReport(
        std::make_shared<MergedRobustnessReport>(analysis.report()));
    out.envelope = relativeEnvelope(out.rho, accuracy(problem, request));
    return out;
  }
};

}  // namespace

std::unique_ptr<Backend> detail::makeNumericBackend() {
  return std::make_unique<NumericBackend>();
}

}  // namespace fepia::radius::backend

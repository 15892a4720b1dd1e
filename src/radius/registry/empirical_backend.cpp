// The empirical kernel: Monte-Carlo validation of the merge scheme via
// validate::validateMergedScheme — directional boundary probes around
// P^orig with a bootstrap confidence interval. Its answer is an upper
// bound (the minimum over sampled directions), so the declared envelope
// is one-sided: [ci.lo, rho] — the CI's lower end is engineered to
// contain the true radius even in high dimension, the answer itself
// cannot undershoot it.
//
// Classification goes through request.estimator.classifyMode (default
// the SoA block kernels of src/classify). Every mode yields the same
// probe sequences, evaluation counts and radius bits; Mode::Scalar is
// kept as the reference the classify and validate_batched differentials
// compare against.
#include <algorithm>
#include <cmath>
#include <memory>

#include "radius/registry/registry.hpp"

namespace fepia::radius::backend {
namespace {

class EmpiricalBackend final : public Backend {
 public:
  const std::string& name() const noexcept override {
    static const std::string kName = "empirical";
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
    // Per feature: directions rays, each a march + bisection; one SoA
    // block call classifies a whole chunk front per round, so the
    // per-classification constant is ~8 (see BENCH_validation.json).
    return static_cast<double>(problem.featureCount()) *
           static_cast<double>(request.estimator.directions) * 8.0;
  }

  double unitsPerSecond() const noexcept override { return 1.0e6; }

  double accuracy(const RadiusProblem& problem,
                  const RadiusRequest& request) const override {
    // The directional minimum's upward bias grows with dimension and
    // shrinks with sample size; the polish removes most but not all.
    const double dim = static_cast<double>(std::max<std::size_t>(
        problem.dimension(), 1));
    const double dirs = static_cast<double>(
        std::max<std::size_t>(request.estimator.directions, 1));
    return std::min(1.0, 0.02 + 2.0 * std::sqrt(dim / dirs));
  }

  RadiusOutcome solve(const RadiusProblem& problem, const RadiusRequest& request,
                      parallel::ThreadPool* pool) const override {
    auto v = std::make_shared<validate::SchemeValidation>(
        validate::validateMergedScheme(*problem.problem, problem.scheme,
                                       request.estimator, pool));
    RadiusOutcome out;
    out.rho = v->rho.empirical.radius;
    if (out.finite()) {
      // One-sided: the sampled minimum is a hard upper bound on the true
      // radius, the bootstrap CI extends below it.
      out.envelope.lo = std::min(v->rho.empirical.ci.lo, out.rho);
      out.envelope.hi = out.rho * (1.0 + 1e-12);
    }
    if (!v->perFeature.empty()) {
      out.criticalFeatureIndex = v->criticalFeature;
      out.criticalFeature = v->perFeature[v->criticalFeature].label;
    }
    for (const validate::Comparison& row : v->allRows()) {
      out.classifications += row.empirical.classifications;
    }
    out.validation = std::move(v);
    return out;
  }
};

}  // namespace

std::unique_ptr<Backend> detail::makeEmpiricalBackend() {
  return std::make_unique<EmpiricalBackend>();
}

}  // namespace fepia::radius::backend

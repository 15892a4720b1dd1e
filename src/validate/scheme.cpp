#include "validate/scheme.hpp"

#include <limits>
#include <utility>
#include <vector>

#include "radius/merge.hpp"
#include "rng/xoshiro.hpp"

namespace fepia::validate {

std::vector<Comparison> SchemeValidation::allRows() const {
  std::vector<Comparison> rows = perFeature;
  rows.push_back(rho);
  if (joint.has_value()) rows.push_back(*joint);
  return rows;
}

SchemeValidation validateMergedScheme(const radius::FepiaProblem& problem,
                                      radius::MergeScheme scheme,
                                      const EstimatorOptions& opts,
                                      parallel::ThreadPool* pool) {
  const radius::MergedAnalysis analysis = problem.merged(scheme);
  const radius::MergedRobustnessReport& rep = analysis.report();
  const la::Vector orig = problem.space().concatenatedOriginal();

  // Fixed per-feature seed derivation: feature i consumes the i-th value
  // of a SplitMix64 stream over opts.seed, the joint region the next
  // one, independent of pool/threads.
  rng::SplitMix64 seeds(opts.seed);
  const std::size_t features = rep.features.size();
  std::vector<feature::FeatureSet> singles(features);
  std::vector<FeatureJob> jobs;
  jobs.reserve(features + 1);
  for (std::size_t i = 0; i < features; ++i) {
    const feature::BoundedFeature& fP = analysis.pSpaceFeatures()[i];
    singles[i].add(fP.feature, fP.bounds);
    jobs.push_back({&singles[i], analysis.map(i).toP(orig), opts});
    jobs.back().opts.seed = seeds.next();
  }
  const bool joint = scheme == radius::MergeScheme::NormalizedByOriginal;
  if (joint) {
    // One shared map: the joint safe region is well-defined in P-space.
    jobs.push_back(
        {&analysis.pSpaceFeatures(), analysis.map(0).toP(orig), opts});
    jobs.back().opts.seed = seeds.next();
  }
  std::vector<EmpiricalEstimate> ests = estimateEmpiricalRadii(jobs, pool);

  SchemeValidation out;
  out.scheme = scheme;
  double bestEmpirical = std::numeric_limits<double>::infinity();
  std::size_t bestIndex = 0;
  for (std::size_t i = 0; i < features; ++i) {
    if (ests[i].radius <= bestEmpirical) {
      bestEmpirical = ests[i].radius;
      bestIndex = i;
    }
    out.perFeature.push_back(compare(rep.features[i].featureName,
                                     rep.features[i].radius.radius,
                                     std::move(ests[i])));
  }

  out.rho = compare("rho (min over features)", rep.rho,
                    out.perFeature[bestIndex].empirical);
  out.criticalFeature = bestIndex;
  if (joint) {
    out.joint =
        compare("rho (joint region)", rep.rho, std::move(ests.back()));
  }
  return out;
}

}  // namespace fepia::validate

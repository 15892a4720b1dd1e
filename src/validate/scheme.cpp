#include "validate/scheme.hpp"

#include <limits>

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

  SchemeValidation out;
  out.scheme = scheme;
  // Fixed per-feature seed derivation: feature i consumes the i-th value
  // of a SplitMix64 stream over opts.seed, independent of pool/threads.
  rng::SplitMix64 seeds(opts.seed);

  double bestEmpirical = std::numeric_limits<double>::infinity();
  std::size_t bestIndex = 0;
  for (std::size_t i = 0; i < rep.features.size(); ++i) {
    const radius::MergedFeatureReport& fr = rep.features[i];
    const feature::BoundedFeature& fP = analysis.pSpaceFeatures()[i];
    feature::FeatureSet single;
    single.add(fP.feature, fP.bounds);
    EstimatorOptions perFeature = opts;
    perFeature.seed = seeds.next();
    EmpiricalEstimate est = estimateEmpiricalRadius(
        single, analysis.map(i).toP(orig), perFeature, pool);
    if (est.radius <= bestEmpirical) {
      bestEmpirical = est.radius;
      bestIndex = i;
    }
    out.perFeature.push_back(compare(fr.featureName, fr.radius.radius, est));
  }

  out.rho = compare("rho (min over features)", rep.rho,
                    out.perFeature[bestIndex].empirical);
  out.criticalFeature = bestIndex;

  if (scheme == radius::MergeScheme::NormalizedByOriginal) {
    // One shared map: the joint safe region is well-defined in P-space.
    EstimatorOptions jointOpts = opts;
    jointOpts.seed = seeds.next();
    out.joint = compare("rho (joint region)", rep.rho,
                        estimateEmpiricalRadius(analysis.pSpaceFeatures(),
                                                analysis.map(0).toP(orig),
                                                jointOpts, pool));
  }
  return out;
}

}  // namespace fepia::validate

#include "fault/degraded.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "radius/fepia.hpp"
#include "radius/merge.hpp"

namespace fepia::fault {

void LiveFaultStats::writeGauges(obs::Registry& reg) const {
  reg.setGauge("fault.live_classifications",
               static_cast<double>(
                   classifications.load(std::memory_order_relaxed)));
  reg.setGauge("fault.live_retries",
               static_cast<double>(retries.load(std::memory_order_relaxed)));
  reg.setGauge("fault.live_dropped",
               static_cast<double>(
                   droppedMessages.load(std::memory_order_relaxed)));
}

validate::EstimatorOptions desEstimatorOptions(validate::EstimatorOptions base,
                                               bool explicitDirections) {
  if (!explicitDirections) base.directions = 64;
  base.chunkSize = std::min(base.chunkSize, std::size_t{8});
  base.horizon = 4.0;   // relative coordinates; pi < 0 beyond 1
  base.polishSweeps = 12;  // each classification is a full DES run
  return base;
}

DegradedEstimate estimateDegradedRadius(const hiperd::ReferenceSystem& ref,
                                        const std::vector<FaultPlan>& scenarios,
                                        const validate::EstimatorOptions& estimator,
                                        const DegradedOptions& opts,
                                        parallel::ThreadPool* pool) {
  // Analytic side: the normalized-by-original merged analysis, exactly as
  // `validate --des` builds it, supplies rho and the P-space map of the
  // critical feature.
  const radius::FepiaProblem mixed =
      ref.system.executionMessageProblem(ref.qos);
  const radius::MergedAnalysis analysis =
      mixed.merged(radius::MergeScheme::NormalizedByOriginal);
  const auto& rep = analysis.report();
  const radius::DiagonalMap& map = analysis.map(rep.criticalFeature);

  DegradedEstimate out;
  out.analyticRho = rep.rho;
  out.criticalFeature = rep.features[rep.criticalFeature].featureName;

  // One injector per scenario, validated up front. An empty plan maps to
  // a null injector so the simulation takes the exact fault-free path.
  std::vector<std::unique_ptr<PlanInjector>> injectors;
  injectors.reserve(scenarios.size());
  for (const FaultPlan& plan : scenarios) {
    injectors.push_back(plan.empty()
                            ? nullptr
                            : std::make_unique<PlanInjector>(plan, ref.system));
  }
  const auto injectorFor = [&](std::size_t direction) -> const des::FaultModel* {
    if (injectors.empty()) return nullptr;
    return injectors[direction % injectors.size()].get();
  };

  des::PipelineOptions desOpts;
  desOpts.generations = opts.generations;
  desOpts.serviceJitterCov = opts.serviceJitterCov;
  des::PipelineKernel kernel(ref.system);

  // Nominal run: scenario 0 at the unperturbed operating point, with
  // full statistics. This is the same evaluation the estimator's origin
  // check performs, so when it fails the degraded radius is zero by
  // definition — report that instead of tripping the estimator's
  // domain_error.
  const la::Vector pOrig = map.toP(mixed.space().concatenatedOriginal());
  {
    const auto parts = mixed.space().split(map.fromP(pOrig));
    desOpts.faults = injectorFor(0);
    out.nominal = kernel.simulate(parts[0], parts[1], ref.qos.minThroughput,
                                  desOpts);
    out.nominalSatisfies = out.nominal.satisfies(ref.qos.maxLatencySeconds);
    if (!out.nominalSatisfies) {
      out.degraded.radius = 0.0;
      out.degraded.ci = stats::Interval{0.0, 0.0};
      return out;
    }
  }

  // Joint-space membership: map each P-space probe back to an
  // (execution times ⋆ message sizes) operating point and simulate it
  // with the probe direction's fault scenario active. Only the verdict
  // matters, so a run stops at its first certain QoS violation. The
  // estimator copies the predicate once per chunk, so every chunk owns
  // its kernel's event queue and buffers.
  const validate::BlockSafePredicate safe =
      [&, kernel, desOpts, P = la::Vector(pOrig.size())](
          const la::PointBlock& block, std::span<const std::size_t> directions,
          std::span<std::uint8_t> safeOut) mutable {
        for (std::size_t l = 0; l < block.lanes(); ++l) {
          block.gatherPoint(l, P.span());
          safeOut[l] = 0;
          const la::Vector pi = map.fromP(P);
          if (std::any_of(pi.begin(), pi.end(),
                          [](double x) { return x < 0.0; })) {
            continue;  // unphysical operating point
          }
          const auto parts = mixed.space().split(pi);
          desOpts.faults = injectorFor(directions[l]);
          const des::PipelineVerdict v =
              kernel.verdict(parts[0], parts[1], ref.qos.minThroughput,
                             ref.qos.maxLatencySeconds, desOpts);
          if (opts.live != nullptr) {
            opts.live->classifications.fetch_add(1, std::memory_order_relaxed);
            opts.live->retries.fetch_add(v.faults.retries,
                                         std::memory_order_relaxed);
            opts.live->droppedMessages.fetch_add(v.faults.droppedMessages,
                                                 std::memory_order_relaxed);
          }
          safeOut[l] = v.satisfies ? 1 : 0;
        }
      };
  out.degraded = validate::estimateEmpiricalRadius(
      safe, pOrig, desEstimatorOptions(estimator, opts.explicitDirections),
      pool);
  return out;
}

}  // namespace fepia::fault

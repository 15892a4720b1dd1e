// Experiment TTV (extension) — does the static radius predict dynamic
// lifetime?
//
// The paper's premise is that a more robust allocation survives longer
// in a dynamic environment before its first QoS violation. This
// experiment makes the premise quantitative on the HiPer-D load problem:
// sweep the QoS slack (which sweeps rho), drive every configuration with
// the SAME ensemble of random-walk and burst load traces (common random
// numbers), and record violation fraction and time to first violation.
//
// Expected shape: larger radii violate less often under both trace
// models, and later under the random walk. The burst median
// time-to-violation is taken only over the traces that still violate,
// so it need not grow (it dips between factors 1.25 and 1.5). The
// radius is a worst-direction quantity, so it is a conservative but
// correctly ordered predictor of how often a load trace violates.
//
// Checked (exit status 1 on a miss): down the table rho never falls,
// neither violation fraction ever rises, and the random-walk median
// time-to-violation never falls.
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  std::cout << "=== TTV: static radius vs dynamic time-to-violation ===\n\n"
            << "HiPer-D load problem; 80 random-walk traces (vol 5%/step, "
               "300 steps) and 80\nburst traces per configuration, same "
               "seeds across configurations\n\n";

  report::Table table({"latency-bound factor", "rho (objects/set)",
                       "RW violated", "RW median TTV", "burst violated",
                       "burst median TTV"});

  bool ordered = true;
  double previousRho = 0.0;
  double previousRwFraction = 1.0;
  double previousRwMedian = 0.0;
  std::size_t previousBurstViolated = 80;
  for (const double f : {1.0, 1.25, 1.5, 2.0, 3.0}) {
    hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
    ref.qos.maxLatencySeconds *= f;
    const feature::FeatureSet phi = ref.system.loadFeatureSet(ref.qos);
    const la::Vector lambda = ref.system.originalLoads();
    const double rho = radius::robustness(phi, lambda).rho;

    // Random-walk ensemble (common random numbers across f).
    trace::RandomWalkParams rw;
    rw.steps = 300;
    rw.volatility = 0.05;
    rng::Xoshiro256StarStar gRw(4242);
    const trace::SurvivalSummary sRw =
        trace::survival(phi, lambda, rw, 80, gRw);

    // Burst ensemble.
    trace::BurstParams burst;
    burst.steps = 300;
    burst.burstsPerStep = 0.05;
    burst.factorMin = 1.3;
    burst.factorMax = 2.5;
    rng::Xoshiro256StarStar gBurst(777);
    std::size_t burstViolated = 0;
    std::vector<double> burstTimes;
    for (int r = 0; r < 80; ++r) {
      const trace::LoadTrace tr = trace::burstTrace(lambda, burst, gBurst);
      if (const auto t = trace::firstViolation(phi, tr)) {
        ++burstViolated;
        burstTimes.push_back(static_cast<double>(*t));
      }
    }

    ordered = ordered && rho >= previousRho &&
              sRw.violationFraction <= previousRwFraction &&
              sRw.medianTimeToViolation >= previousRwMedian &&
              burstViolated <= previousBurstViolated;
    previousRho = rho;
    previousRwFraction = sRw.violationFraction;
    previousRwMedian = sRw.medianTimeToViolation;
    previousBurstViolated = burstViolated;
    table.addRow(
        {report::fixed(f, 2), report::fixed(rho, 1),
         report::fixed(100.0 * sRw.violationFraction, 0) + "%",
         sRw.violated > 0 ? report::fixed(sRw.medianTimeToViolation, 0)
                          : "-",
         report::fixed(100.0 * burstViolated / 80.0, 0) + "%",
         burstTimes.empty() ? "-"
                            : report::fixed(stats::median(burstTimes), 0)});
  }
  table.print(std::cout);
  std::cout
      << "\nShape check: rho grows down the table until it levels off "
         "at factor 1.5, and\nneither violation fraction rises. The "
         "random-walk median time-to-violation\ngrows with rho; the burst "
         "median need not (it is taken over the traces that\nstill violate, "
         "and it dips between factors 1.25 and 1.5). The static radius\n"
         "orders how often both stochastic models violate.\n\n";

  return checkClaims(
      {{ordered,
        "TTV: as rho grows, violation fractions never rise and the "
        "random-walk median time-to-violation never falls"}});
}

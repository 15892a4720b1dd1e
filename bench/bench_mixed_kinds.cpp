// Experiment MIX — the paper's headline scenario: execution times e_j
// (seconds) AND message lengths m_k (bytes) perturbed together on the
// HiPer-D pipeline.
//
// Regenerates:
//  * the unit-mismatch refusal for naive concatenation (Section 3's
//    premise);
//  * per-feature P-space radii under both merge schemes, showing the
//    sensitivity scheme collapsing every feature to 1/sqrt(#kinds it
//    depends on) while the normalized scheme separates them;
//  * a QoS-slack sweep: the normalized rho tracks the robustness
//    requirement, the sensitivity rho stays flat — Section 3.1's
//    objection on a full system rather than a toy.
//
// Checked (exit status 1 on a miss): naive concatenation throws
// units::MismatchError; every sensitivity radius is 1/sqrt(kinds used)
// to 1e-12 relative; across the slack sweep the sensitivity rho stays
// put while the normalized rho never falls and ends higher.
#include <cmath>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  const radius::FepiaProblem problem =
      ref.system.executionMessageProblem(ref.qos);

  std::cout << "=== MIX: multiple kinds (execution times ⋆ message lengths) "
               "===\n\n";

  // The Section 3 premise.
  bool naiveRefused = false;
  try {
    (void)problem.robustnessSameUnits();
    std::cout << "ERROR: naive concatenation was not refused!\n";
  } catch (const units::MismatchError& e) {
    naiveRefused = true;
    std::cout << "naive concatenation refused: " << e.what() << "\n\n";
  }

  // Per-feature radii under both schemes.
  const auto sens = problem.merged(radius::MergeScheme::Sensitivity);
  const auto norm = problem.merged(radius::MergeScheme::NormalizedByOriginal);
  report::Table table({"feature", "kinds used", "radius sensitivity",
                       "radius normalized"});
  double worstRelative = 0.0;
  for (std::size_t i = 0; i < sens.report().features.size(); ++i) {
    const auto& fs = sens.report().features[i];
    const auto& fn = norm.report().features[i];
    std::size_t used = 0;
    for (double a : fs.alphasPerKind) used += a != 0.0 ? 1 : 0;
    const double collapsed = 1.0 / std::sqrt(static_cast<double>(used));
    worstRelative = std::max(
        worstRelative, std::abs(fs.radius.radius - collapsed) / collapsed);
    table.addRow({fs.featureName, std::to_string(used),
                  report::fixed(fs.radius.radius, 6),
                  report::fixed(fn.radius.radius, 6)});
  }
  table.print(std::cout);
  std::cout << "\nrho sensitivity = " << report::fixed(sens.report().rho, 6)
            << " (every value is 1/sqrt(kinds used) — cannot separate "
               "constraints)\n"
            << "rho normalized  = " << report::fixed(norm.report().rho, 6)
            << " (critical: "
            << norm.report().features[norm.report().criticalFeature].featureName
            << ")\n\n";

  // Slack sweep: scale the latency bound; watch each scheme's rho.
  std::cout << "QoS-slack sweep (latency bound scaled by f):\n";
  report::Table sweep({"latency bound factor f", "rho sensitivity",
                       "rho normalized"});
  bool sensitivityFlat = true;
  bool normalizedNeverFalls = true;
  double normalizedRho = norm.report().rho;
  for (const double f : {1.0, 1.25, 1.5, 2.0, 3.0, 5.0}) {
    hiperd::QoS qos = ref.qos;
    qos.maxLatencySeconds *= f;
    const radius::FepiaProblem p = ref.system.executionMessageProblem(qos);
    const double rs = p.rho(radius::MergeScheme::Sensitivity);
    const double rn = p.rho(radius::MergeScheme::NormalizedByOriginal);
    sensitivityFlat = sensitivityFlat &&
                      std::abs(rs - sens.report().rho) <= 1e-12 * rs;
    normalizedNeverFalls = normalizedNeverFalls && rn >= normalizedRho;
    normalizedRho = rn;
    sweep.addRow({report::fixed(f, 2), report::fixed(rs, 6),
                  report::fixed(rn, 6)});
  }
  sweep.print(std::cout);
  std::cout << "(normalized rho grows until the binding constraint switches "
               "from latency to a\n compute budget and saturates; "
               "sensitivity rho never moves)\n\n";

  return checkClaims(
      {{naiveRefused,
        "MIX: naive concatenation of seconds and bytes throws "
        "units::MismatchError"},
       {worstRelative <= 1e-12,
        "MIX: every sensitivity radius is 1/sqrt(kinds used) to 1e-12 "
        "relative"},
       {sensitivityFlat, "MIX: the sensitivity rho ignores the QoS slack"},
       {normalizedNeverFalls && normalizedRho > norm.report().rho,
        "MIX: the normalized rho grows with the QoS slack"}});
}

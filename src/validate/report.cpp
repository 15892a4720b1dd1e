#include "validate/report.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "obs/json.hpp"

namespace fepia::validate {

Comparison compare(std::string label, double analyticRadius,
                   EmpiricalEstimate empirical) {
  Comparison c;
  c.label = std::move(label);
  c.analyticRadius = analyticRadius;
  c.empirical = std::move(empirical);
  if (analyticRadius != 0.0 && std::isfinite(analyticRadius) &&
      c.empirical.finite()) {
    c.relativeError = (c.empirical.radius - analyticRadius) / analyticRadius;
  } else {
    c.relativeError = std::numeric_limits<double>::quiet_NaN();
  }
  if (std::isinf(analyticRadius) && !c.empirical.finite()) {
    // Both sides agree the region is unbounded in every sampled direction.
    c.analyticWithinCI = true;
  } else {
    // Ulp-level slack: the bisection's final bracket midpoint can land a
    // couple of ulps on either side of the analytic value.
    const double slack = 1e-12 * (1.0 + std::abs(analyticRadius));
    c.analyticWithinCI = c.empirical.finite() &&
                         analyticRadius >= c.empirical.ci.lo - slack &&
                         analyticRadius <= c.empirical.ci.hi + slack;
  }
  return c;
}

report::Table comparisonTable(std::span<const Comparison> rows) {
  report::Table table({"feature", "analytic", "empirical", "rel err",
                       "95% CI", "analytic in CI", "hits/dirs", "classif."});
  for (const Comparison& c : rows) {
    const bool fin = c.empirical.finite();
    std::string ci = "-";
    if (fin) {
      ci = "[";
      ci += report::num(c.empirical.ci.lo, 6);
      ci += ", ";
      ci += report::num(c.empirical.ci.hi, 6);
      ci += "]";
    }
    table.addRow(
        {c.label,
         std::isfinite(c.analyticRadius) ? report::num(c.analyticRadius, 8)
                                         : "inf",
         fin ? report::num(c.empirical.radius, 8) : "inf",
         std::isnan(c.relativeError) ? "-" : report::num(c.relativeError, 3),
         std::move(ci),
         c.analyticWithinCI ? "yes" : "NO",
         std::to_string(c.empirical.boundaryHits) + "/" +
             std::to_string(c.empirical.directions),
         std::to_string(c.empirical.classifications)});
  }
  return table;
}

void writeComparisonJson(std::ostream& os, std::span<const Comparison> rows,
                         const obs::RunManifest* manifest) {
  obs::JsonWriter w(os);
  w.object();
  if (manifest != nullptr) {
    manifest->writeJson(w.key("manifest").valueStream());
  }
  w.array("rows");
  for (const Comparison& c : rows) {
    const EmpiricalEstimate& e = c.empirical;
    w.object().str("label", c.label).num("analytic", c.analyticRadius);
    w.num("empirical", e.radius).num("relative_error", c.relativeError);
    w.array("ci").num(e.ci.lo).num(e.ci.hi).end();
    w.boolean("within_ci", c.analyticWithinCI);
    w.count("directions", e.directions).count("boundary_hits", e.boundaryHits);
    w.count("classifications", e.classifications).end();
  }
  w.end().end();
  os << '\n';
}

}  // namespace fepia::validate

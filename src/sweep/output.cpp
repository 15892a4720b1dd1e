#include "sweep/output.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace fepia::sweep {
namespace {

/// Table/CSV cell for a result double: empty for "not computed",
/// explicit tokens for infinities (CSV consumers cannot parse "1/0").
std::string cell(double v) {
  if (std::isnan(v)) return "";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return report::num(v, 9);
}

}  // namespace

report::Table surfaceTable(const SweepSpec& spec,
                           const SweepSurface& surface) {
  std::vector<std::string> headers{"id"};
  for (const Axis& a : spec.axes) headers.push_back(a.name);
  for (const char* h : {"analytic rho", "closed form", "empirical",
                        "degraded", "makespan", "cls"}) {
    headers.emplace_back(h);
  }
  report::Table table(std::move(headers));
  for (std::size_t id = 0; id < surface.points; ++id) {
    if (!surface.computed[id]) continue;
    const std::vector<std::size_t> idx = spec.decode(id);
    const PointResult& r = surface.results[id];
    std::vector<std::string> row{std::to_string(id)};
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      row.push_back(spec.axes[a].values[idx[a]].token);
    }
    row.push_back(cell(r.analyticRho));
    row.push_back(cell(r.closedForm));
    row.push_back(cell(r.empirical));
    row.push_back(cell(r.degraded));
    row.push_back(cell(r.makespan));
    row.push_back(std::to_string(r.classifications));
    table.addRow(std::move(row));
  }
  return table;
}

report::Table axisResponseTable(const SweepSpec& spec,
                                const SweepSurface& surface,
                                const std::string& axis) {
  std::size_t axisIndex = spec.axes.size();
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (spec.axes[a].name == axis) axisIndex = a;
  }
  if (axisIndex == spec.axes.size()) {
    throw std::out_of_range("sweep: unknown axis '" + axis + "'");
  }
  const Axis& ax = spec.axes[axisIndex];
  report::Table table({"axis", "value", "points", "rho mean", "rho min",
                       "rho max"});
  for (std::size_t v = 0; v < ax.values.size(); ++v) {
    double sum = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    std::size_t count = 0;
    for (std::size_t id = 0; id < surface.points; ++id) {
      if (!surface.computed[id]) continue;
      if (spec.decode(id)[axisIndex] != v) continue;
      const double rho = surface.results[id].analyticRho;
      if (!std::isfinite(rho)) continue;
      sum += rho;
      lo = std::min(lo, rho);
      hi = std::max(hi, rho);
      ++count;
    }
    table.addRow({axis, ax.values[v].token, std::to_string(count),
                  count > 0 ? report::num(sum / static_cast<double>(count), 9)
                            : "",
                  count > 0 ? report::num(lo, 9) : "",
                  count > 0 ? report::num(hi, 9) : ""});
  }
  return table;
}

void writeSurfaceJson(std::ostream& os, const SweepSpec& spec,
                      const SweepSurface& surface,
                      const obs::RunManifest* manifest) {
  obs::JsonWriter w(os);
  w.object(obs::JsonLayout::Lines).str("sweep", spec.name);
  // One line, so run-to-run byte comparisons can filter exactly it.
  if (manifest != nullptr) {
    manifest->writeJson(w.key("manifest").valueStream());
  }
  w.str("workload", workloadName(spec.workload)).count("seed", spec.seed);
  w.count("points", surface.points).count("chunk", surface.chunk);
  w.count("shards", surface.shards).boolean("complete", surface.complete);
  w.count("resumed_shards", surface.resumedShards);
  w.object("cache").boolean("enabled", surface.cacheEnabled);
  w.count("hits", surface.cacheHits).count("misses", surface.cacheMisses);
  w.end().count("classifications", surface.classifications);
  w.array("axes", obs::JsonLayout::Lines);
  for (const Axis& axis : spec.axes) {
    w.object().str("name", axis.name).array("values");
    for (const AxisValue& v : axis.values) w.str(v.token);
    w.end().end();
  }
  w.end().array("results", obs::JsonLayout::Lines);
  for (std::size_t id = 0; id < surface.points; ++id) {
    if (!surface.computed[id]) continue;
    const std::vector<std::size_t> idx = spec.decode(id);
    const PointResult& r = surface.results[id];
    w.object().count("id", id).object("point");
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      w.str(spec.axes[a].name, spec.axes[a].values[idx[a]].token);
    }
    w.end().num("analytic_rho", r.analyticRho);
    w.num("closed_form_radius", r.closedForm);
    w.num("empirical_radius", r.empirical).num("degraded_radius", r.degraded);
    w.num("makespan", r.makespan).count("classifications", r.classifications);
    w.end();
  }
  w.end().end();
  os << '\n';
}

SurfaceSummary summarize(const SweepSurface& surface) {
  SurfaceSummary s;
  s.rhoMin = std::numeric_limits<double>::infinity();
  s.rhoMax = -std::numeric_limits<double>::infinity();
  for (std::size_t id = 0; id < surface.points; ++id) {
    if (!surface.computed[id]) continue;
    const PointResult& r = surface.results[id];
    if (std::isfinite(r.analyticRho)) {
      s.rhoMin = std::min(s.rhoMin, r.analyticRho);
      s.rhoMax = std::max(s.rhoMax, r.analyticRho);
      ++s.finitePoints;
    }
    if (std::isfinite(r.analyticRho) && std::isfinite(r.closedForm)) {
      s.worstClosedFormDeviation = std::max(
          s.worstClosedFormDeviation, std::abs(r.analyticRho - r.closedForm));
    }
  }
  if (s.finitePoints == 0) {
    s.rhoMin = 0.0;
    s.rhoMax = 0.0;
  }
  return s;
}

}  // namespace fepia::sweep

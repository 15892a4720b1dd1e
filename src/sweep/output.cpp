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
  os << "{\n  \"sweep\": ";
  obs::writeJsonString(os, spec.name);
  if (manifest != nullptr) {
    // One line, so run-to-run byte comparisons can filter exactly it.
    os << ",\n  \"manifest\": ";
    manifest->writeJson(os);
  }
  os << ",\n  \"workload\": ";
  obs::writeJsonString(os, workloadName(spec.workload));
  os << ",\n  \"seed\": " << spec.seed << ",\n  \"points\": " << surface.points
     << ",\n  \"chunk\": " << surface.chunk
     << ",\n  \"shards\": " << surface.shards << ",\n  \"complete\": "
     << (surface.complete ? "true" : "false")
     << ",\n  \"resumed_shards\": " << surface.resumedShards
     << ",\n  \"cache\": {\"enabled\": "
     << (surface.cacheEnabled ? "true" : "false")
     << ", \"hits\": " << surface.cacheHits
     << ", \"misses\": " << surface.cacheMisses << "}"
     << ",\n  \"classifications\": " << surface.classifications
     << ",\n  \"axes\": [";
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    os << (a > 0 ? ",\n    " : "\n    ") << "{\"name\": ";
    obs::writeJsonString(os, spec.axes[a].name);
    os << ", \"values\": [";
    for (std::size_t v = 0; v < spec.axes[a].values.size(); ++v) {
      if (v > 0) os << ", ";
      obs::writeJsonString(os, spec.axes[a].values[v].token);
    }
    os << "]}";
  }
  os << "\n  ],\n  \"results\": [";
  bool firstRow = true;
  for (std::size_t id = 0; id < surface.points; ++id) {
    if (!surface.computed[id]) continue;
    const std::vector<std::size_t> idx = spec.decode(id);
    const PointResult& r = surface.results[id];
    os << (firstRow ? "\n    " : ",\n    ") << "{\"id\": " << id
       << ", \"point\": {";
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      if (a > 0) os << ", ";
      obs::writeJsonString(os, spec.axes[a].name);
      os << ": ";
      obs::writeJsonString(os, spec.axes[a].values[idx[a]].token);
    }
    os << "}, \"analytic_rho\": ";
    obs::writeJsonNumber(os, r.analyticRho);
    os << ", \"closed_form_radius\": ";
    obs::writeJsonNumber(os, r.closedForm);
    os << ", \"empirical_radius\": ";
    obs::writeJsonNumber(os, r.empirical);
    os << ", \"degraded_radius\": ";
    obs::writeJsonNumber(os, r.degraded);
    os << ", \"makespan\": ";
    obs::writeJsonNumber(os, r.makespan);
    os << ", \"classifications\": " << r.classifications << "}";
    firstRow = false;
  }
  os << "\n  ]\n}\n";
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

// Implementation notes: these four runners are the former mode bodies
// of tools/fepia_cli.cpp, moved here wholesale so the CLI and fepiad
// share them. Behavior-preserving transcription rules: std::cout became
// the `out` parameter, the g_obs globals became QueryContext fields,
// `return usage(argv[0])` became `throw UsageError(...)`, and the
// "error: cannot write" early-returns became std::runtime_error with
// the same message (the CLI's catch prints the identical line). Any
// intentional behavior change belongs in *both* front ends by
// construction — make it here.
#include "server/query.hpp"

#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "des/pipeline.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "io/parse.hpp"
#include "io/problem_io.hpp"
#include "io/system_io.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "radius/registry/scheduler.hpp"
#include "server/dist_sweep.hpp"
#include "server/session_cache.hpp"
#include "sweep/engine.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace fepia::server {
namespace {

/// Resolves the compute pool for one invocation: a shared long-lived
/// pool wins (server), else --threads creates a per-invocation pool
/// (CLI), else everything runs serially. Results are bit-identical in
/// all three cases; only the wall clock differs.
struct PoolHandle {
  parallel::ThreadPool* pool = nullptr;
  std::unique_ptr<parallel::ThreadPool> owned;
};

PoolHandle makePool(QueryContext& ctx,
                    const std::optional<std::size_t>& threads) {
  PoolHandle h;
  if (ctx.sharedPool != nullptr) {
    h.pool = ctx.sharedPool;
    return h;
  }
  if (threads.has_value()) {
    h.owned = std::make_unique<parallel::ThreadPool>(*threads);
    h.pool = h.owned.get();
  }
  return h;
}

std::shared_ptr<const radius::FepiaProblem> loadProblemHandle(
    QueryContext& ctx, const std::string& path) {
  if (ctx.cache != nullptr) return ctx.cache->problem(path);
  return std::make_shared<const radius::FepiaProblem>(io::loadProblem(path));
}

std::shared_ptr<const hiperd::ReferenceSystem> loadSystemHandle(
    QueryContext& ctx, const std::string& path) {
  if (ctx.cache != nullptr) return ctx.cache->system(path);
  return std::make_shared<const hiperd::ReferenceSystem>(
      io::loadSystem(path));
}

/// Stores the captured JSON document into the result and, when a --json
/// path was given, writes it to disk (failure keeps the CLI's exact
/// "cannot write '<path>'" diagnostic via the dispatch-level catch).
void finishJson(QueryResult& result, const std::string& jsonPath,
                const std::string& doc) {
  result.hasJson = true;
  result.json = doc;
  if (jsonPath.empty()) return;
  std::ofstream file(jsonPath);
  if (!file) {
    throw std::runtime_error("cannot write '" + jsonPath + "'");
  }
  file << doc;
}

la::Vector parseValueList(const std::string& csv) {
  la::Vector out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(argDouble("--check", item));
  }
  return out;
}

/// Splits a colon-separated flag value ("3:12.5:1" -> {"3","12.5","1"}).
std::vector<std::string> splitColons(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ':')) out.push_back(item);
  return out;
}

[[noreturn]] void badSpec(const char* flag, const std::string& value,
                          const char* expected) {
  throw std::invalid_argument(std::string("bad value for ") + flag + ": '" +
                              value + "' (expected " + expected + ")");
}

/// "HOST:PORT" for --serve/--worker. Port 0 is allowed (--serve binds
/// an ephemeral port and prints it); an empty host means loopback.
std::pair<std::string, std::uint16_t> parseHostPort(const char* flag,
                                                    const std::string& value) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon + 1 == value.size()) {
    badSpec(flag, value, "HOST:PORT");
  }
  const std::string host =
      colon == 0 ? std::string("127.0.0.1") : value.substr(0, colon);
  const std::size_t port = argSize(flag, value.substr(colon + 1));
  if (port > 65535) badSpec(flag, value, "a port in [0, 65535]");
  return {host, static_cast<std::uint16_t>(port)};
}

/// Prints one scheme/region validation block and collects its rows for
/// the JSON report. Returns the number of rows whose analytic radius
/// missed the empirical CI.
std::size_t emitValidation(std::ostream& out, const std::string& heading,
                           std::vector<validate::Comparison> rows, bool csv,
                           std::vector<validate::Comparison>& jsonRows) {
  out << heading << "\n";
  emitTable(out, validate::comparisonTable(rows), csv);
  std::size_t misses = 0;
  for (validate::Comparison& row : rows) {
    if (!row.analyticWithinCI) ++misses;
    row.label = heading + ": " + row.label;
    jsonRows.push_back(std::move(row));
  }
  return misses;
}

/// The estimator's probe count so far, as the live gauge both validate
/// and fault-sim publish.
void setLiveClassificationsGauge(obs::Registry& reg,
                                 const std::atomic<std::uint64_t>& count) {
  reg.setGauge("validate.live_classifications",
               static_cast<double>(count.load(std::memory_order_relaxed)));
}

}  // namespace

double argDouble(const char* flag, const std::string& value) {
  const std::optional<double> v = io::parseFiniteDouble(value);
  if (!v.has_value()) {
    throw std::invalid_argument(std::string("bad value for ") + flag + ": '" +
                                value + "' (expected a finite number)");
  }
  return *v;
}

std::uint64_t argUint(const char* flag, const std::string& value) {
  const std::optional<std::uint64_t> v = io::parseUint64(value);
  if (!v.has_value()) {
    throw std::invalid_argument(std::string("bad value for ") + flag + ": '" +
                                value + "' (expected an unsigned integer)");
  }
  return *v;
}

std::size_t argSize(const char* flag, const std::string& value) {
  return static_cast<std::size_t>(argUint(flag, value));
}

void emitTable(std::ostream& out, const report::Table& table, bool csv) {
  if (csv) {
    table.printCsv(out);
  } else {
    table.print(out);
  }
  out << '\n';
}

void printMerged(std::ostream& out, const radius::FepiaProblem& problem,
                 radius::MergeScheme scheme, bool csv, obs::Registry* metrics,
                 const std::string& backendOverride) {
  namespace rb = radius::backend;
  rb::RadiusProblem rp;
  rp.problem = &problem;
  rp.scheme = scheme;
  rb::RadiusRequest req;
  req.backendOverride = backendOverride;
  req.metrics = metrics;
  const rb::RadiusOutcome outcome = rb::solveRadius(rp, req);
  out << "scheme: " << radius::mergeSchemeName(scheme) << "\n";
  if (outcome.merged != nullptr) {
    const auto& rep = *outcome.merged;
    report::Table table({"feature", "radius (P-space)", "bound side", "exact"});
    for (const auto& f : rep.features) {
      table.addRow({f.featureName, report::num(f.radius.radius, 8),
                    f.radius.side == radius::BoundSide::Max
                        ? "upper"
                        : (f.radius.side == radius::BoundSide::Min ? "lower"
                                                                   : "none"),
                    f.radius.exact ? "yes" : "no"});
    }
    emitTable(out, table, csv);
  }
  out << "rho = " << report::num(outcome.rho, 8) << "  (critical: "
      << outcome.criticalFeature << ")\n"
      << "backend: " << outcome.backendName << "\n\n";
}

QueryResult runRadiusQuery(const std::vector<std::string>& args,
                           std::ostream& out, QueryContext& ctx) {
  if (args.empty()) throw UsageError("missing problem file");
  const std::string& path = args[0];
  std::string schemeArg = "both";
  std::string backendArg;
  std::vector<la::Vector> checkPoint;
  bool csv = false;
  bool echo = false;

  const std::size_t n = args.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (args[i] == "--scheme" && i + 1 < n) {
      schemeArg = args[++i];
    } else if (args[i] == "--backend" && i + 1 < n) {
      backendArg = args[++i];
    } else if (args[i] == "--check" && i + 1 < n) {
      try {
        checkPoint.push_back(parseValueList(args[++i]));
      } catch (const std::exception&) {
        throw std::invalid_argument("bad --check value list");
      }
    } else if (args[i] == "--csv") {
      csv = true;
    } else if (args[i] == "--echo") {
      echo = true;
    } else {
      throw UsageError("unrecognized argument '" + args[i] + "'");
    }
  }
  if (schemeArg != "both" && schemeArg != "normalized" &&
      schemeArg != "sensitivity") {
    throw UsageError("bad --scheme value '" + schemeArg + "'");
  }

  const std::shared_ptr<const radius::FepiaProblem> handle =
      loadProblemHandle(ctx, path);
  const radius::FepiaProblem& problem = *handle;

  if (echo) {
    io::writeProblem(out, problem);
    out << '\n';
  }

  // Problem summary.
  report::Table kinds({"kind", "unit", "dim", "original values"});
  for (std::size_t j = 0; j < problem.space().kindCount(); ++j) {
    const auto& p = problem.space().kind(j);
    std::ostringstream vals;
    vals << p.original();
    kinds.addRow({p.name(), p.unit().str(), std::to_string(p.size()),
                  vals.str()});
  }
  emitTable(out, kinds, csv);

  // Per-kind radii (always legal, one kind at a time).
  report::Table perKind({"feature", "kind", "radius (kind units)"});
  for (std::size_t i = 0; i < problem.features().size(); ++i) {
    for (std::size_t j = 0; j < problem.space().kindCount(); ++j) {
      const radius::RadiusResult r = problem.singleKindRadius(i, j);
      perKind.addRow({problem.features()[i].feature->name(),
                      problem.space().kind(j).name(),
                      r.finite() ? report::num(r.radius, 8) : "inf"});
    }
  }
  emitTable(out, perKind, csv);

  if (schemeArg == "both" || schemeArg == "normalized") {
    printMerged(out, problem, radius::MergeScheme::NormalizedByOriginal, csv,
                ctx.registry, backendArg);
  }
  if (schemeArg == "both" || schemeArg == "sensitivity") {
    printMerged(out, problem, radius::MergeScheme::Sensitivity, csv,
                ctx.registry, backendArg);
  }

  QueryResult result;
  if (!checkPoint.empty()) {
    const radius::MergeScheme scheme =
        schemeArg == "sensitivity" ? radius::MergeScheme::Sensitivity
                                   : radius::MergeScheme::NormalizedByOriginal;
    const radius::ToleranceCheck check =
        problem.wouldTolerate(checkPoint, scheme);
    out << "operating point "
        << (check.tolerated ? "TOLERATED" : "NOT tolerated") << " under the "
        << radius::mergeSchemeName(scheme) << " scheme (worst margin "
        << report::num(check.worstMargin, 6) << ")\n";
    result.exitCode = check.tolerated ? 0 : 2;
  }
  return result;
}

QueryResult runValidateQuery(const std::vector<std::string>& args,
                             std::ostream& out, QueryContext& ctx) {
  std::string path;
  bool hiperd = false;
  bool des = false;
  bool csv = false;
  std::string schemeArg = "both";
  std::string jsonPath;
  std::string backendArg;
  std::optional<std::size_t> samples;
  std::optional<std::size_t> threads;
  validate::EstimatorOptions opts;

  const std::size_t n = args.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (args[i] == "--hiperd" && i + 1 < n) {
      hiperd = true;
      path = args[++i];
    } else if (args[i] == "--des") {
      des = true;
    } else if (args[i] == "--csv") {
      csv = true;
    } else if (args[i] == "--scheme" && i + 1 < n) {
      schemeArg = args[++i];
    } else if (args[i] == "--backend" && i + 1 < n) {
      backendArg = args[++i];
    } else if (args[i] == "--samples" && i + 1 < n) {
      samples = argSize("--samples", args[++i]);
    } else if (args[i] == "--seed" && i + 1 < n) {
      opts.seed = argUint("--seed", args[++i]);
    } else if (args[i] == "--threads" && i + 1 < n) {
      threads = argSize("--threads", args[++i]);
    } else if (args[i] == "--json" && i + 1 < n) {
      jsonPath = args[++i];
    } else if (path.empty() && (args[i].empty() || args[i][0] != '-')) {
      path = args[i];
    } else {
      throw UsageError("unrecognized argument '" + args[i] + "'");
    }
  }
  if (path.empty() || (des && !hiperd)) {
    throw UsageError("validate needs a problem file or --hiperd SYSTEM");
  }
  if (schemeArg != "both" && schemeArg != "normalized" &&
      schemeArg != "sensitivity") {
    throw UsageError("bad --scheme value '" + schemeArg + "'");
  }
  if (samples.has_value()) opts.directions = *samples;
  opts.metrics = ctx.registry;
  ctx.manifest->tool = "fepia_cli validate";
  ctx.manifest->seed = opts.seed;
  ctx.manifest->threads = threads.value_or(0);

  const PoolHandle pool = makePool(ctx, threads);

  // Live telemetry gauges: estimator probe counts as they accumulate,
  // plus pool occupancy when a pool exists.
  std::atomic<std::uint64_t> liveClassifications{0};
  opts.liveClassifications = &liveClassifications;
  const obs::SourceGuard probeGauge(
      ctx.hub, [&liveClassifications](obs::Registry& reg) {
        setLiveClassificationsGauge(reg, liveClassifications);
      });
  const obs::SourceGuard poolGauges(
      pool.pool != nullptr ? ctx.hub : nullptr,
      [p = pool.pool](obs::Registry& reg) { p->liveGauges(reg); });

  std::vector<validate::Comparison> jsonRows;
  std::size_t misses = 0;

  // Validation needs the cross-check rows, so the scheme solves pin the
  // empirical kernel unless the user forces another backend — in which
  // case the backend must still produce an empirical comparison.
  namespace rb = radius::backend;
  const auto validateScheme = [&](const radius::FepiaProblem& prob,
                                  radius::MergeScheme scheme) {
    rb::RadiusProblem rp;
    rp.problem = &prob;
    rp.scheme = scheme;
    rb::RadiusRequest req;
    req.backendOverride = backendArg.empty() ? "empirical" : backendArg;
    req.estimator = opts;
    req.metrics = ctx.registry;
    const rb::RadiusOutcome outcome = rb::solveRadius(rp, req, pool.pool);
    if (outcome.validation == nullptr) {
      throw std::runtime_error("radius backend '" + outcome.backendName +
                               "' does not produce an empirical comparison"
                               " (validate needs the empirical backend)");
    }
    return outcome.validation;
  };

  if (hiperd) {
    const std::shared_ptr<const hiperd::ReferenceSystem> refHandle =
        loadSystemHandle(ctx, path);
    const hiperd::ReferenceSystem& ref = *refHandle;
    const radius::FepiaProblem mixed =
        ref.system.executionMessageProblem(ref.qos);
    const std::shared_ptr<const validate::SchemeValidation> v =
        validateScheme(mixed, radius::MergeScheme::NormalizedByOriginal);
    misses +=
        emitValidation(out, "scheme: normalized", v->allRows(), csv, jsonRows);

    if (des) {
      // Classify the joint region by simulation: the shared degraded-mode
      // machinery with no fault scenarios is exactly the DES cross-check
      // (map each normalized P-space probe back to an (execution times ⋆
      // message sizes) operating point, run the queueing model against
      // the QoS) — `fault-sim --no-faults` reproduces this bit-for-bit.
      rb::RadiusProblem rp;
      rp.system = &ref;
      rp.desClassification = true;
      rb::RadiusRequest req;
      req.backendOverride = backendArg;  // empty: scheduler picks degraded
      req.estimator = opts;
      req.degraded.explicitDirections = samples.has_value();
      req.metrics = ctx.registry;
      const rb::RadiusOutcome outcome = rb::solveRadius(rp, req, pool.pool);
      if (outcome.degraded == nullptr) {
        throw std::runtime_error("radius backend '" + outcome.backendName +
                                 "' does not produce a DES estimate");
      }
      const fault::DegradedEstimate& d = *outcome.degraded;
      // The DES adds queueing on top of the analytic stage-time model,
      // so its region is a subset and the estimate legitimately comes in
      // below rho: report the row but keep it out of the verdict.
      emitValidation(
          out,
          "DES joint region (informational; queueing shrinks the region)",
          {validate::compare("simulated vs analytic rho", d.analyticRho,
                             d.degraded)},
          csv, jsonRows);
    }
  } else {
    const std::shared_ptr<const radius::FepiaProblem> handle =
        loadProblemHandle(ctx, path);
    const radius::FepiaProblem& problem = *handle;
    if (schemeArg == "both" || schemeArg == "normalized") {
      const std::shared_ptr<const validate::SchemeValidation> v =
          validateScheme(problem, radius::MergeScheme::NormalizedByOriginal);
      misses += emitValidation(out, "scheme: normalized", v->allRows(), csv,
                               jsonRows);
    }
    if (schemeArg == "both" || schemeArg == "sensitivity") {
      const std::shared_ptr<const validate::SchemeValidation> v =
          validateScheme(problem, radius::MergeScheme::Sensitivity);
      misses += emitValidation(out, "scheme: sensitivity", v->allRows(), csv,
                               jsonRows);
    }
  }

  if (pool.pool != nullptr) pool.pool->exportMetrics(*ctx.registry);

  QueryResult result;
  if (!jsonPath.empty() || ctx.captureJson) {
    ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
    std::ostringstream doc;
    validate::writeComparisonJson(doc, jsonRows, ctx.manifest);
    finishJson(result, jsonPath, doc.str());
  }

  if (misses == 0) {
    out << "VALIDATED: every analytic radius lies in its empirical CI\n";
  } else {
    out << "DISAGREEMENT: " << misses << " row(s) outside the empirical CI\n";
  }
  result.exitCode = misses == 0 ? 0 : 2;
  return result;
}

QueryResult runFaultSimQuery(const std::vector<std::string>& args,
                             std::ostream& out, QueryContext& ctx) {
  std::string path;
  std::optional<std::size_t> samples;
  std::optional<std::size_t> threads;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::size_t scenarios = 1;
  std::size_t generations = 200;
  bool noFaults = false;
  bool csv = false;
  std::string jsonPath;
  std::string backendArg;

  fault::FaultPlan explicitPlan;
  bool haveExplicit = false;
  std::optional<double> detect;
  std::optional<std::size_t> retries;

  const std::size_t n = args.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (args[i] == "--hiperd" && i + 1 < n) {
      path = args[++i];
    } else if (args[i] == "--samples" && i + 1 < n) {
      samples = argSize("--samples", args[++i]);
    } else if (args[i] == "--seed" && i + 1 < n) {
      seed = argUint("--seed", args[++i]);
    } else if (args[i] == "--threads" && i + 1 < n) {
      threads = argSize("--threads", args[++i]);
    } else if (args[i] == "--scenarios" && i + 1 < n) {
      scenarios = argSize("--scenarios", args[++i]);
    } else if (args[i] == "--gens" && i + 1 < n) {
      generations = argSize("--gens", args[++i]);
    } else if (args[i] == "--crash" && i + 1 < n) {
      const std::string& spec = args[++i];
      const auto parts = splitColons(spec);
      if (parts.size() != 2 && parts.size() != 3) {
        badSpec("--crash", spec, "MACHINE:TIME[:BACKUP]");
      }
      fault::MachineCrash c;
      c.machine = argSize("--crash", parts[0]);
      c.atSeconds = argDouble("--crash", parts[1]);
      if (parts.size() == 3) c.backup = argSize("--crash", parts[2]);
      explicitPlan.crashes.push_back(c);
      haveExplicit = true;
    } else if (args[i] == "--slow" && i + 1 < n) {
      const std::string& spec = args[++i];
      const auto parts = splitColons(spec);
      if (parts.size() != 5 || (parts[0] != "machine" && parts[0] != "link")) {
        badSpec("--slow", spec, "machine|link:INDEX:FROM:TO:FACTOR");
      }
      fault::Slowdown s;
      s.target = parts[0] == "machine" ? fault::Slowdown::Target::Machine
                                       : fault::Slowdown::Target::Link;
      s.index = argSize("--slow", parts[1]);
      s.fromSeconds = argDouble("--slow", parts[2]);
      s.toSeconds = argDouble("--slow", parts[3]);
      s.factor = argDouble("--slow", parts[4]);
      explicitPlan.slowdowns.push_back(s);
      haveExplicit = true;
    } else if (args[i] == "--loss" && i + 1 < n) {
      const std::string& spec = args[++i];
      const auto parts = splitColons(spec);
      if (parts.size() != 2) badSpec("--loss", spec, "LINK:PROBABILITY");
      fault::MessageLoss ml;
      ml.link = argSize("--loss", parts[0]);
      ml.probability = argDouble("--loss", parts[1]);
      explicitPlan.losses.push_back(ml);
      haveExplicit = true;
    } else if (args[i] == "--detect" && i + 1 < n) {
      detect = argDouble("--detect", args[++i]);
    } else if (args[i] == "--retries" && i + 1 < n) {
      retries = argSize("--retries", args[++i]);
    } else if (args[i] == "--no-faults") {
      noFaults = true;
    } else if (args[i] == "--backend" && i + 1 < n) {
      backendArg = args[++i];
    } else if (args[i] == "--csv") {
      csv = true;
    } else if (args[i] == "--json" && i + 1 < n) {
      jsonPath = args[++i];
    } else {
      throw UsageError("unrecognized argument '" + args[i] + "'");
    }
  }

  ctx.manifest->tool = "fepia_cli fault-sim";
  ctx.manifest->seed = seed;
  ctx.manifest->threads = threads.value_or(0);

  const std::shared_ptr<const hiperd::ReferenceSystem> refHandle =
      path.empty() ? std::make_shared<const hiperd::ReferenceSystem>(
                         hiperd::makeReferenceSystem())
                   : loadSystemHandle(ctx, path);
  const hiperd::ReferenceSystem& ref = *refHandle;

  // Assemble the scenario list: explicit flags define one plan;
  // otherwise --scenarios plans are sampled from per-scenario seeds
  // derived from --seed. --no-faults runs the fault-free cross-check
  // (identical to `validate --des`).
  std::vector<fault::FaultPlan> plans;
  if (!noFaults) {
    if (haveExplicit) {
      plans.push_back(explicitPlan);
    } else {
      rng::SplitMix64 mixer(seed ^ 0xFA017ull);
      fault::SamplerOptions sopts;
      for (std::size_t s = 0; s < scenarios; ++s) {
        plans.push_back(fault::samplePlan(ref.system, sopts, mixer.next()));
      }
    }
    for (fault::FaultPlan& plan : plans) {
      if (detect.has_value()) plan.policy.detectionTimeoutSeconds = *detect;
      if (retries.has_value()) plan.policy.maxRetries = *retries;
      plan.validateAgainst(ref.system);
    }
  }

  const PoolHandle pool = makePool(ctx, threads);

  validate::EstimatorOptions est;
  est.seed = seed;
  if (samples.has_value()) est.directions = *samples;
  est.metrics = ctx.registry;
  fault::DegradedOptions dopts;
  dopts.generations = generations;
  dopts.explicitDirections = samples.has_value();

  // Live telemetry gauges: DES classification progress and the fault
  // retry/drop totals (the sampler derives rates from the series).
  std::atomic<std::uint64_t> liveClassifications{0};
  fault::LiveFaultStats liveFaults;
  est.liveClassifications = &liveClassifications;
  dopts.live = &liveFaults;
  const obs::SourceGuard faultGauges(
      ctx.hub, [&liveClassifications, &liveFaults](obs::Registry& reg) {
        setLiveClassificationsGauge(reg, liveClassifications);
        liveFaults.writeGauges(reg);
      });
  const obs::SourceGuard poolGauges(
      pool.pool != nullptr ? ctx.hub : nullptr,
      [p = pool.pool](obs::Registry& reg) { p->liveGauges(reg); });

  // Route through the backend registry: the degraded kernel forwards
  // these options verbatim to fault::estimateDegradedRadius, so the
  // results are bit-identical to the direct call; --backend surfaces an
  // incapability diagnostic for any kernel that cannot honor a
  // fault-scenario problem.
  namespace rb = radius::backend;
  rb::RadiusProblem rp;
  rp.system = &ref;
  rp.scenarios = plans;
  rp.desClassification = true;
  rb::RadiusRequest req;
  req.backendOverride = backendArg;
  req.estimator = est;
  req.degraded = dopts;
  req.metrics = ctx.registry;
  const rb::RadiusOutcome outcome = rb::solveRadius(rp, req, pool.pool);
  if (outcome.degraded == nullptr) {
    throw std::runtime_error("radius backend '" + outcome.backendName +
                             "' does not produce a degraded-mode estimate");
  }
  const fault::DegradedEstimate& d = *outcome.degraded;

  const hiperd::System& sys = ref.system;
  out << "HiPer-D system: " << sys.machineCount() << " machines, "
      << sys.linkCount() << " links, " << sys.applicationCount() << " apps, "
      << sys.messageCount() << " messages\n";
  std::size_t crashes = 0, slowdowns = 0, losses = 0;
  for (const fault::FaultPlan& p : plans) {
    crashes += p.crashes.size();
    slowdowns += p.slowdowns.size();
    losses += p.losses.size();
  }
  out << "fault scenarios: " << plans.size() << " (" << crashes
      << " crash(es), " << slowdowns << " slowdown(s), " << losses
      << " loss rate(s))\n\n";

  const des::FaultCounters& fc = d.nominal.faults;
  report::Table counters({"counter", "value"});
  counters.addRow({"failovers", std::to_string(fc.failovers)});
  counters.addRow({"lost messages", std::to_string(fc.lostMessages)});
  counters.addRow({"retries", std::to_string(fc.retries)});
  counters.addRow({"dropped messages", std::to_string(fc.droppedMessages)});
  counters.addRow({"unrecovered jobs", std::to_string(fc.unrecoveredJobs)});
  counters.addRow({"downtime (s)", report::num(fc.downtimeSeconds, 6)});
  counters.addRow({"backoff wait (s)", report::num(fc.backoffWaitSeconds, 6)});
  out << "nominal run (scenario 0 at the operating point): QoS "
      << (d.nominalSatisfies ? "satisfied" : "VIOLATED") << "\n";
  emitTable(out, counters, csv);

  report::Table radii({"quantity", "value"});
  radii.addRow({"backend", outcome.backendName});
  radii.addRow({"analytic rho (" + d.criticalFeature + ")",
                report::num(d.analyticRho, 8)});
  radii.addRow({"degraded empirical radius",
                d.degraded.finite() ? report::num(d.degraded.radius, 8)
                                    : "inf"});
  radii.addRow({"CI", "[" + report::num(d.degraded.ci.lo, 8) + ", " +
                          report::num(d.degraded.ci.hi, 8) + "]"});
  radii.addRow({"directions", std::to_string(d.degraded.directions)});
  radii.addRow({"boundary hits", std::to_string(d.degraded.boundaryHits)});
  radii.addRow({"classifications", std::to_string(d.degraded.classifications)});
  emitTable(out, radii, csv);

  if (pool.pool != nullptr) pool.pool->exportMetrics(*ctx.registry);

  QueryResult result;
  if (!jsonPath.empty() || ctx.captureJson) {
    ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
    std::ostringstream js;
    obs::JsonWriter w(js);
    w.object(obs::JsonLayout::Lines);
    ctx.manifest->writeJson(w.key("manifest").valueStream());
    w.object("config").count("seed", seed).count("threads", threads);
    w.count("scenarios", plans.size()).count("generations", generations);
    w.end().object("plan", obs::JsonLayout::Lines).array("crashes");
    const fault::FaultPlan none;
    const fault::FaultPlan& p0 = plans.empty() ? none : plans.front();
    for (const fault::MachineCrash& c : p0.crashes) {
      w.object().count("machine", c.machine).num("at_seconds", c.atSeconds);
      w.count("backup", c.backup).end();
    }
    w.end().array("slowdowns");
    for (const fault::Slowdown& sd : p0.slowdowns) {
      const bool machine = sd.target == fault::Slowdown::Target::Machine;
      w.object().str("target", machine ? "machine" : "link");
      w.count("index", sd.index).num("from_seconds", sd.fromSeconds);
      w.num("to_seconds", sd.toSeconds).num("factor", sd.factor).end();
    }
    w.end().array("losses");
    for (const fault::MessageLoss& loss : p0.losses) {
      w.object().count("link", loss.link);
      w.num("probability", loss.probability).end();
    }
    w.end().end().object("nominal").boolean("satisfies", d.nominalSatisfies);
    w.num("max_observed_latency", d.nominal.maxObservedLatency);
    w.boolean("throughput_sustained", d.nominal.throughputSustained);
    w.count("incomplete_observations", d.nominal.incompleteObservations);
    w.lineBreak().object("counters").count("failovers", fc.failovers);
    w.count("lost_messages", fc.lostMessages).count("retries", fc.retries);
    w.count("dropped_messages", fc.droppedMessages);
    w.count("unrecovered_jobs", fc.unrecoveredJobs);
    w.num("downtime_seconds", fc.downtimeSeconds);
    w.num("backoff_wait_seconds", fc.backoffWaitSeconds).end().end();
    const validate::EmpiricalEstimate& g = d.degraded;
    w.object("degraded").num("radius", g.radius).num("ci_lo", g.ci.lo);
    w.num("ci_hi", g.ci.hi).count("directions", g.directions);
    w.count("boundary_hits", g.boundaryHits);
    w.count("classifications", g.classifications).end();
    w.object("analytic").num("rho", d.analyticRho);
    w.str("critical_feature", d.criticalFeature).end().end();
    js << '\n';
    finishJson(result, jsonPath, js.str());
  }
  result.exitCode = d.nominalSatisfies ? 0 : 2;
  return result;
}

QueryResult runSweepQuery(const std::vector<std::string>& args,
                          std::ostream& out, QueryContext& ctx) {
  if (args.empty() || (!args[0].empty() && args[0][0] == '-')) {
    throw UsageError("sweep needs a spec file operand");
  }
  const std::string& specPath = args[0];
  std::optional<std::size_t> threads;
  sweep::SweepOptions opts;
  std::string responseAxis;
  bool csv = false;
  std::string jsonPath;
  std::optional<std::string> serveTarget;
  std::optional<std::string> workerTarget;
  std::optional<double> leaseMs;
  std::optional<double> drainTimeout;
  std::string workerName;

  const std::size_t n = args.size();
  for (std::size_t i = 1; i < n; ++i) {
    if (args[i] == "--threads" && i + 1 < n) {
      threads = argSize("--threads", args[++i]);
    } else if (args[i] == "--chunk" && i + 1 < n) {
      opts.chunkOverride = argSize("--chunk", args[++i]);
      if (opts.chunkOverride == 0) {
        throw std::invalid_argument("bad value for --chunk: '0' (expected a "
                                    "positive integer)");
      }
    } else if (args[i] == "--journal" && i + 1 < n) {
      opts.journalPath = args[++i];
    } else if (args[i] == "--resume") {
      opts.resume = true;
    } else if (args[i] == "--stop-after" && i + 1 < n) {
      opts.stopAfterShards = argSize("--stop-after", args[++i]);
      if (opts.stopAfterShards == 0) {
        throw std::invalid_argument("bad value for --stop-after: '0' "
                                    "(expected a positive integer)");
      }
    } else if (args[i] == "--no-cache") {
      opts.cacheEnabled = false;
    } else if (args[i] == "--backend" && i + 1 < n) {
      opts.backendOverride = args[++i];
    } else if (args[i] == "--response" && i + 1 < n) {
      responseAxis = args[++i];
    } else if (args[i] == "--progress") {
      opts.progress = true;
    } else if (args[i] == "--csv") {
      csv = true;
    } else if (args[i] == "--json" && i + 1 < n) {
      jsonPath = args[++i];
    } else if (args[i] == "--cache-dir" && i + 1 < n) {
      opts.cacheDir = args[++i];
    } else if (args[i] == "--serve" && i + 1 < n) {
      serveTarget = args[++i];
    } else if (args[i] == "--worker" && i + 1 < n) {
      workerTarget = args[++i];
    } else if (args[i] == "--lease-ms" && i + 1 < n) {
      leaseMs = argDouble("--lease-ms", args[++i]);
      if (*leaseMs <= 0.0) {
        throw std::invalid_argument("bad value for --lease-ms: '" + args[i] +
                                    "' (expected a positive duration)");
      }
    } else if (args[i] == "--drain-timeout" && i + 1 < n) {
      drainTimeout = argDouble("--drain-timeout", args[++i]);
    } else if (args[i] == "--worker-name" && i + 1 < n) {
      workerName = args[++i];
    } else {
      throw UsageError("unrecognized argument '" + args[i] + "'");
    }
  }

  if (serveTarget.has_value() && workerTarget.has_value()) {
    throw UsageError("--serve and --worker are mutually exclusive");
  }
  if (serveTarget.has_value()) {
    // The coordinator never computes: compute-side knobs belong on the
    // workers, and refusing them beats silently ignoring them.
    if (threads.has_value()) throw UsageError("--serve ignores --threads");
    if (opts.stopAfterShards != 0) {
      throw UsageError("--stop-after is not supported with --serve");
    }
    if (!opts.cacheEnabled) {
      throw UsageError("--no-cache belongs on the workers, not --serve");
    }
    if (!opts.backendOverride.empty()) {
      throw UsageError("--backend belongs on the workers, not --serve");
    }
    if (!opts.cacheDir.empty()) {
      throw UsageError("--cache-dir belongs on the workers, not --serve");
    }
    if (opts.progress) {
      throw UsageError("--progress is not supported with --serve");
    }
    if (!workerName.empty()) throw UsageError("--worker-name needs --worker");
  } else if (workerTarget.has_value()) {
    // A worker computes what it is told and prints a report; it owns no
    // journal, no surface and no output tables.
    if (threads.has_value()) throw UsageError("--worker ignores --threads");
    if (opts.chunkOverride != 0) {
      throw UsageError("--chunk is the coordinator's call, not --worker's");
    }
    if (!opts.journalPath.empty() || opts.resume) {
      throw UsageError("--journal/--resume live on the coordinator");
    }
    if (opts.stopAfterShards != 0) {
      throw UsageError("--stop-after is not supported with --worker");
    }
    if (!responseAxis.empty() || csv || !jsonPath.empty()) {
      throw UsageError("--worker produces no surface output");
    }
    if (opts.progress) {
      throw UsageError("--progress is not supported with --worker");
    }
    if (leaseMs.has_value() || drainTimeout.has_value()) {
      throw UsageError("--lease-ms/--drain-timeout live on the coordinator");
    }
  } else if (leaseMs.has_value() || drainTimeout.has_value() ||
             !workerName.empty()) {
    throw UsageError(
        "--lease-ms/--drain-timeout/--worker-name need --serve or --worker");
  }

  const sweep::SweepSpec spec = sweep::loadSweepSpec(specPath);
  ctx.manifest->tool = "fepia_cli sweep";
  ctx.manifest->seed = spec.seed;
  ctx.manifest->threads = threads.value_or(0);

  QueryResult result;

  // Shared output tail: tables, summary, JSON document. Distributed and
  // in-process runs both funnel through this, so --serve's JSON is the
  // same writer on the same surface struct — byte-identity of the
  // distributed surface reduces to byte-identity of the struct.
  const auto emitSurface = [&](const sweep::SweepSurface& surface) {
    if (!surface.complete) {
      out << "sweep checkpointed after " << surface.computedShards
          << " shard(s): rerun with --resume to continue\n";
    } else {
      emitTable(out, sweep::surfaceTable(spec, surface), csv);
      if (!responseAxis.empty()) {
        emitTable(out, sweep::axisResponseTable(spec, surface, responseAxis),
                  csv);
      }
      const sweep::SurfaceSummary summary = sweep::summarize(surface);
      out << "analytic rho over " << summary.finitePoints
          << " finite point(s): [" << report::num(summary.rhoMin, 9) << ", "
          << report::num(summary.rhoMax, 9) << "]\n";
      if (spec.workload == sweep::Workload::Linear) {
        out << "worst |analytic - closed form| deviation: "
            << report::num(summary.worstClosedFormDeviation, 6) << "\n";
      }
    }
    if (!jsonPath.empty() || ctx.captureJson) {
      ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
      std::ostringstream doc;
      sweep::writeSurfaceJson(doc, spec, surface, ctx.manifest);
      finishJson(result, jsonPath, doc.str());
      if (!jsonPath.empty()) out << "wrote " << jsonPath << "\n";
    }
  };

  if (workerTarget.has_value()) {
    const auto [host, port] = parseHostPort("--worker", *workerTarget);
    if (port == 0) badSpec("--worker", *workerTarget, "HOST:PORT");
    SweepWorkerConfig wc;
    wc.host = host;
    wc.port = port;
    wc.name = workerName;
    wc.cacheDir = opts.cacheDir;
    wc.backendOverride = opts.backendOverride;
    wc.cacheEnabled = opts.cacheEnabled;
    wc.metrics = ctx.registry;
    wc.telemetry = ctx.hub;
    wc.log = &out;
    const SweepWorkerReport rep = runSweepWorker(spec, wc);
    out << "sweep worker drained: " << rep.shardsComputed << " shard(s), "
        << rep.pointsComputed << " point(s), " << rep.duplicateCommits
        << " duplicate commit(s) in " << report::num(rep.wallSeconds, 4)
        << " s\n";
    if (!opts.cacheDir.empty() && opts.cacheEnabled) {
      out << "persistent cache: " << rep.persistentHits << " hit(s), "
          << rep.persistentMisses << " miss(es)\n";
    }
    return result;
  }

  if (serveTarget.has_value()) {
    const auto [host, port] = parseHostPort("--serve", *serveTarget);
    DistSweepConfig dc;
    dc.bindAddress = host;
    dc.port = port;
    dc.chunkOverride = opts.chunkOverride;
    if (leaseMs.has_value()) dc.leaseSeconds = *leaseMs / 1000.0;
    dc.journalPath = opts.journalPath;
    dc.resume = opts.resume;
    if (drainTimeout.has_value()) dc.drainTimeoutSeconds = *drainTimeout;
    dc.metrics = ctx.registry;
    dc.telemetry = ctx.hub;
    dc.log = &out;
    SweepCoordinator coordinator(spec, dc);
    std::string error;
    if (!coordinator.start(&error)) {
      throw std::runtime_error("sweep --serve: " + error);
    }
    // ci.sh scrapes this banner for the bound (possibly ephemeral) port.
    out << "fepia-sweep-coordinator listening on " << host << ":"
        << coordinator.port() << "\n";
    out.flush();
    const sweep::SweepSurface surface = coordinator.wait();
    const SweepCoordinator::Stats st = coordinator.stats();

    out << "sweep '" << spec.name << "' ("
        << sweep::workloadName(spec.workload) << "): " << surface.points
        << " points, " << surface.shards << " shards of " << surface.chunk
        << "\n"
        << "resumed " << surface.resumedShards << " shard(s), committed "
        << st.commits << " shard(s) from " << st.workersSeen
        << " worker(s) in " << report::num(surface.wallSeconds, 4) << " s ("
        << report::num(surface.pointsPerSec, 4) << " points/s)\n"
        << "leases: " << st.reissues << " reissue(s), " << st.steals
        << " steal(s), " << st.duplicateCommits << " duplicate commit(s); "
        << surface.classifications << " classification(s)\n\n";
    emitSurface(surface);
    return result;
  }

  opts.metrics = ctx.registry;
  opts.telemetry = ctx.hub;
  // The resident server's warm cache: content-keyed, so sharing it
  // across requests changes throughput only, never a surface byte.
  if (ctx.cache != nullptr) opts.sharedCache = &ctx.cache->sweepCache();

  const PoolHandle pool = makePool(ctx, threads);
  const obs::SourceGuard poolGauges(
      pool.pool != nullptr ? ctx.hub : nullptr,
      [p = pool.pool](obs::Registry& reg) { p->liveGauges(reg); });

  const sweep::SweepSurface surface = sweep::runSweep(spec, opts, pool.pool);
  if (pool.pool != nullptr) pool.pool->exportMetrics(*ctx.registry);

  out << "sweep '" << spec.name << "' ("
      << sweep::workloadName(spec.workload) << "): " << surface.points
      << " points, " << surface.shards << " shards of " << surface.chunk
      << "\n"
      << "resumed " << surface.resumedShards << " shard(s), computed "
      << surface.computedShards << " shard(s) in "
      << report::num(surface.wallSeconds, 4) << " s ("
      << report::num(surface.pointsPerSec, 4) << " points/s)\n"
      << "cache: " << (surface.cacheEnabled ? "on" : "off") << ", "
      << surface.cacheHits << " hit(s), " << surface.cacheMisses
      << " miss(es); " << surface.classifications << " classification(s)";
  if (!opts.cacheDir.empty() && opts.cacheEnabled) {
    out << "\npersistent cache: " << surface.persistentHits << " hit(s), "
        << surface.persistentMisses << " miss(es)";
  }
  out << "\n\n";
  emitSurface(surface);
  return result;
}

}  // namespace fepia::server

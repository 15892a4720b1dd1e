// The four query runners the CLI and fepiad share, so a behavior change
// reaches both front ends by construction: make it here. A failure the
// CLI prints as "error: ..." is an exception carrying that text.
#include "server/query.hpp"

#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
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

/// "HOST:PORT" for --serve/--worker. Port 0 is allowed (--serve binds
/// an ephemeral port and prints it); an empty host means loopback.
std::pair<std::string, std::uint16_t> parseHostPort(const char* flag,
                                                    const std::string& value) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon + 1 == value.size()) {
    badFlagValue(flag, value, "HOST:PORT");
  }
  const std::string host =
      colon == 0 ? std::string("127.0.0.1") : value.substr(0, colon);
  const std::uint64_t port = argUint(flag, value.substr(colon + 1));
  if (port > 65535) badFlagValue(flag, value, "a port in [0, 65535]");
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

/// Splits a structured flag value on `sep` ("3:12.5:1" -> {"3","12.5","1"}).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

// Every query reads its tokens through a table of flags whose setters
// write the query's options struct, declared above the table.
struct RadiusArgs {
  std::string scheme = "both";
  std::vector<la::Vector> check;
  std::string backend;
  bool csv = false;
  bool echo = false;
};

using RA = RadiusArgs;
constexpr Flag kRadiusFlags[] = {
    field<&RA::scheme>("--scheme", "normalized|sensitivity|both").asChoice(),
    Flag{"--check", FlagKind::Text, "V1,V2,...",
         [](void* opts, const FlagValue& v) {
           la::Vector values;
           for (const std::string& item : split(std::string(v.text), ',')) {
             const std::optional<double> x = io::parseFiniteDouble(item);
             if (!x) badFlagValue("--check", v.text, "finite numbers");
             values.push_back(*x);
           }
           static_cast<RA*>(opts)->check.push_back(std::move(values));
         }}
        .repeated(),
    field<&RA::backend>("--backend", "NAME"),
    field<&RA::csv>("--csv"),
    field<&RA::echo>("--echo"),
};

struct ValidateArgs {
  std::string hiperd;
  bool des = false;
  std::string scheme = "both";
  std::optional<std::size_t> samples;
  std::uint64_t seed = validate::EstimatorOptions{}.seed;
  std::optional<std::size_t> threads;
  std::string backend;
  bool csv = false;
  std::string jsonPath;
};

using VA = ValidateArgs;
constexpr Flag kValidateFlags[] = {
    field<&VA::hiperd>("--hiperd", "FILE"),
    field<&VA::des>("--des"),
    field<&VA::scheme>("--scheme", "normalized|sensitivity|both").asChoice(),
    field<&VA::samples>("--samples", "N"),
    field<&VA::seed>("--seed", "S"),
    field<&VA::threads>("--threads", "T").atMost(kMaxThreads),
    field<&VA::backend>("--backend", "NAME"),
    field<&VA::csv>("--csv"),
    field<&VA::jsonPath>("--json", "FILE").onlyFromCli(),
};

struct FaultSimArgs {
  std::string hiperd;
  std::optional<std::size_t> samples;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::optional<std::size_t> threads;
  std::size_t scenarios = 1;
  std::size_t generations = 200;
  fault::FaultPlan plan;  ///< the explicit plan of --crash/--slow/--loss
  bool explicitPlan = false;
  std::optional<double> detect;
  std::optional<std::size_t> retries;
  bool noFaults = false;
  std::string backend;
  bool csv = false;
  std::string jsonPath;
};

/// The ':'-separated fields of a --crash/--slow/--loss value, which the
/// row's setter adds to the explicit plan.
std::vector<std::string> planFields(void* opts, const FlagValue& v,
                                    std::size_t lo, std::size_t hi,
                                    const char* flag, const char* expected) {
  std::vector<std::string> parts = split(std::string(v.text), ':');
  if (parts.size() < lo || parts.size() > hi) {
    badFlagValue(flag, v.text, expected);
  }
  static_cast<FaultSimArgs*>(opts)->explicitPlan = true;
  return parts;
}

using FA = FaultSimArgs;
constexpr Flag kFaultSimFlags[] = {
    field<&FA::hiperd>("--hiperd", "FILE"),
    field<&FA::samples>("--samples", "N"),
    field<&FA::seed>("--seed", "S"),
    field<&FA::threads>("--threads", "T").atMost(kMaxThreads),
    field<&FA::scenarios>("--scenarios", "N"),
    field<&FA::generations>("--gens", "N"),
    Flag{"--crash", FlagKind::Text, "M:T[:BACKUP]",
         [](void* opts, const FlagValue& v) {
           const auto f =
               planFields(opts, v, 2, 3, "--crash", "MACHINE:TIME[:BACKUP]");
           fault::MachineCrash c;
           c.machine = argUint("--crash", f[0]);
           c.atSeconds = argDouble("--crash", f[1]);
           if (f.size() == 3) c.backup = argUint("--crash", f[2]);
           static_cast<FA*>(opts)->plan.crashes.push_back(c);
         }}
        .repeated(),
    Flag{"--slow", FlagKind::Text, "machine|link:IDX:FROM:TO:F",
         [](void* opts, const FlagValue& v) {
           const char* const expected = "machine|link:INDEX:FROM:TO:FACTOR";
           const auto f = planFields(opts, v, 5, 5, "--slow", expected);
           if (f[0] != "machine" && f[0] != "link") {
             badFlagValue("--slow", v.text, expected);
           }
           fault::Slowdown s;
           s.target = f[0] == "machine" ? fault::Slowdown::Target::Machine
                                        : fault::Slowdown::Target::Link;
           s.index = argUint("--slow", f[1]);
           s.fromSeconds = argDouble("--slow", f[2]);
           s.toSeconds = argDouble("--slow", f[3]);
           s.factor = argDouble("--slow", f[4]);
           static_cast<FA*>(opts)->plan.slowdowns.push_back(s);
         }}
        .repeated(),
    Flag{"--loss", FlagKind::Text, "LINK:P",
         [](void* opts, const FlagValue& v) {
           const auto f =
               planFields(opts, v, 2, 2, "--loss", "LINK:PROBABILITY");
           fault::MessageLoss ml;
           ml.link = argUint("--loss", f[0]);
           ml.probability = argDouble("--loss", f[1]);
           static_cast<FA*>(opts)->plan.losses.push_back(ml);
         }}
        .repeated(),
    field<&FA::detect>("--detect", "SEC"),
    field<&FA::retries>("--retries", "N"),
    field<&FA::noFaults>("--no-faults"),
    field<&FA::backend>("--backend", "NAME"),
    field<&FA::csv>("--csv"),
    field<&FA::jsonPath>("--json", "FILE").onlyFromCli(),
};

struct SweepArgs {
  sweep::SweepOptions sweep;
  std::optional<std::size_t> threads;
  std::string response;
  bool csv = false;
  std::string jsonPath;
  std::optional<std::string> serve;
  std::optional<double> leaseMs;
  std::optional<double> drainTimeout;
  std::optional<std::string> worker;
  std::string workerName;
};

// The sweep roles: a plain run computes and reports; the --serve
// coordinator never computes, so compute-side flags belong on the
// workers; a --worker computes what it is told and owns no journal,
// surface or output tables.
using SA = SweepArgs;
using SO = sweep::SweepOptions;
constexpr unsigned kLocalServe = kLocal | kServe;
constexpr unsigned kLocalWorker = kLocal | kWorker;
constexpr Flag kSweepFlags[] = {
    field<&SA::threads>("--threads", "T").atMost(kMaxThreads),
    field<&SA::sweep, &SO::chunkOverride>("--chunk", "N")
        .in(kLocalServe)
        .atLeast(1),
    field<&SA::sweep, &SO::journalPath>("--journal", "FILE")
        .in(kLocalServe)
        .onlyFromCli(),
    field<&SA::sweep, &SO::resume>("--resume").in(kLocalServe),
    field<&SA::sweep, &SO::stopAfterShards>("--stop-after", "N").atLeast(1),
    Flag{"--no-cache", FlagKind::Switch, "",
         [](void* o, const FlagValue&) {
           static_cast<SA*>(o)->sweep.cacheEnabled = false;
         }}
        .in(kLocalWorker),
    field<&SA::sweep, &SO::cacheDir>("--cache-dir", "DIR")
        .in(kLocalWorker)
        .onlyFromCli(),
    field<&SA::response>("--response", "AXIS").in(kLocalServe),
    field<&SA::sweep, &SO::progress>("--progress").onlyFromCli(),
    field<&SA::sweep, &SO::backendOverride>("--backend", "NAME")
        .in(kLocalWorker),
    field<&SA::csv>("--csv").in(kLocalServe),
    field<&SA::jsonPath>("--json", "FILE").in(kLocalServe).onlyFromCli(),
    field<&SA::serve>("--serve", "HOST:PORT").selecting(kServe).onlyFromCli(),
    field<&SA::leaseMs>("--lease-ms", "MS").in(kServe).positiveOnly(),
    field<&SA::drainTimeout>("--drain-timeout", "SEC").in(kServe),
    field<&SA::worker>("--worker", "HOST:PORT")
        .selecting(kWorker)
        .onlyFromCli(),
    field<&SA::workerName>("--worker-name", "NAME").in(kWorker),
};

/// Parses a query's flag tokens into `opts`; a fepiad client's may not
/// hold the CLI-only flags.
std::vector<std::string> parseQueryArgs(std::span<const Flag> table,
                                        std::span<const std::string> args,
                                        void* opts, const QueryContext& ctx,
                                        std::size_t operands = 0) {
  ParseMode mode;
  mode.remote = ctx.remote;
  mode.operands = operands;
  return parseFlags(table, args, opts, mode);
}

}  // namespace

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
  RadiusArgs a;
  parseQueryArgs(kRadiusFlags, std::span(args).subspan(1), &a, ctx);

  const std::shared_ptr<const radius::FepiaProblem> handle =
      loadProblemHandle(ctx, path);
  const radius::FepiaProblem& problem = *handle;

  if (a.echo) {
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
  emitTable(out, kinds, a.csv);

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
  emitTable(out, perKind, a.csv);

  if (a.scheme == "both" || a.scheme == "normalized") {
    printMerged(out, problem, radius::MergeScheme::NormalizedByOriginal, a.csv,
                ctx.registry, a.backend);
  }
  if (a.scheme == "both" || a.scheme == "sensitivity") {
    printMerged(out, problem, radius::MergeScheme::Sensitivity, a.csv,
                ctx.registry, a.backend);
  }

  QueryResult result;
  if (!a.check.empty()) {
    const radius::MergeScheme scheme =
        a.scheme == "sensitivity" ? radius::MergeScheme::Sensitivity
                                   : radius::MergeScheme::NormalizedByOriginal;
    const radius::ToleranceCheck check =
        problem.wouldTolerate(a.check, scheme);
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
  ValidateArgs a;
  const std::vector<std::string> operand =
      parseQueryArgs(kValidateFlags, args, &a, ctx, 1);
  const bool hiperd = !a.hiperd.empty();
  if (operand.empty() == !hiperd || (a.des && !hiperd)) {
    throw UsageError("validate needs a problem file or --hiperd SYSTEM");
  }
  const std::string& path = hiperd ? a.hiperd : operand[0];
  validate::EstimatorOptions opts;
  opts.seed = a.seed;
  if (a.samples.has_value()) opts.directions = *a.samples;
  opts.metrics = ctx.registry;
  ctx.manifest->tool = "fepia_cli validate";
  ctx.manifest->seed = opts.seed;
  ctx.manifest->threads = a.threads.value_or(0);

  // Load before the pool starts its threads: a bad path fails first.
  const auto refHandle = hiperd ? loadSystemHandle(ctx, path) : nullptr;
  const auto handle = hiperd ? nullptr : loadProblemHandle(ctx, path);
  const PoolHandle pool = makePool(ctx, a.threads);

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
    req.backendOverride = a.backend.empty() ? "empirical" : a.backend;
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
    const hiperd::ReferenceSystem& ref = *refHandle;
    const radius::FepiaProblem mixed =
        ref.system.executionMessageProblem(ref.qos);
    const std::shared_ptr<const validate::SchemeValidation> v =
        validateScheme(mixed, radius::MergeScheme::NormalizedByOriginal);
    misses +=
        emitValidation(out, "scheme: normalized", v->allRows(), a.csv,
                       jsonRows);

    if (a.des) {
      // Classify the joint region by simulation: the shared degraded-mode
      // machinery with no fault scenarios is exactly the DES cross-check
      // (map each normalized P-space probe back to an (execution times ⋆
      // message sizes) operating point, run the queueing model against
      // the QoS) — `fault-sim --no-faults` reproduces this bit-for-bit.
      rb::RadiusProblem rp;
      rp.system = &ref;
      rp.desClassification = true;
      rb::RadiusRequest req;
      req.backendOverride = a.backend;  // empty: scheduler picks degraded
      req.estimator = opts;
      req.degraded.explicitDirections = a.samples.has_value();
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
          a.csv, jsonRows);
    }
  } else {
    const radius::FepiaProblem& problem = *handle;
    if (a.scheme == "both" || a.scheme == "normalized") {
      const std::shared_ptr<const validate::SchemeValidation> v =
          validateScheme(problem, radius::MergeScheme::NormalizedByOriginal);
      misses += emitValidation(out, "scheme: normalized", v->allRows(), a.csv,
                               jsonRows);
    }
    if (a.scheme == "both" || a.scheme == "sensitivity") {
      const std::shared_ptr<const validate::SchemeValidation> v =
          validateScheme(problem, radius::MergeScheme::Sensitivity);
      misses += emitValidation(out, "scheme: sensitivity", v->allRows(), a.csv,
                               jsonRows);
    }
  }

  if (pool.pool != nullptr) pool.pool->exportMetrics(*ctx.registry);

  QueryResult result;
  if (!a.jsonPath.empty() || ctx.captureJson) {
    ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
    std::ostringstream doc;
    validate::writeComparisonJson(doc, jsonRows, ctx.manifest);
    finishJson(result, a.jsonPath, doc.str());
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
  FaultSimArgs a;
  parseQueryArgs(kFaultSimFlags, args, &a, ctx);

  ctx.manifest->tool = "fepia_cli fault-sim";
  ctx.manifest->seed = a.seed;
  ctx.manifest->threads = a.threads.value_or(0);

  const std::shared_ptr<const hiperd::ReferenceSystem> refHandle =
      a.hiperd.empty() ? std::make_shared<const hiperd::ReferenceSystem>(
                             hiperd::makeReferenceSystem())
                       : loadSystemHandle(ctx, a.hiperd);
  const hiperd::ReferenceSystem& ref = *refHandle;

  // Assemble the scenario list: explicit flags define one plan;
  // otherwise --scenarios plans are sampled from per-scenario seeds
  // derived from --seed. --no-faults runs the fault-free cross-check
  // (identical to `validate --des`).
  std::vector<fault::FaultPlan> plans;
  if (!a.noFaults) {
    if (a.explicitPlan) {
      plans.push_back(a.plan);
    } else {
      rng::SplitMix64 mixer(a.seed ^ 0xFA017ull);
      fault::SamplerOptions sopts;
      for (std::size_t s = 0; s < a.scenarios; ++s) {
        plans.push_back(fault::samplePlan(ref.system, sopts, mixer.next()));
      }
    }
    for (fault::FaultPlan& plan : plans) {
      if (a.detect.has_value()) plan.policy.detectionTimeoutSeconds = *a.detect;
      if (a.retries.has_value()) plan.policy.maxRetries = *a.retries;
      plan.validateAgainst(ref.system);
    }
  }

  const PoolHandle pool = makePool(ctx, a.threads);

  validate::EstimatorOptions est;
  est.seed = a.seed;
  if (a.samples.has_value()) est.directions = *a.samples;
  est.metrics = ctx.registry;
  fault::DegradedOptions dopts;
  dopts.generations = a.generations;
  dopts.explicitDirections = a.samples.has_value();

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
  req.backendOverride = a.backend;
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
  emitTable(out, counters, a.csv);

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
  emitTable(out, radii, a.csv);

  if (pool.pool != nullptr) pool.pool->exportMetrics(*ctx.registry);

  QueryResult result;
  if (!a.jsonPath.empty() || ctx.captureJson) {
    ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
    std::ostringstream js;
    obs::JsonWriter w(js);
    w.object(obs::JsonLayout::Lines);
    ctx.manifest->writeJson(w.key("manifest").valueStream());
    w.object("config").count("seed", a.seed).count("threads", a.threads);
    w.count("scenarios", plans.size()).count("generations", a.generations);
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
    finishJson(result, a.jsonPath, js.str());
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
  SweepArgs a;
  parseQueryArgs(kSweepFlags, std::span(args).subspan(1), &a, ctx);
  sweep::SweepOptions& opts = a.sweep;

  const sweep::SweepSpec spec = sweep::loadSweepSpec(specPath);
  ctx.manifest->tool = "fepia_cli sweep";
  ctx.manifest->seed = spec.seed;
  ctx.manifest->threads = a.threads.value_or(0);

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
      emitTable(out, sweep::surfaceTable(spec, surface), a.csv);
      if (!a.response.empty()) {
        emitTable(out, sweep::axisResponseTable(spec, surface, a.response),
                  a.csv);
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
    if (!a.jsonPath.empty() || ctx.captureJson) {
      ctx.manifest->wallSeconds = ctx.wall->elapsedSeconds();
      std::ostringstream doc;
      sweep::writeSurfaceJson(doc, spec, surface, ctx.manifest);
      finishJson(result, a.jsonPath, doc.str());
      if (!a.jsonPath.empty()) out << "wrote " << a.jsonPath << "\n";
    }
  };

  if (a.worker.has_value()) {
    const auto [host, port] = parseHostPort("--worker", *a.worker);
    if (port == 0) badFlagValue("--worker", *a.worker, "HOST:PORT");
    SweepWorkerConfig wc;
    wc.host = host;
    wc.port = port;
    wc.name = a.workerName;
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

  if (a.serve.has_value()) {
    const auto [host, port] = parseHostPort("--serve", *a.serve);
    DistSweepConfig dc;
    dc.bindAddress = host;
    dc.port = port;
    dc.chunkOverride = opts.chunkOverride;
    if (a.leaseMs.has_value()) dc.leaseSeconds = *a.leaseMs / 1000.0;
    dc.journalPath = opts.journalPath;
    dc.resume = opts.resume;
    if (a.drainTimeout.has_value()) dc.drainTimeoutSeconds = *a.drainTimeout;
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

  const PoolHandle pool = makePool(ctx, a.threads);
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

namespace {
constexpr Query kQueries[] = {
    {"radius", kRadiusFlags, runRadiusQuery},
    {"validate", kValidateFlags, runValidateQuery},
    {"fault-sim", kFaultSimFlags, runFaultSimQuery},
    {"sweep", kSweepFlags, runSweepQuery},
};
}  // namespace

const Query* findQuery(std::string_view kind) {
  for (const Query& q : kQueries) {
    if (q.kind == kind) return &q;
  }
  return nullptr;
}

}  // namespace fepia::server

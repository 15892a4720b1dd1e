// fepia_cli — run a FePIA robustness analysis from a problem file.
//
// Usage:
//   fepia_cli <problem-file> [options]
//   fepia_cli --hiperd <system-file> [--csv]
//   fepia_cli validate <problem-file> [options]
//   fepia_cli validate --hiperd <system-file> [--des] [options]
//   fepia_cli search [options]
//   fepia_cli fault-sim [options]
//   fepia_cli sweep <spec-file> [options]
//   fepia_cli serve [options]
//
// serve mode starts fepiad, the resident robustness query server: a
// loopback TCP endpoint speaking length-prefixed JSON frames that
// answers radius/validate/fault-sim/sweep requests byte-identically to
// the one-shot CLI while keeping parsed inputs, sweep sub-computations
// and the thread pool warm across requests (see docs/server.md).
// SIGHUP (or editing --config FILE) hot-reloads the runtime knobs
// without dropping connections; SIGINT/SIGTERM drain and exit.
//
// Options (problem-file mode):
//   --scheme normalized|sensitivity|both   merge scheme(s) (default both)
//   --check v1,v2,...                      operating-point test: one
//                                          comma-separated value list per
//                                          kind, repeated per kind in order
//   --csv                                  emit tables as CSV
//   --echo                                 re-serialize the parsed problem
//   --backend NAME                         force one radius backend
//                                          (analytic|numeric|empirical|
//                                          degraded — see docs/backends.md);
//                                          also accepted by validate,
//                                          fault-sim and sweep
//
// --hiperd mode loads a HiPer-D topology (see src/io/system_io.hpp and
// examples/data/fusion_pipeline.hiperd) and runs the load-space analysis
// plus the merged multi-kind (execution times ⋆ message sizes) analysis.
//
// search mode designs a robust allocation for a synthetic CVB workload
// with the engine-driven searches of src/alloc (see docs/search.md):
// heuristics ranked by rho, steepest-ascent local search, and a GA, all
// evaluated through alloc::EvalEngine. Results are bit-identical for a
// fixed --seed at any --threads value.
//   --tasks N / --machines M               workload size (default 128 x 8)
//   --het hi-hi|hi-lo|lo-hi|lo-lo          CVB heterogeneity (default hi-hi)
//   --tau-factor F                         tau = F x makespan(mct seed)
//   --seed S / --threads T / --csv / --json FILE as in validate mode
//   --generations N / --population N       GA effort
//   --max-moves N                          local-search move budget
//
// validate mode cross-checks the analytic radii against the Monte-Carlo
// estimator of src/validate (see docs/validation.md):
//   --scheme normalized|sensitivity|both   scheme(s) to validate
//   --samples N                            probe directions (default 4096;
//                                          64 with --des)
//   --seed S                               RNG seed (default 0x5EEDD1CE)
//   --threads T                            thread-pool size (0 = hardware;
//                                          omitted = serial). The result
//                                          is bit-identical either way.
//   --json FILE                            also write the report as JSON
//   --des                                  (--hiperd only) classify the
//                                          joint region by discrete-event
//                                          simulation instead of the
//                                          analytic feature stack
//
// fault-sim mode simulates the pipeline under a fault plan — machine
// crashes survived by failover to a backup, transient slowdowns, message
// loss retried with capped exponential backoff (see src/fault and
// docs/robustness.md) — and reports the degraded-mode empirical
// robustness radius next to the analytic rho. The plan is sampled from
// --seed unless given explicitly via --crash/--slow/--loss; --no-faults
// reproduces the `validate --des` cross-check bit-for-bit. Results are
// bit-identical for a fixed --seed at any --threads value.
//
// sweep mode evaluates a declarative robustness sweep (see docs/sweep.md
// and examples/sweeps/): sharded across --threads with bit-identical
// surfaces at any thread count, checkpointed per shard to --journal, and
// resumable with --resume. --stop-after N interrupts after N shards;
// --no-cache disables sub-computation deduplication (results unchanged);
// --response AXIS prints the analytic-rho response along one axis;
// --cache-dir DIR keeps empirical estimates in a persistent on-disk
// cache shared across runs and workers (throughput only, never a byte).
// --serve HOST:PORT runs the distributed-sweep coordinator (shard
// leases over the fepiad wire protocol, byte-identical surface at any
// worker count) and --worker HOST:PORT a pull-based compute worker —
// see docs/sweep.md.
//
// Exit status: 0 on success (and, with --check, when the point is
// tolerated; with validate, when every analytic radius falls inside its
// empirical CI), 2 when a --check point is not tolerated, a validation
// row disagrees, or a fault-sim plan already breaks QoS at the operating
// point, 1 on errors.
//
// See src/io/problem_io.hpp for the problem-file format; a worked sample
// lives at examples/data/streaming_stage.fepia.
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/eval_engine.hpp"
#include "alloc/genetic.hpp"
#include "alloc/heuristics.hpp"
#include "alloc/search.hpp"
#include "des/pipeline.hpp"
#include "etc/etc.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "io/parse.hpp"
#include "io/problem_io.hpp"
#include "io/system_io.hpp"
#include "obs/alert.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/registry/scheduler.hpp"
#include "report/table.hpp"
#include "server/query.hpp"
#include "server/server.hpp"
#include "sweep/engine.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace {

using namespace fepia;

/// Observability state shared by every subcommand. --trace / --metrics
/// are stripped from argv before mode parsing, so each mode sees only
/// its own flags; the modes contribute their registries and manifest
/// fields here and main() finalizes (trace file, metrics dump) on exit.
struct ObsCli {
  std::string tracePath;  ///< --trace FILE (empty = no trace)
  bool metrics = false;   ///< --metrics: dump the registry on exit
  obs::Registry registry;
  obs::RunManifest manifest;
  obs::Stopwatch wall;
  // Live telemetry (--telemetry FILE): the hub samples on its own
  // thread for the whole process lifetime; modes hang their live-gauge
  // sources off it. --prom FILE writes a Prometheus text exposition of
  // the final registry state on exit.
  std::string telemetryPath;            ///< --telemetry FILE
  std::uint64_t telemetryIntervalMs = 250;  ///< --telemetry-interval MS
  std::vector<obs::AlertRule> alerts;   ///< --alert RULE (repeatable)
  std::string promPath;                 ///< --prom FILE
  std::ofstream telemetryFile;
  std::unique_ptr<obs::TelemetryHub> hub;
};
ObsCli g_obs;

// The four query modes (radius, validate, fault-sim, sweep) now live in
// src/server/query.cpp so the resident fepiad server runs the exact same
// code; the CLI keeps only its own plumbing (usage text, obs globals,
// the CLI-only search/profile/--hiperd modes) plus these shared helper
// aliases.
using server::argDouble;
using server::argSize;
using server::argUint;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <problem-file> [--scheme normalized|sensitivity|both]"
               " [--check v1,v2,... ...] [--backend NAME] [--csv] [--echo]\n"
            << "       " << argv0 << " --hiperd <system-file> [--csv]\n"
            << "       " << argv0
            << " validate <problem-file> [--scheme ...] [--samples N]"
               " [--seed S] [--threads T] [--backend NAME] [--csv]"
               " [--json FILE]\n"
            << "       " << argv0
            << " validate --hiperd <system-file> [--des] [--samples N]"
               " [--seed S] [--threads T] [--backend NAME] [--csv]"
               " [--json FILE]\n"
            << "       " << argv0
            << " search [--tasks N] [--machines M]"
               " [--het hi-hi|hi-lo|lo-hi|lo-lo] [--tau-factor F] [--seed S]"
               " [--threads T] [--generations N] [--population N]"
               " [--max-moves N] [--csv] [--json FILE]\n"
            << "       " << argv0
            << " fault-sim [--hiperd FILE] [--samples N] [--seed S]"
               " [--threads T] [--scenarios N] [--gens N]"
               " [--crash M:T[:BACKUP]] [--slow machine|link:IDX:FROM:TO:F]"
               " [--loss LINK:P] [--detect SEC] [--retries N] [--no-faults]"
               " [--backend NAME] [--csv] [--json FILE]\n"
            << "       " << argv0
            << " sweep <spec-file> [--threads T] [--chunk N] [--journal FILE]"
               " [--resume] [--stop-after N] [--no-cache] [--cache-dir DIR]"
               " [--response AXIS]"
               " [--progress] [--backend NAME] [--csv] [--json FILE]\n"
            << "       " << argv0
            << " sweep <spec-file> --serve HOST:PORT [--chunk N]"
               " [--journal FILE] [--resume] [--lease-ms N]"
               " [--drain-timeout SEC] [--response AXIS] [--csv]"
               " [--json FILE]\n"
            << "       " << argv0
            << " sweep <spec-file> --worker HOST:PORT [--worker-name NAME]"
               " [--cache-dir DIR] [--no-cache] [--backend NAME]\n"
            << "       " << argv0
            << " profile [--tasks N] [--machines M] [--seed S] [--threads T]"
               " [--json FILE]\n"
            << "       " << argv0
            << " serve [--port N] [--bind ADDR] [--workers N] [--threads T]"
               " [--max-queue N] [--max-frame BYTES] [--deadline-ms MS]"
               " [--config FILE]\n"
            << "Every subcommand also accepts --trace FILE (write a Chrome"
               " trace-event JSON; load in Perfetto or chrome://tracing),"
               " --metrics (dump the metrics registry as JSON on exit),"
               " --telemetry FILE (stream periodic JSONL metric samples and"
               " events; --telemetry-interval MS sets the period, --alert"
               " METRIC{>|>=|<|<=}VALUE adds threshold alerts), and --prom"
               " FILE (write a Prometheus text exposition on exit). See"
               " docs/observability.md.\n"
               "--backend NAME forces one radius backend (see docs/"
               "backends.md); omit it to let the cost-model scheduler"
               " choose.\n";
  return 1;
}

void emit(const report::Table& table, bool csv) {
  server::emitTable(std::cout, table, csv);
}

int runHiperdMode(const std::string& path, bool csv) {
  const hiperd::ReferenceSystem ref = io::loadSystem(path);
  const hiperd::System& sys = ref.system;
  std::cout << "HiPer-D system: " << sys.sensorCount() << " sensors, "
            << sys.machineCount() << " machines, " << sys.linkCount()
            << " links, " << sys.applicationCount() << " apps, "
            << sys.messageCount() << " messages, " << sys.pathCount()
            << " paths\nQoS: throughput >= " << ref.qos.minThroughput
            << "/s, latency <= " << ref.qos.maxLatencySeconds << " s\n\n";

  // Load-space (single-kind) analysis.
  const radius::RobustnessReport load =
      sys.loadProblem(ref.qos).robustnessSameUnits();
  report::Table table({"feature", "radius (objects/set)"});
  for (std::size_t i = 0; i < load.perFeature.size(); ++i) {
    table.addRow({load.featureNames[i],
                  load.perFeature[i].finite()
                      ? report::num(load.perFeature[i].radius, 6)
                      : "inf"});
  }
  emit(table, csv);
  std::cout << "rho (sensor loads) = " << report::num(load.rho, 6)
            << " objects/set, critical: "
            << load.featureNames[load.criticalFeature] << "\n\n";

  // Multi-kind (execution times ⋆ message sizes) analysis.
  const radius::FepiaProblem mixed = sys.executionMessageProblem(ref.qos);
  server::printMerged(std::cout, mixed, radius::MergeScheme::NormalizedByOriginal,
                      csv, &g_obs.registry);
  server::printMerged(std::cout, mixed, radius::MergeScheme::Sensitivity, csv,
                      &g_obs.registry);
  return 0;
}

int runSearchMode(int argc, char** argv) {
  std::size_t tasks = 128;
  std::size_t machines = 8;
  etc::Heterogeneity het = etc::Heterogeneity::HiHi;
  double tauFactor = 1.4;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::optional<std::size_t> threads;
  alloc::GeneticOptions gaOpts;
  std::size_t maxMoves = 10000;
  bool csv = false;
  std::string jsonPath;

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tasks") == 0 && i + 1 < argc) {
      tasks = argSize("--tasks", argv[++i]);
    } else if (std::strcmp(argv[i], "--machines") == 0 && i + 1 < argc) {
      machines = argSize("--machines", argv[++i]);
    } else if (std::strcmp(argv[i], "--het") == 0 && i + 1 < argc) {
      const std::string h = argv[++i];
      if (h == "hi-hi") het = etc::Heterogeneity::HiHi;
      else if (h == "hi-lo") het = etc::Heterogeneity::HiLo;
      else if (h == "lo-hi") het = etc::Heterogeneity::LoHi;
      else if (h == "lo-lo") het = etc::Heterogeneity::LoLo;
      else return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--tau-factor") == 0 && i + 1 < argc) {
      tauFactor = argDouble("--tau-factor", argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = argUint("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = argSize("--threads", argv[++i]);
    } else if (std::strcmp(argv[i], "--generations") == 0 && i + 1 < argc) {
      gaOpts.generations = argSize("--generations", argv[++i]);
    } else if (std::strcmp(argv[i], "--population") == 0 && i + 1 < argc) {
      gaOpts.populationSize = argSize("--population", argv[++i]);
    } else if (std::strcmp(argv[i], "--max-moves") == 0 && i + 1 < argc) {
      maxMoves = argSize("--max-moves", argv[++i]);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  g_obs.manifest.tool = "fepia_cli search";
  g_obs.manifest.seed = seed;
  g_obs.manifest.threads = threads.value_or(0);

  rng::Xoshiro256StarStar g(seed);
  const la::Matrix e = etc::generateCvb(tasks, machines, etc::cvbPreset(het), g);
  const alloc::Allocation mctSeed = alloc::mct(e);
  const double tau = tauFactor * alloc::makespan(mctSeed, e);

  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads.has_value()) {
    pool = std::make_unique<parallel::ThreadPool>(*threads);
  }
  alloc::EngineConfig cfg;
  cfg.objective = alloc::EngineObjective::Rho;
  cfg.tau = tau;
  alloc::EvalEngine engine(e, cfg, pool.get());

  std::cout << "workload: " << tasks << " tasks x " << machines
            << " machines, CVB " << etc::heterogeneityName(het) << ", seed "
            << seed << "\ntau = " << report::num(tau, 6) << "  ("
            << tauFactor << " x mct makespan)\n\n";

  // Heuristic population ranked by rho.
  struct Row {
    std::string name;
    alloc::Allocation mu;
    double rho;
  };
  std::vector<Row> rows;
  std::vector<alloc::Allocation> gaSeeds;
  {
    FEPIA_SPAN("search.heuristics");
    for (const alloc::Heuristic h : alloc::allHeuristics()) {
      FEPIA_SPAN(alloc::heuristicName(h));
      alloc::Allocation mu = alloc::runHeuristic(h, e);
      const double rho = engine.evaluate(mu);
      gaSeeds.push_back(mu);
      rows.push_back(Row{alloc::heuristicName(h), std::move(mu), rho});
    }
  }

  // Engine-driven searches, started from the best-rho heuristic.
  std::size_t bestSeedIdx = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].rho > rows[bestSeedIdx].rho) bestSeedIdx = i;
  }
  obs::Stopwatch sw;
  alloc::Allocation improved =
      alloc::localSearch(engine, rows[bestSeedIdx].mu, maxMoves);
  engine.counters().set("wall_us_local_search", sw.elapsedMicros());
  const double improvedRho = engine.evaluate(improved);
  rows.push_back(Row{"local-search", std::move(improved), improvedRho});

  sw.restart();
  const alloc::GeneticResult ga = alloc::geneticSearch(engine, g, gaOpts, gaSeeds);
  engine.counters().set("wall_us_ga", sw.elapsedMicros());
  rows.push_back(Row{"ga", ga.best, ga.bestObjective});

  report::Table table({"allocation", "makespan", "rho(tau)"});
  for (const Row& r : rows) {
    table.addRow({r.name, report::num(alloc::makespan(r.mu, e), 6),
                  std::isfinite(r.rho) ? report::num(r.rho, 6) : "-inf"});
  }
  emit(table, csv);

  std::size_t bestIdx = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].rho > rows[bestIdx].rho) bestIdx = i;
  }
  std::cout << "best: " << rows[bestIdx].name << "  rho = "
            << (std::isfinite(rows[bestIdx].rho)
                    ? report::num(rows[bestIdx].rho, 6)
                    : "-inf")
            << "\n\nengine counters:\n";
  engine.counters().print(std::cout);

  g_obs.registry.merge(engine.metrics());
  if (pool) pool->exportMetrics(g_obs.registry);

  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "error: cannot write '" << jsonPath << "'\n";
      return 1;
    }
    g_obs.manifest.wallSeconds = g_obs.wall.elapsedSeconds();
    obs::JsonWriter w(out);
    w.object(obs::JsonLayout::Lines);
    g_obs.manifest.writeJson(w.key("manifest").valueStream());
    w.object("config").count("tasks", tasks).count("machines", machines);
    w.str("heterogeneity", etc::heterogeneityName(het)).num("tau", tau);
    w.count("seed", seed).count("threads", threads).end();
    w.array("allocations", obs::JsonLayout::Lines);
    for (const Row& r : rows) {
      w.object().str("name", r.name);
      w.num("makespan", alloc::makespan(r.mu, e)).num("rho", r.rho).end();
    }
    w.end().str("best", rows[bestIdx].name).object("ga");
    w.count("evaluations", ga.evaluations);
    w.count("cache_hits", ga.cacheHits).end();
    engine.counters().writeJson(w.key("counters").valueStream());
    w.end();
    out << '\n';
  }
  return 0;
}

/// Prints the span records as a per-phase timing tree: spans are grouped
/// by their name path (root span name / child span name / ...), siblings
/// with the same name aggregate into one line with a call count. The id
/// hierarchy (parent id = child id minus its last ".N" segment) recovers
/// the nesting; spans whose parent closed outside the collection window
/// appear as roots.
struct ProfileNode {
  std::uint64_t totalNs = 0;
  std::size_t count = 0;
  std::map<std::string, ProfileNode> children;  ///< name -> aggregate
};

ProfileNode buildProfileTree(const std::vector<obs::SpanRecord>& records) {
  std::unordered_map<std::string, const obs::SpanRecord*> byId;
  byId.reserve(records.size());
  for (const obs::SpanRecord& r : records) byId.emplace(r.id, &r);

  ProfileNode root;
  for (const obs::SpanRecord& r : records) {
    std::vector<const obs::SpanRecord*> chain;  // leaf -> root
    const obs::SpanRecord* cur = &r;
    for (;;) {
      chain.push_back(cur);
      const std::size_t dot = cur->id.rfind('.');
      if (dot == std::string::npos) break;
      const auto parent = byId.find(cur->id.substr(0, dot));
      if (parent == byId.end()) break;
      cur = parent->second;
    }
    ProfileNode* n = &root;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      n = &n->children[(*it)->name];
    }
    n->totalNs += r.durNs;
    n->count += 1;
  }
  return root;
}

void printProfileTree(const ProfileNode& root) {
  const std::function<void(const ProfileNode&, int)> printChildren =
      [&](const ProfileNode& n, int depth) {
        for (const auto& [name, child] : n.children) {
          std::cout << std::string(static_cast<std::size_t>(2 * depth), ' ')
                    << name << "  "
                    << report::num(static_cast<double>(child.totalNs) / 1e6, 6)
                    << " ms  x" << child.count << "\n";
          printChildren(child, depth + 1);
        }
      };
  std::cout << "per-phase timing (total ms, call count):\n";
  printChildren(root, 1);
}

/// The machine-readable per-phase tree (profile --json): every node is
/// {"name", "total_ms", "count", "children": [...]}, children in the
/// tree's (name-sorted) order. tools/schemas/profile.schema.json
/// specifies the document; ci.sh checks emitted files against it.
void writeProfileJson(std::ostream& os, const ProfileNode& root) {
  obs::JsonWriter w(os);
  const std::function<void(const ProfileNode&)> writeChildren =
      [&](const ProfileNode& n) {
        w.array();
        for (const auto& [name, child] : n.children) {
          const double ms = static_cast<double>(child.totalNs) / 1e6;
          w.object().str("name", name).num("total_ms", ms);
          w.count("count", child.count).key("children");
          writeChildren(child);
          w.end();
        }
        w.end();
      };
  w.object(obs::JsonLayout::Lines);
  g_obs.manifest.writeJson(w.key("manifest").valueStream());
  w.key("phases");
  writeChildren(root);
  w.end();
  os << '\n';
}

/// `fepia_cli profile`: runs one representative workload per subsystem
/// (search, analytic radii, DES pipeline, Monte-Carlo validation) with
/// tracing forced on and prints the per-phase timing tree. Also honors
/// the global --trace / --metrics flags.
int runProfileMode(int argc, char** argv) {
  std::size_t tasks = 64;
  std::size_t machines = 8;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::optional<std::size_t> threads;
  std::string jsonPath;

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tasks") == 0 && i + 1 < argc) {
      tasks = argSize("--tasks", argv[++i]);
    } else if (std::strcmp(argv[i], "--machines") == 0 && i + 1 < argc) {
      machines = argSize("--machines", argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = argUint("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = argSize("--threads", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  g_obs.manifest.tool = "fepia_cli profile";
  g_obs.manifest.seed = seed;
  g_obs.manifest.threads = threads.value_or(2);

  obs::TraceCollector& collector = obs::TraceCollector::instance();
  if (!collector.enabled()) collector.start();
  obs::setTimingEnabled(true);

  parallel::ThreadPool pool(threads.value_or(2));

  {
    FEPIA_SPAN("profile.search");
    rng::Xoshiro256StarStar g(seed);
    const la::Matrix e =
        etc::generateCvb(tasks, machines, etc::cvbPreset(etc::Heterogeneity::HiHi), g);
    const alloc::Allocation mctSeed = alloc::mct(e);
    alloc::EngineConfig cfg;
    cfg.objective = alloc::EngineObjective::Rho;
    cfg.tau = 1.4 * alloc::makespan(mctSeed, e);
    alloc::EvalEngine engine(e, cfg, &pool);

    std::vector<alloc::Allocation> gaSeeds;
    {
      FEPIA_SPAN("search.heuristics");
      for (const alloc::Heuristic h : alloc::allHeuristics()) {
        FEPIA_SPAN(alloc::heuristicName(h));
        gaSeeds.push_back(alloc::runHeuristic(h, e));
      }
    }
    (void)alloc::localSearch(engine, gaSeeds.front(), 200);
    alloc::GeneticOptions gaOpts;
    gaOpts.generations = 10;
    gaOpts.populationSize = 32;
    (void)alloc::geneticSearch(engine, g, gaOpts, gaSeeds);
    g_obs.registry.merge(engine.metrics());
  }

  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  {
    FEPIA_SPAN("profile.radius");
    const radius::FepiaProblem mixed = ref.system.executionMessageProblem(ref.qos);
    (void)mixed.merged(radius::MergeScheme::NormalizedByOriginal).report();
  }
  {
    FEPIA_SPAN("profile.des");
    const des::PipelineResult sim = des::simulateAtLoads(
        ref.system, ref.system.originalLoads(), ref.qos.minThroughput);
    g_obs.registry.counters().bump("des.events_processed", sim.eventsProcessed);
    g_obs.registry.maxGauge("des.queue_high_water",
                            static_cast<double>(sim.queueHighWater));
  }
  {
    FEPIA_SPAN("profile.validate");
    const validate::SafePredicate safe = [](const la::Vector& pi) {
      double norm2 = 0.0;
      for (const double x : pi) norm2 += x * x;
      return norm2 < 1.0;  // unit ball: empirical radius is exactly 1
    };
    validate::EstimatorOptions vo;
    vo.directions = 512;
    vo.chunkSize = 64;
    vo.seed = seed;
    vo.polishSweeps = 8;
    vo.metrics = &g_obs.registry;
    la::Vector origin(4);
    (void)validate::estimateEmpiricalRadius(safe, origin, vo, &pool);
  }

  pool.exportMetrics(g_obs.registry);

  collector.stop();
  const std::vector<obs::SpanRecord> records = collector.collect();
  const ProfileNode tree = buildProfileTree(records);
  printProfileTree(tree);

  if (!jsonPath.empty()) {
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "error: cannot write '" << jsonPath << "'\n";
      return 1;
    }
    g_obs.manifest.wallSeconds = g_obs.wall.elapsedSeconds();
    writeProfileJson(out, tree);
    std::cout << "wrote " << jsonPath << "\n";
  }

  if (!g_obs.tracePath.empty()) {
    std::ofstream out(g_obs.tracePath);
    if (!out) {
      std::cerr << "error: cannot write '" << g_obs.tracePath << "'\n";
      return 1;
    }
    obs::writeChromeTrace(out, records, collector.baseNanos());
  }
  return 0;
}

/// Builds a QueryContext over the CLI's process-wide observability
/// globals — no shared pool or session cache: a one-shot invocation
/// creates its pool from --threads and parses its inputs fresh, exactly
/// as before the runner extraction.
server::QueryContext cliContext() {
  server::QueryContext ctx;
  ctx.registry = &g_obs.registry;
  ctx.manifest = &g_obs.manifest;
  ctx.wall = &g_obs.wall;
  ctx.hub = g_obs.hub.get();
  return ctx;
}

/// Runs one extracted query mode with the CLI's error contract:
/// UsageError prints the usage text, anything else prints one
/// "error: ..." line and exits 1.
template <typename Runner>
int runQuery(Runner runner, int argc, char** argv, int firstArg) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc - firstArg));
  for (int i = firstArg; i < argc; ++i) args.emplace_back(argv[i]);
  server::QueryContext ctx = cliContext();
  try {
    return runner(args, std::cout, ctx).exitCode;
  } catch (const server::UsageError&) {
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

// `fepia_cli serve`: the resident fepiad query server. Signal flags are
// sig_atomic_t set from handlers and polled by the main loop — the loop
// (not the handler) does the actual stop/reload work.
volatile std::sig_atomic_t g_serveStop = 0;
volatile std::sig_atomic_t g_serveReload = 0;

void onServeSignal(int sig) {
  if (sig == SIGHUP) {
    g_serveReload = 1;
  } else {
    g_serveStop = 1;
  }
}

int runServeMode(int argc, char** argv) {
  server::ServeConfig cfg;
  std::string configPath;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      // Applied in flag order, so flags after --config override the
      // file and flags before it are overridden — last writer wins.
      configPath = argv[++i];
      server::parseServeConfigFile(configPath, cfg);
    } else if (i + 1 < argc &&
               server::applyServeFlag(cfg, argv[i], argv[i + 1])) {
      ++i;
    } else {
      return usage(argv[0]);
    }
  }

  g_obs.manifest.tool = "fepia_cli serve";
  g_obs.manifest.threads = cfg.threads;

  server::Server srv(cfg, g_obs.hub.get());
  std::string error;
  if (!srv.start(&error)) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  // Machine-parseable: ci.sh and the tests scrape the actual port from
  // this line when --port 0 asked for an ephemeral one.
  std::cout << "fepiad listening on " << cfg.bindAddress << ":" << srv.port()
            << "\n"
            << std::flush;

  struct sigaction sa{};
  sa.sa_handler = onServeSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);

  // Config hot reload: SIGHUP or an mtime change on --config FILE
  // re-parses the file and re-applies the runtime knobs; structural
  // settings (bind/port/workers/threads) keep their boot values. A
  // reload never touches open connections or queued requests. The
  // mtime check is cheap stat polling (~2/s) — no inotify dependency.
  const auto reloadConfig = [&](const char* why) {
    if (configPath.empty()) return;
    server::ServeConfig fresh = cfg;
    try {
      server::parseServeConfigFile(configPath, fresh);
    } catch (const std::exception& e) {
      std::cerr << "fepiad: reload failed (" << e.what()
                << "); keeping the previous configuration\n";
      return;
    }
    srv.reload(fresh);
    std::cout << "fepiad reloaded '" << configPath << "' (" << why << ")\n"
              << std::flush;
  };
  const auto configMtime = [&]() -> std::int64_t {
    struct stat st{};
    if (configPath.empty() || ::stat(configPath.c_str(), &st) != 0) return -1;
    return static_cast<std::int64_t>(st.st_mtime);
  };
  std::int64_t lastMtime = configMtime();

  int tick = 0;
  while (g_serveStop == 0 && !srv.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_serveReload != 0) {
      g_serveReload = 0;
      reloadConfig("SIGHUP");
      lastMtime = configMtime();
    }
    if (!configPath.empty() && ++tick % 3 == 0) {
      const std::int64_t now = configMtime();
      if (now != -1 && now != lastMtime) {
        lastMtime = now;
        reloadConfig("file changed");
      }
    }
  }

  srv.stop();
  const server::Server::Stats stats = srv.stats();
  std::cout << "fepiad exiting: " << stats.served << " request(s) served, "
            << stats.errors << " error(s) (" << stats.overloaded
            << " overloaded, " << stats.deadlineExpired << " past deadline)\n";
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  if (std::strcmp(argv[1], "sweep") == 0) {
    return runQuery(server::runSweepQuery, argc, argv, 2);
  }

  if (std::strcmp(argv[1], "profile") == 0) {
    try {
      return runProfileMode(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  if (std::strcmp(argv[1], "search") == 0) {
    try {
      return runSearchMode(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  if (std::strcmp(argv[1], "serve") == 0) {
    try {
      return runServeMode(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  if (std::strcmp(argv[1], "fault-sim") == 0) {
    return runQuery(server::runFaultSimQuery, argc, argv, 2);
  }

  if (std::strcmp(argv[1], "validate") == 0) {
    return runQuery(server::runValidateQuery, argc, argv, 2);
  }

  if (std::strcmp(argv[1], "--hiperd") == 0) {
    if (argc < 3) return usage(argv[0]);
    const bool csv = argc > 3 && std::strcmp(argv[3], "--csv") == 0;
    try {
      return runHiperdMode(argv[2], csv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }

  return runQuery(server::runRadiusQuery, argc, argv, 1);
}

}  // namespace

int main(int argc, char** argv) {
  g_obs.manifest = obs::RunManifest::collect("fepia_cli", argc, argv);

  // Strip the global observability flags so the mode parsers never see
  // them; everything else passes through untouched.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argv[0]);
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        g_obs.tracePath = argv[++i];
      } else if (std::strcmp(argv[i], "--metrics") == 0) {
        g_obs.metrics = true;
      } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
        g_obs.telemetryPath = argv[++i];
      } else if (std::strcmp(argv[i], "--telemetry-interval") == 0 &&
                 i + 1 < argc) {
        // Reject 0 (a busy-spinning sampler) and cap at one hour (a
        // fat-fingered 250000000 would silently disable sampling for
        // the lifetime of a resident server).
        constexpr std::uint64_t kMaxIntervalMs = 3'600'000;
        const char* const value = argv[++i];
        g_obs.telemetryIntervalMs = argUint("--telemetry-interval", value);
        if (g_obs.telemetryIntervalMs == 0 ||
            g_obs.telemetryIntervalMs > kMaxIntervalMs) {
          throw std::invalid_argument(
              std::string("bad value for --telemetry-interval: '") + value +
              "' (expected 1..3600000 milliseconds)");
        }
      } else if (std::strcmp(argv[i], "--alert") == 0 && i + 1 < argc) {
        g_obs.alerts.push_back(obs::parseAlertRule(argv[++i]));
      } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
        g_obs.promPath = argv[++i];
      } else {
        args.push_back(argv[i]);
      }
    }
    if (!g_obs.alerts.empty() && g_obs.telemetryPath.empty()) {
      throw std::invalid_argument(
          "--alert requires --telemetry FILE (alerts are emitted into the"
          " telemetry stream)");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  if (!g_obs.tracePath.empty()) obs::TraceCollector::instance().start();
  if (!g_obs.tracePath.empty() || g_obs.metrics) obs::setTimingEnabled(true);

  if (!g_obs.telemetryPath.empty()) {
    g_obs.telemetryFile.open(g_obs.telemetryPath);
    if (!g_obs.telemetryFile) {
      std::cerr << "error: cannot write '" << g_obs.telemetryPath << "'\n";
      return 1;
    }
    obs::TelemetryOptions topts;
    topts.intervalMillis = g_obs.telemetryIntervalMs;
    topts.alerts = g_obs.alerts;
    g_obs.hub =
        std::make_unique<obs::TelemetryHub>(topts, &g_obs.telemetryFile);
    g_obs.hub->start();
  }

  int rc = dispatch(static_cast<int>(args.size()), args.data());

  // Final telemetry snapshot with the modes' merged metrics, then join
  // the sampler before any sink teardown.
  if (g_obs.hub != nullptr) {
    g_obs.hub->publish(g_obs.registry);
    g_obs.hub->stop();
  }

  if (!g_obs.promPath.empty()) {
    std::ofstream prom(g_obs.promPath);
    if (!prom) {
      std::cerr << "error: cannot write '" << g_obs.promPath << "'\n";
      if (rc == 0) rc = 1;
    } else if (g_obs.hub != nullptr) {
      g_obs.hub->exportPrometheus(prom);
    } else {
      obs::exportPrometheus(prom, g_obs.registry);
    }
  }

  // profile mode already stopped the collector and wrote its own trace;
  // for every other mode the collector is still live here.
  obs::TraceCollector& collector = obs::TraceCollector::instance();
  if (!g_obs.tracePath.empty() && collector.enabled()) {
    collector.stop();
    const std::vector<obs::SpanRecord> records = collector.collect();
    std::ofstream out(g_obs.tracePath);
    if (!out) {
      std::cerr << "error: cannot write '" << g_obs.tracePath << "'\n";
      if (rc == 0) rc = 1;
    } else {
      obs::writeChromeTrace(out, records, collector.baseNanos());
    }
  }

  if (g_obs.metrics) {
    std::cout << "metrics: ";
    g_obs.registry.writeJson(std::cout);
    std::cout << "\n";
  }
  return rc;
}

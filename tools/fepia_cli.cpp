// fepia_cli — run a FePIA robustness analysis from a problem file, and
// the front end of every other subsystem: validate, search, fault-sim,
// sweep, profile, and serve (fepiad, the resident query server).
//
// Each mode's flags are declared once, in the tables of
// src/server/query.cpp, src/server/server.cpp and tools/cli_flags.hpp;
// `fepia_cli` with no arguments prints the usage text rendered from
// them. docs/ describes each subsystem and the file formats.
//
// Exit status: 0 on success, 2 when a --check point is not tolerated, a
// validation row disagrees, or a fault-sim plan already breaks QoS at
// the operating point, 1 on errors.
#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/eval_engine.hpp"
#include "alloc/genetic.hpp"
#include "alloc/heuristics.hpp"
#include "alloc/search.hpp"
#include "des/pipeline.hpp"
#include "etc/etc.hpp"
#include "hiperd/factory.hpp"
#include "io/system_io.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "report/table.hpp"
#include "server/query.hpp"
#include "server/server.hpp"
#include "validate/empirical.hpp"

#include "cli_flags.hpp"

namespace {

using namespace fepia;

/// Observability state shared by every subcommand: the flags of
/// cli::kObsFlags, taken out of argv before mode parsing, and what they
/// build. The modes contribute their registries and manifest fields
/// here and main() finalizes (trace file, metrics dump) on exit.
struct ObsCli {
  cli::ObsArgs args;
  obs::Registry registry;
  obs::RunManifest manifest;
  obs::Stopwatch wall;
  std::ofstream telemetryFile;
  std::unique_ptr<obs::TelemetryHub> hub;
};
ObsCli g_obs;

int usage(const char* argv0) {
  cli::writeCliUsage(std::cerr, argv0);
  std::cerr << "\nExit status: 0 ok, 1 error, 2 a --check point not tolerated,"
               " a validation row outside its CI, or a fault plan breaking QoS"
               " at the operating point. docs/ describes each subcommand.\n";
  return 1;
}

using Args = std::span<const std::string>;

int runHiperdMode(Args args) {
  if (args.empty()) throw server::UsageError("--hiperd needs a system file");
  cli::HiperdArgs a;
  server::parseFlags(cli::kHiperdFlags, args.subspan(1), &a);
  const hiperd::ReferenceSystem ref = io::loadSystem(args[0]);
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
  server::emitTable(std::cout, table, a.csv);
  std::cout << "rho (sensor loads) = " << report::num(load.rho, 6)
            << " objects/set, critical: "
            << load.featureNames[load.criticalFeature] << "\n\n";

  // Multi-kind (execution times ⋆ message sizes) analysis.
  const radius::FepiaProblem mixed = sys.executionMessageProblem(ref.qos);
  server::printMerged(std::cout, mixed, radius::MergeScheme::NormalizedByOriginal,
                      a.csv, &g_obs.registry);
  server::printMerged(std::cout, mixed, radius::MergeScheme::Sensitivity, a.csv,
                      &g_obs.registry);
  return 0;
}

int runSearchMode(Args args) {
  cli::SearchArgs a;
  server::parseFlags(cli::kSearchFlags, args, &a);

  g_obs.manifest.tool = "fepia_cli search";
  g_obs.manifest.seed = a.seed;
  g_obs.manifest.threads = a.threads.value_or(0);

  rng::Xoshiro256StarStar g(a.seed);
  const la::Matrix e =
      etc::generateCvb(a.tasks, a.machines, etc::cvbPreset(a.het), g);
  const alloc::Allocation mctSeed = alloc::mct(e);
  const double tau = a.tauFactor * alloc::makespan(mctSeed, e);

  std::unique_ptr<parallel::ThreadPool> pool;
  if (a.threads.has_value()) {
    pool = std::make_unique<parallel::ThreadPool>(*a.threads);
  }
  alloc::EngineConfig cfg;
  cfg.objective = alloc::EngineObjective::Rho;
  cfg.tau = tau;
  alloc::EvalEngine engine(e, cfg, pool.get());

  std::cout << "workload: " << a.tasks << " tasks x " << a.machines
            << " machines, CVB " << etc::heterogeneityName(a.het) << ", seed "
            << a.seed << "\ntau = " << report::num(tau, 6) << "  ("
            << a.tauFactor << " x mct makespan)\n\n";

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
  alloc::Allocation improved =
      alloc::localSearch(engine, rows[bestSeedIdx].mu, a.maxMoves);
  const double improvedRho = engine.evaluate(improved);
  rows.push_back(Row{"local-search", std::move(improved), improvedRho});

  const alloc::GeneticResult ga =
      alloc::geneticSearch(engine, g, a.ga, gaSeeds);
  rows.push_back(Row{"ga", ga.best, ga.bestObjective});

  report::Table table({"allocation", "makespan", "rho(tau)"});
  for (const Row& r : rows) {
    table.addRow({r.name, report::num(alloc::makespan(r.mu, e), 6),
                  std::isfinite(r.rho) ? report::num(r.rho, 6) : "-inf"});
  }
  server::emitTable(std::cout, table, a.csv);

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

  if (!a.jsonPath.empty()) {
    std::ofstream out(a.jsonPath);
    if (!out) throw std::runtime_error("cannot write '" + a.jsonPath + "'");
    g_obs.manifest.wallSeconds = g_obs.wall.elapsedSeconds();
    obs::JsonWriter w(out);
    w.object(obs::JsonLayout::Lines);
    g_obs.manifest.writeJson(w.key("manifest").valueStream());
    w.object("config").count("tasks", a.tasks).count("machines", a.machines);
    w.str("heterogeneity", etc::heterogeneityName(a.het)).num("tau", tau);
    w.count("seed", a.seed).count("threads", a.threads).end();
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
int runProfileMode(Args args) {
  cli::ProfileArgs a;
  server::parseFlags(cli::kProfileFlags, args, &a);

  g_obs.manifest.tool = "fepia_cli profile";
  g_obs.manifest.seed = a.seed;
  g_obs.manifest.threads = a.threads;

  obs::TraceCollector& collector = obs::TraceCollector::instance();
  if (!collector.enabled()) collector.start();
  obs::setTimingEnabled(true);

  parallel::ThreadPool pool(a.threads);

  {
    FEPIA_SPAN("profile.search");
    rng::Xoshiro256StarStar g(a.seed);
    const la::Matrix e =
        etc::generateCvb(a.tasks, a.machines,
                         etc::cvbPreset(etc::Heterogeneity::HiHi), g);
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
    vo.seed = a.seed;
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

  if (!a.jsonPath.empty()) {
    std::ofstream out(a.jsonPath);
    if (!out) throw std::runtime_error("cannot write '" + a.jsonPath + "'");
    g_obs.manifest.wallSeconds = g_obs.wall.elapsedSeconds();
    writeProfileJson(out, tree);
    std::cout << "wrote " << a.jsonPath << "\n";
  }

  const std::string& tracePath = g_obs.args.tracePath;
  if (!tracePath.empty()) {
    std::ofstream out(tracePath);
    if (!out) throw std::runtime_error("cannot write '" + tracePath + "'");
    obs::writeChromeTrace(out, records, collector.baseNanos());
  }
  return 0;
}

/// Runs one of the query modes the CLI shares with fepiad, over the
/// CLI's process-wide observability globals: no shared pool or session
/// cache, so a one-shot run creates its pool from --threads and parses
/// its inputs fresh.
int runQuery(server::QueryRunner runner, Args args) {
  server::QueryContext ctx;
  ctx.registry = &g_obs.registry;
  ctx.manifest = &g_obs.manifest;
  ctx.wall = &g_obs.wall;
  ctx.hub = g_obs.hub.get();
  return runner({args.begin(), args.end()}, std::cout, ctx).exitCode;
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

int runServeMode(Args args) {
  server::ServeArgs a;
  server::parseFlags(server::serveFlags(), args, &a);
  server::ServeConfig& cfg = a.config;
  const std::string& configPath = a.configPath;

  g_obs.manifest.tool = "fepia_cli serve";
  g_obs.manifest.threads = cfg.threads;

  server::Server srv(cfg, g_obs.hub.get());
  std::string error;
  if (!srv.start(&error)) throw std::runtime_error(error);
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

/// The modes only the CLI has; any other first word names a query mode,
/// and no word the radius mode.
constexpr struct {
  std::string_view word;
  int (*run)(Args);
} kCliModes[] = {{"--hiperd", runHiperdMode},
                 {"search", runSearchMode},
                 {"profile", runProfileMode},
                 {"serve", runServeMode}};

int dispatch(Args args) {
  if (args.empty()) throw server::UsageError("no arguments");
  for (const auto& mode : kCliModes) {
    if (args[0] == mode.word) return mode.run(args.subspan(1));
  }
  const server::Query* query = server::findQuery(args[0]);
  if (query != nullptr && query->kind != "radius") {
    return runQuery(query->run, args.subspan(1));
  }
  return runQuery(server::findQuery("radius")->run, args);
}

/// The CLI's error contract: a bad or missing flag value prints one
/// "error: ..." line, any other UsageError the usage text, and anything
/// else one "error: ..." line; all exit 1.
template <typename Body>
int guarded(const char* argv0, Body body) {
  try {
    return body();
  } catch (const server::FlagValueError& e) {
    std::cerr << "error: " << e.what() << '\n';
  } catch (const server::UsageError&) {
    return usage(argv0);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  g_obs.manifest = obs::RunManifest::collect("fepia_cli", argc, argv);

  // Take the observability flags out wherever they stand, so the mode
  // parsers never see them; everything else passes through untouched.
  cli::ObsArgs& o = g_obs.args;
  std::vector<std::string> args;
  const int parsed = guarded(argv[0], [&] {
    server::ParseMode keep;
    keep.keepUnknown = true;
    args = server::parseFlags(
        cli::kObsFlags, std::vector<std::string>(argv + 1, argv + argc), &o,
        keep);
    if (!o.alerts.empty() && o.telemetryPath.empty()) {
      throw std::invalid_argument(
          "--alert requires --telemetry FILE (alerts are emitted into the"
          " telemetry stream)");
    }
    return 0;
  });
  if (parsed != 0) return parsed;

  if (!o.tracePath.empty()) obs::TraceCollector::instance().start();
  if (!o.tracePath.empty() || o.metrics) obs::setTimingEnabled(true);

  if (!o.telemetryPath.empty()) {
    g_obs.telemetryFile.open(o.telemetryPath);
    if (!g_obs.telemetryFile) {
      std::cerr << "error: cannot write '" << o.telemetryPath << "'\n";
      return 1;
    }
    obs::TelemetryOptions topts;
    topts.intervalMillis = o.telemetryIntervalMs;
    topts.alerts = o.alerts;
    g_obs.hub =
        std::make_unique<obs::TelemetryHub>(topts, &g_obs.telemetryFile);
    g_obs.hub->start();
  }

  int rc = guarded(argv[0], [&] { return dispatch(args); });

  // Final telemetry snapshot with the modes' merged metrics, then join
  // the sampler before any sink teardown.
  if (g_obs.hub != nullptr) {
    g_obs.hub->publish(g_obs.registry);
    g_obs.hub->stop();
  }

  if (!o.promPath.empty()) {
    std::ofstream prom(o.promPath);
    if (!prom) {
      std::cerr << "error: cannot write '" << o.promPath << "'\n";
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
  if (!o.tracePath.empty() && collector.enabled()) {
    collector.stop();
    const std::vector<obs::SpanRecord> records = collector.collect();
    std::ofstream out(o.tracePath);
    if (!out) {
      std::cerr << "error: cannot write '" << o.tracePath << "'\n";
      if (rc == 0) rc = 1;
    } else {
      obs::writeChromeTrace(out, records, collector.baseNanos());
    }
  }

  if (o.metrics) {
    std::cout << "metrics: ";
    g_obs.registry.writeJson(std::cout);
    std::cout << "\n";
  }
  return rc;
}

// sweep-dist: repeated distributed sweeps of one seeded linear grid with
// empirical radii on — a SweepCoordinator with its hexfloat journal on,
// plus two loopback runSweepWorker threads pulling one-point shards.
// Every surface must be byte-identical to the in-process
// sweep::runSweep of the same spec, made during set-up.
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/clock.hpp"
#include "server/dist_sweep.hpp"
#include "spans.hpp"
#include "sweep/engine.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fepia;

constexpr std::size_t kWorkers = 2;

std::string makeSpec(const Options& opt) {
  std::ostringstream s;
  s << "sweep sweep-dist\nworkload linear\n";
  if (opt.tiny) {
    s << "axis n 2 3\naxis beta 1.5\nempirical on\nsamples 8\n";
  } else {
    // Seeded values on a fixed grid shape and dimensions, so the seed
    // changes the inputs but not the amount of work.
    Rng rng(opt.seed ^ 0x5EE9D157ull);
    s.precision(4);
    s << "axis scheme sensitivity normalized\naxis n 3 5 8\naxis beta "
      << rng.uniform(1.1, 1.6) << ' '
      << rng.uniform(1.8, 2.6) << ' ' << rng.uniform(3.0, 5.0)
      << "\naxis kscale 1 " << rng.uniform(2.0, 50.0)
      << "\nempirical on\nsamples 512\n";
  }
  s << "seed " << opt.seed << "\nchunk 1\n";
  return s.str();
}

/// The surface JSON minus the lines that legitimately differ between an
/// in-process and a distributed run.
std::string surfaceBytes(const sweep::SweepSpec& spec,
                         const sweep::SweepSurface& surface) {
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, surface);
  return dropLines(os.str(), {"\"resumed_shards\"", "\"cache\""});
}

struct DistRun {
  std::string bytes;
  std::size_t points = 0;
  server::SweepCoordinator::Stats stats;
  double seconds = 0.0;
};

DistRun runDistributed(const sweep::SweepSpec& spec,
                       const std::string& journal) {
  std::filesystem::remove(journal);
  const obs::Stopwatch wall;
  const obs::Span span("bench.sweep");
  server::DistSweepConfig dc;
  dc.journalPath = journal;
  dc.drainTimeoutSeconds = 60.0;

  // Declared so that the coordinator dies first (closing the workers'
  // connections), then the joiner waits for the workers.
  std::vector<std::thread> workers;
  std::vector<std::string> errors(kWorkers);
  struct Joiner {
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{workers};
  server::SweepCoordinator coordinator(spec, dc);
  std::string error;
  if (!coordinator.start(&error)) {
    throw std::runtime_error("sweep coordinator start failed: " + error);
  }
  const std::uint16_t port = coordinator.port();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&spec, &errors, port, i] {
      const obs::Span workerSpan("bench.worker");
      try {
        server::SweepWorkerConfig wc;
        wc.port = port;
        wc.name = "w";
        wc.name += std::to_string(i);
        (void)server::runSweepWorker(spec, wc);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  const sweep::SweepSurface surface = coordinator.wait();
  for (std::thread& t : workers) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("sweep worker failed: " + e);
  }
  DistRun run;
  run.bytes = surfaceBytes(spec, surface);
  run.points = surface.points;
  run.stats = coordinator.stats();
  run.seconds = wall.elapsedSeconds();
  std::filesystem::remove(journal);
  return run;
}

}  // namespace

Outcome runSweepDist(const Options& opt) {
  Outcome o;
  o.threadsUsed = kWorkers;
  const std::string specText = makeSpec(opt);
  const std::string journal = opt.outDir + "/sweep-dist.journal";

  sweep::SweepSpec spec;
  std::unique_ptr<parallel::ThreadPool> pool;
  const double prepare = medianSetupSeconds([&] {
    pool.reset();
    spec = sweep::parseSweepSpecString(specText);
    pool = std::make_unique<parallel::ThreadPool>(kWorkers);
  });
  // The in-process reference (same compute parallelism as the workers)
  // doubles as the warm-up.
  const obs::Stopwatch warm;
  const std::string reference = surfaceBytes(
      spec, sweep::runSweep(spec, sweep::SweepOptions{}, pool.get()));
  const double setup = prepare + warm.elapsedSeconds();

  const auto attempt = [&](DistRun& run) {
    ++o.attempted;
    try {
      run = runDistributed(spec, journal);
    } catch (const std::exception& e) {
      ++o.failed;
      o.fail(e.what());
      return false;
    }
    if (run.bytes != reference) {
      ++o.failed;
      o.fail("distributed surface differs from the in-process sweep");
      return false;
    }
    return true;
  };

  const obs::Stopwatch window;
  if (!opt.trace) {
    std::vector<double> latencies;
    double points = 0.0;
    while (latencies.empty() || window.elapsedSeconds() < opt.seconds) {
      DistRun run;
      if (attempt(run)) {
        latencies.push_back(run.seconds);
        points += static_cast<double>(run.points);
      } else if (o.failed > 3) {
        break;
      }
    }
    const double rate = latencies.empty() ? 0.0 : points / sum(latencies);
    const double p50 = median(latencies) * 1e3;
    o.add("setup_s", setup, "s");
    o.add("work_per_s", rate, "1/s");
    o.add("op_p50_ms", p50, "ms");
    o.addNamed("sweep.points_per_s", rate, "points/s");
    o.addNamed("sweep.dist_p50_ms", p50, "ms");
    o.addNamed("sweeps", static_cast<double>(latencies.size()), "count");
    return o;
  }

  TraceSession trace;
  std::vector<double> plain;
  std::vector<double> traced;
  double commits = 0.0;
  double duplicates = 0.0;
  double steals = 0.0;
  double reissues = 0.0;
  while (traced.empty() || window.elapsedSeconds() < opt.seconds) {
    DistRun a;
    if (attempt(a)) plain.push_back(a.seconds);
    DistRun b;
    trace.begin();
    bool ok = false;
    {
      const obs::Span span("bench.window");
      ok = attempt(b);
    }
    trace.end();
    if (ok) {
      traced.push_back(b.seconds);
      commits += static_cast<double>(b.stats.commits);
      duplicates += static_cast<double>(b.stats.duplicateCommits);
      steals += static_cast<double>(b.stats.steals);
      reissues += static_cast<double>(b.stats.reissues);
    } else if (o.failed > 3) {
      break;
    }
  }

  LayerReadings in;
  in.ops = traced.size();
  const double ops = traced.empty() ? 1.0 : static_cast<double>(traced.size());
  in.ioParseMs =
      meanMillis([&] { (void)sweep::parseSweepSpecString(specText); });
  in.distUsefulCommitFrac =
      commits + duplicates > 0.0 ? commits / (commits + duplicates) : 0.0;
  in.distSteals = steals / ops;
  in.distReissues = reissues / ops;
  in.traceOverheadFrac = relativeIncrease(plain, traced);
  // Distributed workers compute shards through evaluatePointRange, which
  // opens no sweep.shard span; the shard layer is read from a traced
  // in-process sweep of the same spec instead.
  TraceSession local;
  local.begin();
  const sweep::SweepSurface surface =
      sweep::runSweep(spec, sweep::SweepOptions{}, pool.get());
  local.end();
  in.sweepShardS = shardSeconds(local.records());
  const double lookups =
      static_cast<double>(surface.cacheHits + surface.cacheMisses);
  in.sweepCacheHitFrac =
      lookups > 0.0 ? static_cast<double>(surface.cacheHits) / lookups : 0.0;

  addLayerMetrics(o, in, trace.records());
  trace.writeChromeTrace(opt.outDir + "/" + opt.workload + ".trace.json");
  return o;
}

}  // namespace perfbench

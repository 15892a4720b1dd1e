// fepiad-mixed: closed-loop clients, one loopback connection each, send a
// seeded mix of requests to an in-process server::Server and wait for
// every reply:
//   - 80% radius requests over generated .fepia problems, 70% of them
//     from a small hot set (parse-cache hits), the rest from a large
//     cold set (mostly misses);
//   - 10% small validate requests;
//   - 10% repeated small sweep requests (sweep ResultCache hits after
//     the warm-up).
// Every reply is checked against the in-process runner's answer to the
// same request, made during set-up.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "io/problem_io.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "server/query.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fepia;

enum class Kind { Radius, Validate, Sweep };

struct Request {
  Kind kind = Kind::Radius;
  std::vector<std::string> args;
  std::string payload;  ///< the framed request body, id = table index
  /// Radius: the exact reply bytes. Validate/sweep: exit code plus the
  /// normalized stdout and JSON report (see normalizeOutput/Json).
  std::string expected;
  int exitCode = 0;
  std::string output;
  std::string json;
};

/// The server ≡ CLI guard's normalization: sweep stdout carries wall
/// time and cache lines, and every JSON report a manifest; a warm
/// server's sweep JSON also differs in its cache/resume counters.
std::string normalizeOutput(Kind kind, const std::string& text) {
  return kind == Kind::Sweep
             ? dropLines(text, {"resumed ", "cache: ", "wrote "})
             : text;
}

std::string normalizeJson(Kind kind, const std::string& text) {
  const std::string json = dropManifest(text);
  return kind == Kind::Sweep
             ? dropLines(json, {"\"resumed_shards\"", "\"cache\"",
                                "\"classifications\""})
             : json;
}

struct InProcess {
  server::QueryResult result;
  std::string output;
  double seconds = 0.0;
};

/// The request answered by the runner directly, as the one-shot CLI does.
InProcess runInProcess(Kind kind, const std::vector<std::string>& args) {
  obs::Registry registry;
  obs::RunManifest manifest;
  const obs::Stopwatch wall;
  server::QueryContext ctx;
  ctx.registry = &registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.captureJson = true;
  std::ostringstream out;
  InProcess run;
  switch (kind) {
    case Kind::Radius:
      run.result = server::runRadiusQuery(args, out, ctx);
      break;
    case Kind::Validate:
      run.result = server::runValidateQuery(args, out, ctx);
      break;
    case Kind::Sweep:
      run.result = server::runSweepQuery(args, out, ctx);
      break;
  }
  run.seconds = wall.elapsedSeconds();
  run.output = out.str();
  return run;
}

/// A linear problem of fixed shape (3 execution times, 2 message sizes,
/// 3 features) with seeded values: the seed changes the inputs, not
/// the amount of work a request costs.
std::string makeProblem(Rng& rng) {
  std::ostringstream p;
  p.precision(6);
  const std::size_t execs = 3;
  const std::size_t msgs = 2;
  const std::size_t features = 3;
  p << "kind exec s";
  for (std::size_t i = 0; i < execs; ++i) p << ' ' << rng.uniform(1.0, 5.0);
  p << "\nkind msg B";
  for (std::size_t i = 0; i < msgs; ++i) p << ' ' << rng.uniform(1e5, 1e6);
  p << '\n';
  for (std::size_t f = 0; f < features; ++f) {
    p << "feature f" << f << " relupper " << rng.uniform(1.2, 3.0) << " coeff";
    for (std::size_t i = 0; i < execs; ++i) p << ' ' << rng.uniform(0.1, 2.0);
    for (std::size_t i = 0; i < msgs; ++i) {
      p << ' ' << rng.uniform(0.5e-6, 2e-6);
    }
    p << '\n';
  }
  return p.str();
}

std::string makeSweepSpec(Rng& rng, std::uint64_t seed, bool tiny) {
  std::ostringstream s;
  s.precision(4);
  s << "sweep fepiad-mixed\nworkload linear\naxis n 2 4\naxis beta "
    << rng.uniform(1.1, 1.8) << ' ' << rng.uniform(2.0, 4.0)
    << "\nempirical on\nsamples " << (tiny ? 8 : 32) << "\nseed " << seed
    << "\nchunk 2\n";
  return s.str();
}

/// Inputs, references and the running server of one set-up.
struct Fixture {
  std::vector<Request> requests;  ///< hot radius, cold radius, validate, sweep
  std::size_t hot = 0;
  std::size_t cold = 0;
  std::vector<std::string> problemPaths;
  std::vector<double> inProcessRadiusS;
  std::size_t clients = 1;
  std::size_t poolThreads = 1;
  std::size_t computeThreads = 1;  ///< request workers plus pool threads
  std::unique_ptr<server::Server> server;

  [[nodiscard]] const Request& pick(Rng& rng) const {
    const double u = rng.uniform();
    if (u < 0.8) {
      return rng.uniform() < 0.7 ? requests[rng.below(hot)]
                                 : requests[hot + rng.below(cold)];
    }
    return requests[u < 0.9 ? hot + cold : hot + cold + 1];
  }
};

std::string requestPayload(std::size_t id, const char* kind,
                           const std::vector<std::string>& args) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"kind\":\"" << kind << "\",\"args\":[";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ',';
    obs::writeJsonString(os, args[i]);
  }
  os << "]}";
  return os.str();
}

void buildFixture(const Options& opt, Fixture& fx) {
  fx.server.reset();  // stop the previous set-up's server first
  fx = Fixture{};
  const std::string dir = opt.outDir + "/fepiad-inputs";
  std::filesystem::create_directories(dir);
  Rng rng(opt.seed ^ 0xFE91ADull);
  fx.hot = opt.tiny ? 4 : 16;
  fx.cold = opt.tiny ? 16 : 256;
  for (std::size_t i = 0; i < fx.hot + fx.cold; ++i) {
    const std::string path = dir + "/p" + std::to_string(i) + ".fepia";
    writeFile(path, makeProblem(rng));
    fx.problemPaths.push_back(path);
    Request r;
    r.kind = Kind::Radius;
    r.args = {path};
    fx.requests.push_back(std::move(r));
  }
  const std::string specPath = dir + "/mixed.sweep";
  writeFile(specPath, makeSweepSpec(rng, opt.seed, opt.tiny));
  Request validateReq;
  validateReq.kind = Kind::Validate;
  validateReq.args = {fx.problemPaths.front(), "--samples",
                      opt.tiny ? "64" : "256", "--seed",
                      std::to_string(opt.seed)};
  fx.requests.push_back(std::move(validateReq));
  Request sweepReq;
  sweepReq.kind = Kind::Sweep;
  sweepReq.args = {specPath};
  fx.requests.push_back(std::move(sweepReq));

  for (std::size_t id = 0; id < fx.requests.size(); ++id) {
    Request& r = fx.requests[id];
    const char* name = r.kind == Kind::Radius     ? "radius"
                       : r.kind == Kind::Validate ? "validate"
                                                  : "sweep";
    r.payload = requestPayload(id, name, r.args);
    const InProcess ref = runInProcess(r.kind, r.args);
    r.exitCode = ref.result.exitCode;
    if (r.kind == Kind::Radius) {
      fx.inProcessRadiusS.push_back(ref.seconds);
      // Exactly the server's success frame for this id.
      std::ostringstream reply;
      reply << "{\"id\":" << id << ",\"ok\":true,\"exit\":" << r.exitCode
            << ",\"output\":";
      obs::writeJsonString(reply, ref.output);
      reply << ",\"json\":null}";
      r.expected = reply.str();
    } else {
      r.output = normalizeOutput(r.kind, ref.output);
      r.json = normalizeJson(r.kind, ref.result.json);
    }
  }

  // Compute threads: request workers plus the shared pool, nproc in all.
  server::ServeConfig cfg;
  cfg.port = 0;
  cfg.workers = std::max<std::size_t>(1, opt.cpus / 2);
  cfg.threads = std::max<std::size_t>(1, opt.cpus - cfg.workers);
  fx.poolThreads = cfg.threads;
  fx.computeThreads = cfg.workers + cfg.threads;
  // Half as many clients as CPUs leaves the cores to the server's
  // compute threads; with one client per CPU, thread wake-ups on the
  // oversubscribed cores swung the radius p50 by 15-30% run to run.
  fx.clients = std::max<std::size_t>(1, opt.cpus / 2);
  fx.server = std::make_unique<server::Server>(cfg);
  std::string error;
  if (!fx.server->start(&error)) {
    throw std::runtime_error("fepiad start failed: " + error);
  }
}

/// Empty when `payload` is the right reply to `req`, else why not.
std::string checkReply(const Request& req, const std::string& payload) {
  if (req.kind == Kind::Radius) {
    return payload == req.expected ? std::string()
                                   : "radius reply differs from the runner's";
  }
  const std::optional<server::JsonValue> doc = server::parseJson(payload);
  if (!doc.has_value()) return "unparseable reply";
  const server::JsonValue* ok = doc->find("ok");
  if (ok == nullptr || ok->kind != server::JsonValue::Kind::Bool ||
      !ok->boolean) {
    const server::JsonValue* err = doc->find("error");
    const server::JsonValue* code =
        err != nullptr ? err->find("code") : nullptr;
    return "request refused: " +
           (code != nullptr && code->isString() ? code->string : payload);
  }
  const server::JsonValue* exitV = doc->find("exit");
  const server::JsonValue* output = doc->find("output");
  const server::JsonValue* json = doc->find("json");
  if (exitV == nullptr || !exitV->isNumber() || output == nullptr ||
      !output->isString() || json == nullptr || !json->isString()) {
    return "malformed reply";
  }
  if (static_cast<int>(exitV->number) != req.exitCode ||
      normalizeOutput(req.kind, output->string) != req.output ||
      normalizeJson(req.kind, json->string) != req.json) {
    return "reply differs from the runner's";
  }
  return {};
}

struct Tally {
  std::vector<double> radiusS;
  std::vector<double> computeS;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(std::move(why));
  }
};

void clientLoop(const Fixture& fx, std::uint64_t seed, double seconds,
                const obs::Stopwatch& clock, Tally& t) {
  const int fd = server::connectLoopback(fx.server->port());
  if (fd < 0) {
    ++t.attempted;
    t.fail("cannot connect to the server");
    return;
  }
  Rng rng(seed);
  while (clock.elapsedSeconds() < seconds) {
    const Request& req = fx.pick(rng);
    ++t.attempted;
    const obs::Stopwatch sw;
    server::Frame frame;
    bool sent = false;
    {
      const obs::Span span("bench.request");
      sent = server::writeFrame(fd, req.payload);
      if (sent) frame = server::readFrame(fd, server::kDefaultMaxFrameBytes);
    }
    const double s = sw.elapsedSeconds();
    if (!sent || frame.status != server::FrameStatus::Ok) {
      t.fail("connection lost");
      break;
    }
    std::string why = checkReply(req, frame.payload);
    if (!why.empty()) {
      t.fail(std::move(why));
      continue;
    }
    (req.kind == Kind::Radius ? t.radiusS : t.computeS).push_back(s);
  }
  ::close(fd);
}

struct Window {
  Tally tally;
  double seconds = 0.0;
  [[nodiscard]] double requestsPerSecond() const {
    return static_cast<double>(tally.radiusS.size() + tally.computeS.size()) /
           seconds;
  }
};

/// One closed-loop traffic window of `seconds` from every client.
Window runWindow(const Fixture& fx, double seconds, std::uint64_t seed) {
  std::vector<Tally> tallies(fx.clients);
  std::vector<std::thread> threads;
  const obs::Stopwatch clock;
  for (std::size_t c = 0; c < fx.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        clientLoop(fx, seed * 0x9E3779B97F4A7C15ull + c + 1, seconds, clock,
                   tallies[c]);
      } catch (const std::exception& e) {
        tallies[c].fail(std::string("client failed: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.seconds = clock.elapsedSeconds();
  for (Tally& t : tallies) {
    w.tally.radiusS.insert(w.tally.radiusS.end(), t.radiusS.begin(),
                           t.radiusS.end());
    w.tally.computeS.insert(w.tally.computeS.end(), t.computeS.begin(),
                            t.computeS.end());
    w.tally.attempted += t.attempted;
    w.tally.failed += t.failed;
    for (std::string& p : t.problems) w.tally.problems.push_back(std::move(p));
  }
  return w;
}

void account(Outcome& o, const Window& w) {
  o.attempted += w.tally.attempted;
  o.failed += w.tally.failed;
  for (const std::string& p : w.tally.problems) o.fail(p);
}

double pingP50Us(std::uint16_t port) {
  const int fd = server::connectLoopback(port);
  if (fd < 0) return 0.0;
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const obs::Stopwatch sw;
    if (!server::writeFrame(fd, "{\"id\":0,\"kind\":\"ping\"}")) break;
    if (server::readFrame(fd, server::kDefaultMaxFrameBytes).status !=
        server::FrameStatus::Ok) {
      break;
    }
    us.push_back(sw.elapsedSeconds() * 1e6);
  }
  ::close(fd);
  return median(us);
}

}  // namespace

Outcome runFepiadMixed(const Options& opt) {
  Outcome o;
  Fixture fx;
  const double prepare = medianSetupSeconds([&] { buildFixture(opt, fx); });
  o.threadsUsed = std::max(fx.clients, fx.computeThreads);

  // Warm-up: one of each request kind; the sweep fills the server's
  // sweep cache, so the timed sweep requests are repeats.
  const obs::Stopwatch warm;
  {
    const int fd = server::connectLoopback(fx.server->port());
    if (fd < 0) throw std::runtime_error("cannot connect to the server");
    for (const std::size_t id : {std::size_t{0}, fx.hot + fx.cold,
                                 fx.hot + fx.cold + 1}) {
      const Request& req = fx.requests[id];
      const bool sent = server::writeFrame(fd, req.payload);
      const server::Frame frame =
          sent ? server::readFrame(fd, server::kDefaultMaxFrameBytes)
               : server::Frame{};
      if (!sent || frame.status != server::FrameStatus::Ok ||
          !checkReply(req, frame.payload).empty()) {
        ::close(fd);
        throw std::runtime_error("warm-up request " + std::to_string(id) +
                                 " failed");
      }
    }
    ::close(fd);
  }
  const double setup = prepare + warm.elapsedSeconds();

  if (!opt.trace) {
    const Window w = runWindow(fx, opt.seconds, opt.seed);
    account(o, w);
    const double reqPerS = w.requestsPerSecond();
    const double radiusP50 = quantile(w.tally.radiusS, 0.5) * 1e3;
    o.add("setup_s", setup, "s");
    o.add("work_per_s", reqPerS, "1/s");
    o.add("op_p50_ms", radiusP50, "ms");
    o.addNamed("fepiad.req_per_s", reqPerS, "req/s");
    o.addNamed("fepiad.radius_p50_ms", radiusP50, "ms");
    o.addNamed("fepiad.radius_p99_ms", quantile(w.tally.radiusS, 0.99) * 1e3,
               "ms");
    o.addNamed("fepiad.compute_p50_ms", quantile(w.tally.computeS, 0.5) * 1e3,
               "ms");
    o.addNamed("fepiad.radius_requests",
               static_cast<double>(w.tally.radiusS.size()), "count");
    o.addNamed("fepiad.compute_requests",
               static_cast<double>(w.tally.computeS.size()), "count");
    fx.server->stop();
    return o;
  }

  const Window plain = runWindow(fx, opt.seconds / 2.0, opt.seed);
  account(o, plain);
  TraceSession trace;
  trace.begin();
  Window traced;
  {
    const obs::Span span("bench.window");
    traced = runWindow(fx, opt.seconds / 2.0, opt.seed + 1);
  }
  trace.end();
  account(o, traced);

  LayerReadings in;
  in.ops = traced.tally.radiusS.size() + traced.tally.computeS.size();
  in.poolThreads = fx.poolThreads;
  std::size_t next = 0;
  in.ioParseMs = meanMillis([&] {
    (void)io::loadProblem(fx.problemPaths[next++ % fx.problemPaths.size()]);
  });
  in.serverPingRttUs = pingP50Us(fx.server->port());
  in.serverRoundtripOverheadMs =
      (quantile(plain.tally.radiusS, 0.5) - median(fx.inProcessRadiusS)) * 1e3;
  const server::SessionCache::Stats cache = fx.server->cache().stats();
  const double hits = static_cast<double>(cache.problemHits + cache.systemHits);
  const double lookups =
      hits + static_cast<double>(cache.problemMisses + cache.systemMisses);
  in.serverSessionHitFrac = lookups > 0.0 ? hits / lookups : 0.0;
  const sweep::ResultCache& sweepCache = fx.server->cache().sweepCache();
  const double sweepLookups =
      static_cast<double>(sweepCache.hits() + sweepCache.misses());
  in.sweepCacheHitFrac =
      sweepLookups > 0.0 ? static_cast<double>(sweepCache.hits()) / sweepLookups
                         : 0.0;
  const server::Server::Stats stats = fx.server->stats();
  in.serverOverloaded = static_cast<double>(stats.overloaded);
  in.serverDeadlineExpired = static_cast<double>(stats.deadlineExpired);
  if (traced.requestsPerSecond() > 0.0) {
    in.traceOverheadFrac =
        plain.requestsPerSecond() / traced.requestsPerSecond() - 1.0;
  }
  fx.server->stop();
  addLayerMetrics(o, in, trace.records());
  trace.writeChromeTrace(opt.outDir + "/" + opt.workload + ".trace.json");
  return o;
}

}  // namespace perfbench

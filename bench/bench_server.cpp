// Experiment SERVER — throughput and latency of the resident fepiad
// query server.
//
// Starts an in-process `server::Server`, drives it over loopback with
// N concurrent clients issuing real radius queries, and reports req/s
// plus p50/p99 round-trip latency. A second phase demonstrates the
// point of residency: the first sweep request (cold) pays the full
// computation, identical repeats are answered out of the warm
// content-keyed cache measurably faster, with byte-identical results
// (pinned separately by server_equivalence_test). Structured results
// land in BENCH_server.json (override with FEPIA_BENCH_JSON).
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "claim.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"

namespace {

using namespace fepia;

obs::RunManifest g_manifest;

bool smokeMode() {
  const char* env = std::getenv("FEPIA_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

std::string tempPath(const std::string& leaf) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/fepia_bench_server." +
         std::to_string(::getpid()) + "." + leaf;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

constexpr const char* kProblem = R"(
kind execution-times s 2.0 3.0
kind message-lengths B 1e6

feature "end-to-end delay" upper 9.0 coeff 1.0 1.0 1e-6
feature tight lower 4.0 coeff 1.0 1.0 0.0
)";

std::string sweepSpec(bool smoke) {
  std::string text = "sweep bench-server\nworkload linear\n";
  text += smoke ? "axis n 2 4\n" : "axis n 2 4 8\n";
  text += "axis beta 1.05 1.5 3.0\n";
  text += "empirical on\n";
  text += smoke ? "samples 8\n" : "samples 32\n";
  text += "seed 42\nchunk 2\n";
  return text;
}

/// The request frame {"id":1,"kind":<kind>,"args":[<path>]}.
std::string request(std::string_view kind, const std::string& path) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.object(obs::JsonLayout::Compact).count("id", 1).str("kind", kind);
  w.array("args", obs::JsonLayout::Compact).str(path).end().end();
  return os.str();
}

/// One request/response round trip on an open connection. Returns the
/// elapsed seconds, or a negative value on any failure.
double roundTrip(int fd, const std::string& payload) {
  const obs::Stopwatch sw;
  if (!server::writeFrame(fd, payload)) return -1.0;
  const server::Frame frame =
      server::readFrame(fd, server::kDefaultMaxFrameBytes);
  if (frame.status != server::FrameStatus::Ok ||
      frame.payload.find("\"ok\":true") == std::string::npos) {
    return -1.0;
  }
  return sw.elapsedSeconds();
}

struct LoadResult {
  std::size_t clients = 0;
  std::size_t requests = 0;  ///< successful round trips
  std::size_t failures = 0;
  double wallSeconds = 0.0;
  double reqPerSec = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  std::vector<double> perClientP50Ms;
  std::vector<double> perClientP99Ms;
};

double percentileMs(std::vector<double> seconds, double q) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const double pos = q * static_cast<double>(seconds.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, seconds.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (seconds[lo] * (1.0 - frac) + seconds[hi] * frac) * 1e3;
}

/// N concurrent clients, each its own connection, each issuing
/// `perClient` copies of `payload` back to back.
LoadResult runLoad(std::uint16_t port, std::size_t clients,
                   std::size_t perClient, const std::string& payload) {
  LoadResult result;
  result.clients = clients;
  std::mutex mutex;
  std::vector<double> all;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const obs::Stopwatch wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> mine;
      mine.reserve(perClient);
      std::size_t failed = 0;
      const int fd = server::connectLoopback(port);
      if (fd >= 0) {
        for (std::size_t i = 0; i < perClient; ++i) {
          const double s = roundTrip(fd, payload);
          if (s >= 0.0) {
            mine.push_back(s);
          } else {
            ++failed;
          }
        }
        ::close(fd);
      } else {
        failed = perClient;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      (void)c;
      result.requests += mine.size();
      result.failures += failed;
      result.perClientP50Ms.push_back(percentileMs(mine, 0.50));
      result.perClientP99Ms.push_back(percentileMs(mine, 0.99));
      all.insert(all.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : threads) t.join();
  result.wallSeconds = wall.elapsedSeconds();
  result.reqPerSec = result.wallSeconds > 0.0
                         ? static_cast<double>(result.requests) /
                               result.wallSeconds
                         : 0.0;
  result.p50Ms = percentileMs(all, 0.50);
  result.p99Ms = percentileMs(all, 0.99);
  return result;
}

int printExperiment() {
  const obs::Stopwatch wall;
  const bool smoke = smokeMode();
  const std::string problemPath = tempPath("problem.fepia");
  const std::string specPath = tempPath("spec.sweep");
  writeFile(problemPath, kProblem);
  writeFile(specPath, sweepSpec(smoke));

  server::ServeConfig cfg;
  cfg.port = 0;
  cfg.workers = 4;
  server::Server srv(cfg);
  std::string error;
  if (!srv.start(&error)) {
    std::cerr << "bench_server: " << error << "\n";
    return 1;
  }

  const std::size_t clients = smoke ? 4 : 8;
  const std::size_t perClient = smoke ? 25 : 200;
  std::cout << "=== SERVER: resident fepiad query server ===\n\n"
            << clients << " concurrent loopback clients x " << perClient
            << " radius queries each, " << cfg.workers << " workers"
            << (smoke ? "  [smoke mode]" : "") << "\n\n";

  const LoadResult load =
      runLoad(srv.port(), clients, perClient, request("radius", problemPath));

  std::cout << "requests: " << load.requests << " ok, " << load.failures
            << " failed in " << load.wallSeconds << " s\n"
            << "throughput: " << load.reqPerSec << " req/s\n"
            << "latency: p50 " << load.p50Ms << " ms, p99 " << load.p99Ms
            << " ms\n\n";

  // Cold/warm: the first sweep computes, identical repeats hit the
  // resident content-keyed cache.
  const int fd = server::connectLoopback(srv.port());
  const std::string sweepReq = request("sweep", specPath);
  const double coldSeconds = fd >= 0 ? roundTrip(fd, sweepReq) : -1.0;
  const std::size_t warmRepeats = 3;
  double warmSeconds = -1.0;
  for (std::size_t i = 0; i < warmRepeats && fd >= 0; ++i) {
    const double s = roundTrip(fd, sweepReq);
    if (s >= 0.0 && (warmSeconds < 0.0 || s < warmSeconds)) warmSeconds = s;
  }
  if (fd >= 0) ::close(fd);
  const bool warmValid = coldSeconds > 0.0 && warmSeconds > 0.0;
  const double speedup = warmValid ? coldSeconds / warmSeconds : 0.0;
  const bool warmFaster = warmValid && warmSeconds < coldSeconds;
  std::cout << "cold sweep: " << coldSeconds << " s, warm repeat (best of "
            << warmRepeats << "): " << warmSeconds << " s  ("
            << speedup << "x)\n"
            << "warm faster than cold: " << (warmFaster ? "yes" : "NO")
            << "\n\n";

  const server::Server::Stats stats = srv.stats();
  srv.stop();
  std::remove(problemPath.c_str());
  std::remove(specPath.c_str());

  return writeBenchJson(
      "server", "BENCH_server.json", g_manifest, wall,
      [&](obs::JsonWriter& doc) {
        doc.boolean("smoke", smoke).count("clients", load.clients);
        doc.count("requests", load.requests);
        doc.count("failures", load.failures);
        doc.num("req_per_sec", load.reqPerSec).num("p50_ms", load.p50Ms);
        doc.num("p99_ms", load.p99Ms);
        doc.num("cold_sweep_seconds", coldSeconds);
        doc.num("warm_sweep_seconds", warmSeconds);
        doc.num("warm_speedup", speedup);
        doc.boolean("warm_faster_than_cold", warmFaster);
        doc.count("served_total", stats.served);
        doc.count("error_total", stats.errors);
        doc.array("runs", obs::JsonLayout::Lines);
        for (std::size_t c = 0; c < load.perClientP50Ms.size(); ++c) {
          doc.object().count("client", c);
          doc.num("p50_ms", load.perClientP50Ms[c]);
          doc.num("p99_ms", load.perClientP99Ms[c]).end();
        }
        doc.end();
      });
}

}  // namespace

int main(int argc, char** argv) {
  g_manifest = obs::RunManifest::collect("bench_server", argc, argv);
  return printExperiment();
}

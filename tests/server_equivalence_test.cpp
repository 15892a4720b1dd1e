// Differential test pinning the fepiad contract: a query answered by
// the resident server is byte-identical to the same query answered by a
// one-shot `fepia_cli` invocation — same stdout bytes, same JSON
// document (modulo the run manifest and cache/timing lines, which
// legitimately differ run to run), same exit code — for all four query
// kinds. Also pins that a warm repeat of a sweep serves the same bytes
// out of the shared cache, that streamed sweeps deliver progress
// frames without changing the final payload, and that concurrent
// clients read the bytes a lone client reads. The CLI binary path is
// injected by CMake via FEPIA_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "support/temp_path.hpp"

namespace server = fepia::server;
namespace obs = fepia::obs;

namespace {

using fepia::testing::tmpPath;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// Runs the CLI with stdout captured to `outFile`; returns the exit
/// status (-1 if killed by a signal).
int runCli(const std::string& args, const std::string& outFile) {
  const std::string cmd = std::string(FEPIA_CLI_PATH) + " " + args + " > " +
                          outFile + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Lines that legitimately differ between two otherwise identical runs:
/// the manifest (timestamps, wall seconds), resume/cache counters (a
/// warm server hits where a cold CLI misses) and the classification
/// count that shrinks with cache hits.
bool volatileJsonLine(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  for (const char* prefix : {"\"manifest\"", "\"resumed_shards\"", "\"cache\"",
                             "\"classifications\""}) {
    if (line.compare(i, std::strlen(prefix), prefix) == 0) return true;
  }
  return false;
}

std::string stripVolatileJsonLines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (!volatileJsonLine(line)) out << line << '\n';
  }
  return out.str();
}

/// Sweep stdout carries wall-clock throughput and cache-hit lines plus
/// the --json destination path; everything else must match exactly.
std::string normalizeSweepStdout(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("resumed ", 0) == 0 || line.rfind("cache: ", 0) == 0 ||
        line.rfind("wrote ", 0) == 0) {
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

struct Reply {
  bool ok = false;
  int exit = -1;
  std::string output;
  bool hasJson = false;
  std::string json;
  int progressFrames = 0;
};

/// A loopback connection that gives up on a reply after 120 s.
int connectClient(std::uint16_t port) {
  const int fd = server::connectLoopback(port);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 120;
  if (fd >= 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

/// One request/response exchange on an open connection, draining any
/// interleaved progress frames before the final response.
Reply exchange(int fd, const std::string& kind,
               const std::vector<std::string>& args, bool stream = false) {
  Reply reply;
  std::ostringstream req;
  req << "{\"id\":1,\"kind\":\"" << kind << "\",\"args\":[";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) req << ',';
    obs::writeJsonString(req, args[i]);
  }
  req << "]";
  if (stream) req << ",\"stream\":true";
  req << "}";
  EXPECT_TRUE(server::writeFrame(fd, req.str()));

  for (;;) {
    const server::Frame frame =
        server::readFrame(fd, server::kDefaultMaxFrameBytes);
    EXPECT_EQ(frame.status, server::FrameStatus::Ok);
    if (frame.status != server::FrameStatus::Ok) break;
    std::string error;
    const std::optional<server::JsonValue> doc =
        server::parseJson(frame.payload, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    if (!doc.has_value()) break;
    if (const server::JsonValue* type = doc->find("type");
        type != nullptr && type->string == "progress") {
      ++reply.progressFrames;
      continue;
    }
    if (const server::JsonValue* ok = doc->find("ok")) {
      reply.ok = ok->boolean;
    }
    if (const server::JsonValue* exit = doc->find("exit")) {
      reply.exit = static_cast<int>(exit->number);
    }
    if (const server::JsonValue* output = doc->find("output")) {
      reply.output = output->string;
    }
    if (const server::JsonValue* json = doc->find("json");
        json != nullptr && json->isString()) {
      reply.hasJson = true;
      reply.json = json->string;
    }
    break;
  }
  return reply;
}

/// exchange() on a connection of its own.
Reply ask(std::uint16_t port, const std::string& kind,
          const std::vector<std::string>& args, bool stream = false) {
  const int fd = connectClient(port);
  if (fd < 0) return Reply{};
  Reply reply = exchange(fd, kind, args, stream);
  ::close(fd);
  return reply;
}

// Shared inputs (the grammar-covering samples from the io tests).
constexpr const char* kProblem = R"(
kind execution-times s 2.0 3.0
kind message-lengths B 1e6

feature "end-to-end delay" upper 9.0 coeff 1.0 1.0 1e-6
feature tight lower 4.0 coeff 1.0 1.0 0.0
)";

constexpr const char* kSweepSpec =
    "sweep eqcheck\n"
    "workload linear\n"
    "axis n 2 3\n"
    "axis beta 1.5 2.0\n";

/// One server shared by the whole suite: request isolation is part of
/// the contract under test (a resident process must answer request N+1
/// exactly as a fresh process would, warm caches and all).
class ServerEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    server::ServeConfig cfg;
    cfg.port = 0;
    cfg.workers = 2;
    cfg.threads = 0;  // hardware, matching the CLI's default pool
    srv_ = new server::Server(cfg);
    std::string error;
    ASSERT_TRUE(srv_->start(&error)) << error;
    problemPath_ = tmpPath("server_eq.fepia");
    specPath_ = tmpPath("server_eq.sweep");
    writeFile(problemPath_, kProblem);
    writeFile(specPath_, kSweepSpec);
  }
  static void TearDownTestSuite() {
    delete srv_;
    srv_ = nullptr;
  }

  static server::Server* srv_;
  static std::string problemPath_;
  static std::string specPath_;
};

server::Server* ServerEquivalence::srv_ = nullptr;
std::string ServerEquivalence::problemPath_;
std::string ServerEquivalence::specPath_;

}  // namespace

TEST_F(ServerEquivalence, RadiusOutputIsByteIdenticalToTheCli) {
  const std::string outFile = tmpPath("server_eq_radius.txt");
  const int exit = runCli(problemPath_, outFile);
  const Reply reply = ask(srv_->port(), "radius", {problemPath_});
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.exit, exit);
  EXPECT_EQ(reply.output, slurp(outFile));
  EXPECT_FALSE(reply.hasJson);

  // Flag surface: --csv and --scheme pass through unchanged.
  const int exitCsv =
      runCli(problemPath_ + " --scheme sensitivity --csv", outFile);
  const Reply csv = ask(srv_->port(), "radius",
                        {problemPath_, "--scheme", "sensitivity", "--csv"});
  ASSERT_TRUE(csv.ok);
  EXPECT_EQ(csv.exit, exitCsv);
  EXPECT_EQ(csv.output, slurp(outFile));
}

TEST_F(ServerEquivalence, RadiusCheckVerdictAndExitCodeMatchTheCli) {
  const std::string outFile = tmpPath("server_eq_check.txt");
  const std::string checkArgs =
      problemPath_ + " --check 2.0,3.0 --check 1e6";
  const int exit = runCli(checkArgs, outFile);
  const Reply reply =
      ask(srv_->port(), "radius",
          {problemPath_, "--check", "2.0,3.0", "--check", "1e6"});
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(exit == 0 || exit == 2) << exit;
  EXPECT_EQ(reply.exit, exit);
  EXPECT_EQ(reply.output, slurp(outFile));
}

TEST_F(ServerEquivalence, ValidateOutputAndJsonMatchTheCli) {
  const std::string outFile = tmpPath("server_eq_validate.txt");
  const std::string jsonFile = tmpPath("server_eq_validate.json");
  const int exitV = runCli(
      "validate " + problemPath_ + " --samples 32 --seed 7 --json " + jsonFile,
      outFile);
  const Reply reply = ask(srv_->port(), "validate",
                          {problemPath_, "--samples", "32", "--seed", "7"});
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.exit, exitV);
  EXPECT_EQ(reply.output, slurp(outFile));
  ASSERT_TRUE(reply.hasJson);
  // The validate document is one line; the manifest object (wall clock,
  // timestamps) is the prefix before "rows" — compare from there on.
  const std::string cliDoc = slurp(jsonFile);
  const std::size_t cliRows = cliDoc.find("\"rows\"");
  const std::size_t srvRows = reply.json.find("\"rows\"");
  ASSERT_NE(cliRows, std::string::npos);
  ASSERT_NE(srvRows, std::string::npos);
  EXPECT_EQ(reply.json.substr(srvRows), cliDoc.substr(cliRows));
}

TEST_F(ServerEquivalence, FaultSimOutputAndJsonMatchTheCli) {
  const std::string outFile = tmpPath("server_eq_fault.txt");
  const std::string jsonFile = tmpPath("server_eq_fault.json");
  const std::string flags =
      "--crash 0:0.5 --samples 24 --gens 60 --seed 11";
  const int exit =
      runCli("fault-sim " + flags + " --json " + jsonFile, outFile);
  const Reply reply = ask(srv_->port(), "fault-sim",
                          {"--crash", "0:0.5", "--samples", "24", "--gens",
                           "60", "--seed", "11"});
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(exit == 0 || exit == 2) << exit;
  EXPECT_EQ(reply.exit, exit);
  EXPECT_EQ(reply.output, slurp(outFile));
  ASSERT_TRUE(reply.hasJson);
  EXPECT_EQ(stripVolatileJsonLines(reply.json),
            stripVolatileJsonLines(slurp(jsonFile)));
}

TEST_F(ServerEquivalence, SweepOutputAndJsonMatchTheCli) {
  const std::string outFile = tmpPath("server_eq_sweep.txt");
  const std::string jsonFile = tmpPath("server_eq_sweep.json");
  const int exitPlain = runCli("sweep " + specPath_, outFile);
  const Reply reply = ask(srv_->port(), "sweep", {specPath_});
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.exit, exitPlain);
  EXPECT_EQ(normalizeSweepStdout(reply.output),
            normalizeSweepStdout(slurp(outFile)));

  ASSERT_EQ(runCli("sweep " + specPath_ + " --json " + jsonFile, outFile), 0);
  ASSERT_TRUE(reply.hasJson);
  EXPECT_EQ(stripVolatileJsonLines(reply.json),
            stripVolatileJsonLines(slurp(jsonFile)));
}

TEST_F(ServerEquivalence, WarmSweepRepeatServesIdenticalBytesFromTheCache) {
  const Reply cold = ask(srv_->port(), "sweep", {specPath_, "--chunk", "1"});
  ASSERT_TRUE(cold.ok);
  const std::uint64_t hitsBefore = srv_->cache().sweepCache().hits();
  const Reply warm = ask(srv_->port(), "sweep", {specPath_, "--chunk", "1"});
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.exit, cold.exit);
  EXPECT_EQ(normalizeSweepStdout(warm.output),
            normalizeSweepStdout(cold.output));
  ASSERT_TRUE(cold.hasJson);
  ASSERT_TRUE(warm.hasJson);
  EXPECT_EQ(stripVolatileJsonLines(warm.json),
            stripVolatileJsonLines(cold.json));
  // The repeat was served out of the resident cache, not recomputed.
  EXPECT_GT(srv_->cache().sweepCache().hits(), hitsBefore);
}

TEST_F(ServerEquivalence, StreamedSweepDeliversProgressWithoutChangingBytes) {
  const Reply plain = ask(srv_->port(), "sweep", {specPath_, "--chunk", "1"});
  const Reply streamed = ask(srv_->port(), "sweep",
                             {specPath_, "--chunk", "1"}, /*stream=*/true);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(streamed.ok);
  // chunk 1 over a 4-point grid: one heartbeat per shard, framed as
  // progress messages ahead of the final response.
  EXPECT_GE(streamed.progressFrames, 1);
  EXPECT_EQ(streamed.exit, plain.exit);
  EXPECT_EQ(normalizeSweepStdout(streamed.output),
            normalizeSweepStdout(plain.output));
  EXPECT_EQ(stripVolatileJsonLines(streamed.json),
            stripVolatileJsonLines(plain.json));
}

TEST_F(ServerEquivalence, WarmProblemCacheDoesNotChangeRadiusBytes) {
  const Reply first = ask(srv_->port(), "radius", {problemPath_});
  const std::uint64_t hitsBefore = srv_->cache().stats().problemHits;
  const Reply second = ask(srv_->port(), "radius", {problemPath_});
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.output, first.output);
  EXPECT_GT(srv_->cache().stats().problemHits, hitsBefore);
}

TEST_F(ServerEquivalence, ConcurrentClientsGetTheSingleClientBytes) {
  // Several clients, each on its own connection, share the workers, the
  // compute pool and the warm caches; each must still read exactly the
  // reply a lone client reads.
  const std::vector<std::string> radius = {problemPath_};
  const std::vector<std::string> validate = {problemPath_, "--samples", "32",
                                             "--seed", "7"};
  const Reply radiusRef = ask(srv_->port(), "radius", radius);
  const Reply validateRef = ask(srv_->port(), "validate", validate);
  ASSERT_TRUE(radiusRef.ok);
  ASSERT_TRUE(validateRef.ok);
  const std::uint64_t errorsBefore = srv_->stats().errors;

  // Per client: sixteen radius requests with one validate among them.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 17;
  constexpr std::size_t kValidateAt = kRequests / 2;
  std::vector<std::vector<Reply>> replies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connectClient(srv_->port());
      if (fd < 0) return;
      for (std::size_t i = 0; i < kRequests; ++i) {
        replies[c].push_back(i == kValidateAt
                                 ? exchange(fd, "validate", validate)
                                 : exchange(fd, "radius", radius));
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(replies[c].size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Reply& ref = i == kValidateAt ? validateRef : radiusRef;
      EXPECT_TRUE(replies[c][i].ok) << i;
      EXPECT_EQ(replies[c][i].exit, ref.exit) << i;
      EXPECT_EQ(replies[c][i].output, ref.output) << i;
    }
  }
  EXPECT_EQ(srv_->stats().errors, errorsBefore);
}

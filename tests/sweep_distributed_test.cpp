// Distributed sweep: the lease table's expiry/steal/dedup policies in
// isolation (pure, clock-injected), the persistent on-disk estimate
// cache's round-trip and crash-debris tolerance, and the
// coordinator/worker stack end to end on loopback — where the contract
// under test is the headline one: the surface is byte-identical to the
// in-process sweep at any worker count, with a cold or a warm
// persistent cache, and across a journal checkpoint/resume handoff
// between the two engines.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/dist_sweep.hpp"
#include "server/listener.hpp"
#include "server/wire.hpp"
#include "sweep/engine.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease.hpp"
#include "sweep/output.hpp"
#include "sweep/pcache.hpp"
#include "sweep/spec.hpp"
#include "support/connect_storm.hpp"
#include "support/temp_path.hpp"

namespace {

using namespace fepia;

using fepia::testing::tmpPath;

/// TempDir persists across runs; cache tests need a clean slate.
std::string freshDir(const std::string& leaf) {
  const std::string dir = tmpPath(leaf);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Same grid as the engine determinism suite: every dedup path of the
/// linear family plus Monte-Carlo substreams, 8 points in 4 shards.
sweep::SweepSpec referenceSpec() {
  return sweep::parseSweepSpecString(
      "sweep distributed\nworkload linear\n"
      "axis scheme sensitivity normalized\naxis n 2 4\n"
      "axis beta 1.2 2.0\naxis kscale 1.0 100.0\n"
      "empirical on\nsamples 8\nseed 33\nchunk 2\n");
}

void expectSameSurface(const sweep::SweepSurface& a,
                       const sweep::SweepSurface& b, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(sweep::bitIdentical(a.results[i], b.results[i]))
        << what << " diverges at point " << i;
  }
  EXPECT_EQ(a.classifications, b.classifications) << what;
}

std::string renderJson(const sweep::SweepSpec& spec,
                       const sweep::SweepSurface& surface) {
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, surface);
  return os.str();
}

/// Drops the run-metadata lines that legitimately differ between an
/// in-process and a distributed run — the same filter ci.sh applies.
std::string stripRunMetadata(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(' ');
    const std::string_view body =
        start == std::string::npos ? std::string_view{}
                                   : std::string_view(line).substr(start);
    if (body.rfind("\"resumed_shards\"", 0) == 0) continue;
    if (body.rfind("\"cache\"", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

struct DistRun {
  sweep::SweepSurface surface;
  std::vector<server::SweepWorkerReport> reports;
  server::SweepCoordinator::Stats stats;
};

/// In-process coordinator + `workers` worker threads on loopback: the
/// full wire protocol, minus process boundaries.
DistRun runDistributed(const sweep::SweepSpec& spec, std::size_t workers,
                       server::DistSweepConfig dc = {},
                       const std::string& cacheDir = {}) {
  server::SweepCoordinator coordinator(spec, dc);
  std::string error;
  if (!coordinator.start(&error)) {
    throw std::runtime_error("coordinator start failed: " + error);
  }
  DistRun run;
  run.reports.resize(workers);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&, i] {
      server::SweepWorkerConfig wc;
      wc.port = coordinator.port();
      wc.name = "w" + std::to_string(i);
      wc.cacheDir = cacheDir;
      try {
        run.reports[i] = server::runSweepWorker(spec, wc);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  // wait() stops listening once the sweep drains and no worker is
  // connected, so a worker thread that has not said hello by then
  // would find no coordinator and throw. Let every worker say hello
  // first.
  const auto helloDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (coordinator.stats().workersSeen < workers) {
    if (std::chrono::steady_clock::now() > helloDeadline) {
      ADD_FAILURE() << coordinator.stats().workersSeen << " of " << workers
                    << " workers said hello within 30 s";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.surface = coordinator.wait();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << "a worker thread threw";
  run.stats = coordinator.stats();
  return run;
}

/// A raw loopback client speaking the wire protocol to a coordinator,
/// with a receive timeout so a wedged peer fails the test, never hangs it.
struct WireClient {
  int fd = -1;

  explicit WireClient(std::uint16_t port) : fd(server::connectLoopback(port)) {
    if (fd >= 0) {
      timeval tv{};
      tv.tv_sec = 30;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
  }
  ~WireClient() {
    if (fd >= 0) ::close(fd);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends `request` and returns the parsed reply (a Null value when
  /// the connection or the reply is broken).
  server::JsonValue call(const std::string& request) const {
    if (!server::writeFrame(fd, request)) return {};
    const server::Frame frame =
        server::readFrame(fd, server::kDefaultMaxFrameBytes);
    if (frame.status != server::FrameStatus::Ok) return {};
    return server::parseJson(frame.payload).value_or(server::JsonValue{});
  }
};

std::string errorCode(const server::JsonValue& reply) {
  const server::JsonValue* err = reply.find("error");
  const server::JsonValue* code = err != nullptr ? err->find("code") : nullptr;
  return code != nullptr ? code->string : std::string();
}

std::string stringMember(const server::JsonValue& reply, const char* key) {
  const server::JsonValue* v = reply.find(key);
  return v != nullptr && v->isString() ? v->string : std::string();
}

/// A coordinator serving `spec` as one shard, so one lease holds it all.
std::unique_ptr<server::SweepCoordinator> startOneShardCoordinator(
    const sweep::SweepSpec& spec) {
  server::DistSweepConfig dc;
  dc.chunkOverride = spec.pointCount();
  auto coordinator = std::make_unique<server::SweepCoordinator>(spec, dc);
  std::string error;
  if (!coordinator->start(&error)) {
    throw std::runtime_error("coordinator start failed: " + error);
  }
  return coordinator;
}

/// True when `client` is welcomed as worker `name`.
bool sayHello(const WireClient& client, const sweep::SweepSpec& spec,
              const std::string& name) {
  const server::JsonValue welcome = client.call(
      "{\"kind\":\"hello\",\"spec_hash\":\"" +
      sweep::formatSpecHash(spec.hash()) + "\",\"points\":" +
      std::to_string(spec.pointCount()) + ",\"worker\":\"" + name + "\"}");
  return stringMember(welcome, "kind") == "welcome";
}

constexpr const char* kLeaseRequest = R"({"kind":"lease"})";

/// True when a reply frame reaches `client` within `millis`.
bool answeredWithin(const WireClient& client, int millis) {
  pollfd pfd{};
  pfd.fd = client.fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, millis) > 0;
}

/// How long a sent lease must stay unanswered to count as parked: long
/// enough for the coordinator to read it, where a polling coordinator
/// would already have replied.
constexpr int kParkedMillis = 300;

/// A commit of shard 0 covering every point of `spec`, with placeholder
/// values: the coordinator checks the rows' shape, not their numbers.
std::string wholeGridCommit(const sweep::SweepSpec& spec) {
  const std::string one = "\"" + sweep::formatJournalDouble(1.0) + "\"";
  std::string rows;
  for (std::size_t id = 0; id < spec.pointCount(); ++id) {
    if (id > 0) rows += ',';
    rows += "[\"" + std::to_string(id) + "\"";
    for (int i = 0; i < 5; ++i) rows += "," + one;
    rows += ",\"0\"]";
  }
  return R"({"kind":"commit","shard":0,"results":[)" + rows + "]}";
}

// ---------------------------------------------------------------------
// Lease table.

TEST(LeaseTable, GrantsPendingShardsInOrderThenNothing) {
  sweep::LeaseTable table({4, 7, 9}, 10.0, 1000.0);
  EXPECT_EQ(table.pendingCount(), 3u);
  const auto a = table.acquire("a", 0.0);
  const auto b = table.acquire("b", 0.0);
  const auto c = table.acquire("a", 0.0);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->shard, 4u);
  EXPECT_EQ(b->shard, 7u);
  EXPECT_EQ(c->shard, 9u);
  EXPECT_EQ(a->generation, 0u);
  EXPECT_FALSE(a->stolen);
  // Nothing pending and stealing is out of reach: nothing to grant.
  EXPECT_FALSE(table.acquire("b", 1.0).has_value());
  EXPECT_EQ(table.activeLeases(), 3u);
}

TEST(LeaseTable, ExpiredLeaseIsReissued) {
  sweep::LeaseTable table({0}, 10.0, 1000.0);
  ASSERT_TRUE(table.acquire("a", 0.0).has_value());
  EXPECT_FALSE(table.acquire("b", 5.0).has_value());  // still live
  const auto regrant = table.acquire("b", 11.0);      // a's lease expired
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->shard, 0u);
  EXPECT_EQ(regrant->generation, 1u);
  EXPECT_FALSE(regrant->stolen);
  EXPECT_EQ(table.reissues(), 1u);
}

TEST(LeaseTable, HeartbeatRenewsTheLease) {
  sweep::LeaseTable table({0}, 10.0, 1000.0);
  ASSERT_TRUE(table.acquire("a", 0.0).has_value());
  table.heartbeat(0, "a", 8.0);  // deadline now 18
  EXPECT_FALSE(table.acquire("b", 15.0).has_value());
  EXPECT_EQ(table.reissues(), 0u);
  // No heartbeat past 18: expired.
  EXPECT_TRUE(table.acquire("b", 19.0).has_value());
  EXPECT_EQ(table.reissues(), 1u);
}

TEST(LeaseTable, StealGrantsASecondLeaseAndFirstCommitWins) {
  sweep::LeaseTable table({0}, 10.0, 2.0);
  ASSERT_TRUE(table.acquire("slow", 0.0).has_value());
  // Too early to steal, and a worker never steals from itself.
  EXPECT_FALSE(table.acquire("fast", 1.0).has_value());
  EXPECT_FALSE(table.acquire("slow", 3.0).has_value());
  const auto stolen = table.acquire("fast", 3.0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->stolen);
  EXPECT_EQ(stolen->generation, 1u);
  EXPECT_EQ(table.steals(), 1u);
  // Two-lease cap: a third worker gets nothing.
  EXPECT_FALSE(table.acquire("third", 4.0).has_value());
  EXPECT_EQ(table.activeLeases(), 2u);
  // First commit wins; the straggler's copy is a counted duplicate.
  EXPECT_TRUE(table.commit(0));
  EXPECT_FALSE(table.commit(0));
  EXPECT_EQ(table.duplicateCommits(), 1u);
  EXPECT_TRUE(table.allCommitted());
}

TEST(LeaseTable, CommitFromAnExpiredLeaseStillCounts) {
  sweep::LeaseTable table({0}, 1.0, 1000.0);
  ASSERT_TRUE(table.acquire("a", 0.0).has_value());
  // a's lease expires during this acquire; the shard is reissued to b.
  const auto regrant = table.acquire("b", 2.0);
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->shard, 0u);
  EXPECT_EQ(regrant->generation, 1u);
  // a finishes anyway: deterministic work, any completed copy is right.
  EXPECT_TRUE(table.commit(0));
  EXPECT_FALSE(table.commit(0));  // b's copy arrives second
  EXPECT_EQ(table.committedCount(), 1u);
  EXPECT_TRUE(table.allCommitted());
}

TEST(LeaseTable, ReleaseWorkerRequeuesItsShards) {
  sweep::LeaseTable table({3, 5}, 10.0, 1000.0);
  ASSERT_TRUE(table.acquire("a", 0.0).has_value());
  ASSERT_TRUE(table.acquire("a", 0.0).has_value());
  EXPECT_EQ(table.pendingCount(), 0u);
  const std::vector<std::size_t> reissued = table.releaseWorker("a");
  EXPECT_EQ(reissued, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(table.pendingCount(), 2u);
  EXPECT_EQ(table.reissues(), 2u);
  // The requeued shards grant again, at a higher generation.
  const auto regrant = table.acquire("b", 1.0);
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->generation, 1u);
}

TEST(LeaseTable, UnknownShardCommitIsADuplicate) {
  sweep::LeaseTable table({0}, 10.0, 1000.0);
  EXPECT_FALSE(table.commit(99));
  EXPECT_EQ(table.duplicateCommits(), 1u);
}

TEST(LeaseTable, EmptyTableIsDrainedFromTheStart) {
  sweep::LeaseTable table({});
  EXPECT_TRUE(table.allCommitted());
  EXPECT_FALSE(table.acquire("a", 0.0).has_value());
}

// ---------------------------------------------------------------------
// Persistent cache.

TEST(PersistentCache, RoundTripsExactBitsAcrossInstances) {
  const std::string dir = freshDir("pcache_roundtrip");
  const double weird = -0x1.fffffffffffffp-3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    sweep::PersistentCache cache(dir);
    EXPECT_FALSE(cache.lookup("emp|n=2|key with spaces").has_value());
    cache.store("emp|n=2|key with spaces", {weird, 12345});
    cache.store("emp|nan-point", {nan, 0});
    EXPECT_EQ(cache.misses(), 1u);
  }
  sweep::PersistentCache reopened(dir);
  EXPECT_EQ(reopened.loadedEntries(), 2u);
  const auto v = reopened.lookup("emp|n=2|key with spaces");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(sweep::bitIdentical(v->radius, weird));
  EXPECT_EQ(v->classifications, 12345u);
  const auto nv = reopened.lookup("emp|nan-point");
  ASSERT_TRUE(nv.has_value());
  EXPECT_TRUE(sweep::bitIdentical(nv->radius, nan));
  EXPECT_EQ(reopened.hits(), 2u);
}

TEST(PersistentCache, TornSegmentLinesAreQuarantinedOnOpen) {
  const std::string dir = freshDir("pcache_torn");
  {
    sweep::PersistentCache seedWriter(dir);  // creates the directory
    seedWriter.store("good-key", {1.5, 3});
  }
  {
    std::ofstream torn(dir + "/seg-zz-torn.seg");
    torn << "fepia-sweep-pcache v2\n"
         << "entry 0x1.8p+0 7 survivor\n"
         << "entry 0x1.8p+0 7\n"        // missing key
         << "entry notadouble 7 key\n"  // bad radius
         << "entry 0x1.8p+0 -1 negcount\n"  // signed count, not a wrap
         << "entry 0x1.8p+0";           // torn tail (crash mid-append)
  }
  {
    std::ofstream headerless(dir + "/seg-zz-headerless.seg");
    headerless << "entry 0x1p+0 1 orphan\n";
  }
  sweep::PersistentCache cache(dir);
  EXPECT_EQ(cache.loadedEntries(), 2u);  // good-key + survivor
  EXPECT_GE(cache.quarantinedLines(), 3u);
  EXPECT_TRUE(cache.lookup("good-key").has_value());
  EXPECT_TRUE(cache.lookup("survivor").has_value());
  EXPECT_FALSE(cache.lookup("orphan").has_value());
  EXPECT_FALSE(cache.lookup("negcount").has_value());
}

TEST(PersistentCache, OlderVersionSegmentIsSkippedWhole) {
  const std::string dir = freshDir("pcache_v1");
  std::filesystem::create_directories(dir);
  {
    std::ofstream old(dir + "/seg-zz-v1.seg");
    old << "fepia-sweep-pcache v1\n"
        << "entry 0x1.8p+0 7 stale\n";
  }
  sweep::PersistentCache cache(dir);
  EXPECT_EQ(cache.loadedEntries(), 0u);
  EXPECT_EQ(cache.quarantinedLines(), 1u);
  EXPECT_FALSE(cache.lookup("stale").has_value());
}

// ---------------------------------------------------------------------
// Coordinator/worker end to end.

TEST(SweepDistributed, SurfaceIsByteIdenticalAtAnyWorkerCount) {
  const sweep::SweepSpec spec = referenceSpec();
  const sweep::SweepSurface serial = sweep::runSweep(spec);
  const std::string want = stripRunMetadata(renderJson(spec, serial));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const DistRun dist = runDistributed(spec, workers);
    expectSameSurface(serial, dist.surface, "distributed vs serial");
    EXPECT_EQ(stripRunMetadata(renderJson(spec, dist.surface)), want)
        << "JSON differs at " << workers << " worker(s)";
    EXPECT_TRUE(dist.surface.complete);
    EXPECT_EQ(dist.stats.commits, serial.shards);
    std::size_t points = 0;
    for (const auto& r : dist.reports) points += r.pointsComputed;
    EXPECT_GE(points, serial.points);  // duplicates may overshoot
  }
}

TEST(SweepDistributed, SpecHashMismatchIsRefused) {
  const sweep::SweepSpec spec = referenceSpec();
  sweep::SweepSpec other = spec;
  other.seed += 1;
  ASSERT_NE(spec.hash(), other.hash());
  server::SweepCoordinator coordinator(spec, {});
  std::string error;
  ASSERT_TRUE(coordinator.start(&error)) << error;
  server::SweepWorkerConfig wc;
  wc.port = coordinator.port();
  wc.name = "mismatched";
  try {
    (void)server::runSweepWorker(other, wc);
    FAIL() << "mismatched worker was not refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec_mismatch"), std::string::npos)
        << e.what();
  }
  // No wait(): the destructor must tear down a never-drained coordinator.
}

TEST(SweepDistributed, WarmPersistentCacheChangesNoByte) {
  const sweep::SweepSpec spec = referenceSpec();
  const std::string dir = freshDir("pcache_dist");
  const sweep::SweepSurface serial = sweep::runSweep(spec);

  const DistRun cold = runDistributed(spec, 2, {}, dir);
  expectSameSurface(serial, cold.surface, "cold persistent cache");
  std::uint64_t coldMisses = 0;
  for (const auto& r : cold.reports) coldMisses += r.persistentMisses;
  EXPECT_GT(coldMisses, 0u);

  const DistRun warm = runDistributed(spec, 2, {}, dir);
  expectSameSurface(serial, warm.surface, "warm persistent cache");
  std::uint64_t warmHits = 0;
  std::uint64_t warmMisses = 0;
  for (const auto& r : warm.reports) {
    warmHits += r.persistentHits;
    warmMisses += r.persistentMisses;
  }
  EXPECT_GT(warmHits, 0u);
  EXPECT_EQ(warmMisses, 0u);
}

TEST(SweepDistributed, OlderVersionCacheIsRecomputed) {
  // A warm cache whose segments carry the previous version header and
  // wrong values: every point must be recomputed, not served stale.
  const sweep::SweepSpec spec = referenceSpec();
  const std::string dir = freshDir("pcache_dist_v1");
  const sweep::SweepSurface serial = sweep::runSweep(spec);
  (void)runDistributed(spec, 2, {}, dir);
  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);
    ASSERT_EQ(line, "fepia-sweep-pcache v2");
    std::string entries;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string tag, radius, cls, key;
      ls >> tag >> radius >> cls;
      std::getline(ls >> std::ws, key);
      entries += "entry 0x1p+0 1 " + key + "\n";
    }
    in.close();
    std::ofstream(entry.path(), std::ios::trunc)
        << "fepia-sweep-pcache v1\n" << entries;
    ++segments;
  }
  ASSERT_GT(segments, 0u);

  const DistRun rerun = runDistributed(spec, 2, {}, dir);
  expectSameSurface(serial, rerun.surface, "older-version cache");
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& r : rerun.reports) {
    hits += r.persistentHits;
    misses += r.persistentMisses;
  }
  EXPECT_EQ(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(SweepDistributed, ResumesAnInProcessJournal) {
  const sweep::SweepSpec spec = referenceSpec();
  const std::string journal = tmpPath("dist_resume.journal");
  std::remove(journal.c_str());

  sweep::SweepOptions stop;
  stop.journalPath = journal;
  stop.stopAfterShards = 2;
  const sweep::SweepSurface partial = sweep::runSweep(spec, stop);
  ASSERT_FALSE(partial.complete);

  server::DistSweepConfig dc;
  dc.journalPath = journal;
  dc.resume = true;
  const DistRun dist = runDistributed(spec, 2, dc);
  EXPECT_EQ(dist.surface.resumedShards, 2u);
  EXPECT_EQ(dist.stats.commits, dist.surface.shards - 2u);
  const sweep::SweepSurface serial = sweep::runSweep(spec);
  expectSameSurface(serial, dist.surface, "resumed distributed vs serial");
  std::remove(journal.c_str());
}

TEST(SweepDistributed, DrainTimeoutAbortsAWorkerlessSweep) {
  server::DistSweepConfig dc;
  dc.drainTimeoutSeconds = 0.4;
  server::SweepCoordinator coordinator(referenceSpec(), dc);
  std::string error;
  ASSERT_TRUE(coordinator.start(&error)) << error;
  EXPECT_THROW((void)coordinator.wait(), std::runtime_error);
}

TEST(SweepDistributed, TeardownIsPromptWhileIdleConnectionsKeepArriving) {
  // The coordinator's teardown (its destructor) shares fepiad's listener:
  // a connection accepted mid-teardown must not park a reader.
  for (int round = 0; round < 100; ++round) {
    auto coordinator = std::make_unique<server::SweepCoordinator>(
        referenceSpec(), server::DistSweepConfig{});
    std::string error;
    ASSERT_TRUE(coordinator->start(&error)) << error;
    const auto took = fepia::testing::stopDuringConnectStorm(
        coordinator->port(), round, [&coordinator] { coordinator.reset(); });
    ASSERT_LT(took, fepia::testing::kStopBound) << "round " << round;
  }
}

TEST(SweepDistributed, ParkedLeaseHearsDrainedAtTheLastCommit) {
  // A lease nothing can grant is held by the coordinator: B stays
  // unanswered while A holds the only shard, and A's commit answers B
  // with "drained" without B asking again.
  const sweep::SweepSpec spec = referenceSpec();
  const auto coordinator = startOneShardCoordinator(spec);
  WireClient a(coordinator->port());
  WireClient b(coordinator->port());
  ASSERT_TRUE(sayHello(a, spec, "a"));
  ASSERT_TRUE(sayHello(b, spec, "b"));
  ASSERT_EQ(stringMember(a.call(kLeaseRequest), "kind"), "lease");

  ASSERT_TRUE(server::writeFrame(b.fd, kLeaseRequest));
  EXPECT_FALSE(answeredWithin(b, kParkedMillis))
      << "a lease was answered while the only shard was still held";
  const server::JsonValue committed = a.call(wholeGridCommit(spec));
  ASSERT_NE(committed.find("committed"), nullptr);
  EXPECT_TRUE(committed.find("committed")->boolean);

  const server::Frame reply =
      server::readFrame(b.fd, server::kDefaultMaxFrameBytes);
  ASSERT_EQ(reply.status, server::FrameStatus::Ok);
  EXPECT_EQ(stringMember(server::parseJson(reply.payload).value(), "kind"),
            "drained");
}

TEST(SweepDistributed, ParkedLeaseTakesAReleasedShard) {
  // A disconnects holding the only shard: the release requeues it, and
  // B's held lease is answered with it at generation 1.
  const sweep::SweepSpec spec = referenceSpec();
  const auto coordinator = startOneShardCoordinator(spec);
  auto a = std::make_unique<WireClient>(coordinator->port());
  WireClient b(coordinator->port());
  ASSERT_TRUE(sayHello(*a, spec, "a"));
  ASSERT_TRUE(sayHello(b, spec, "b"));
  ASSERT_EQ(stringMember(a->call(kLeaseRequest), "kind"), "lease");

  ASSERT_TRUE(server::writeFrame(b.fd, kLeaseRequest));
  EXPECT_FALSE(answeredWithin(b, kParkedMillis))
      << "a lease was answered while the only shard was still held";
  a.reset();

  const server::Frame frame =
      server::readFrame(b.fd, server::kDefaultMaxFrameBytes);
  ASSERT_EQ(frame.status, server::FrameStatus::Ok);
  const server::JsonValue reply = server::parseJson(frame.payload).value();
  ASSERT_EQ(stringMember(reply, "kind"), "lease");
  ASSERT_NE(reply.find("shard"), nullptr);
  ASSERT_NE(reply.find("generation"), nullptr);
  EXPECT_EQ(reply.find("shard")->number, 0.0);
  EXPECT_EQ(reply.find("generation")->number, 1.0);
}

TEST(SweepDistributed, TeardownWakesAParkedLease) {
  // Destroying a coordinator that never drained must not wait on a
  // reader holding a lease request. The held request is dropped
  // unanswered, even though tearing down A's connection frees the
  // shard, and B's connection closes.
  const sweep::SweepSpec spec = referenceSpec();
  auto coordinator = startOneShardCoordinator(spec);
  WireClient a(coordinator->port());
  WireClient b(coordinator->port());
  ASSERT_TRUE(sayHello(a, spec, "a"));
  ASSERT_TRUE(sayHello(b, spec, "b"));
  ASSERT_EQ(stringMember(a.call(kLeaseRequest), "kind"), "lease");
  ASSERT_TRUE(server::writeFrame(b.fd, kLeaseRequest));
  ASSERT_FALSE(answeredWithin(b, kParkedMillis));

  const auto begin = std::chrono::steady_clock::now();
  coordinator.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(2));
  EXPECT_NE(server::readFrame(b.fd, server::kDefaultMaxFrameBytes).status,
            server::FrameStatus::Ok);
}

TEST(SweepDistributed, HostileNumericFieldsGetBadRequest) {
  // A shard no integer type holds (negative, 1e999, past the grid) is a
  // typed bad_request with the request's id echoed, never an undefined
  // float-to-integer cast, and the connection keeps answering.
  const sweep::SweepSpec spec = referenceSpec();
  server::SweepCoordinator coordinator(spec, {});
  std::string error;
  ASSERT_TRUE(coordinator.start(&error)) << error;
  WireClient client(coordinator.port());
  ASSERT_GE(client.fd, 0);
  const server::JsonValue welcome = client.call(
      "{\"id\":0,\"kind\":\"hello\",\"spec_hash\":\"" +
      sweep::formatSpecHash(spec.hash()) + "\",\"points\":" +
      std::to_string(spec.pointCount()) + ",\"worker\":\"hostile\"}");
  ASSERT_NE(welcome.find("ok"), nullptr);
  ASSERT_TRUE(welcome.find("ok")->boolean);
  const server::JsonValue* welcomeId = welcome.find("id");
  EXPECT_TRUE(welcomeId != nullptr && welcomeId->number == 0.0);

  ASSERT_NE(welcome.find("shards"), nullptr);
  const std::string pastTheGrid =
      std::to_string(static_cast<long>(welcome.find("shards")->number));

  const std::string hostile[] = {
      R"({"id":1,"kind":"commit","worker":"hostile","shard":-1,"results":[]})",
      R"({"id":2,"kind":"commit","worker":"hostile","shard":1e999,"results":[]})",
      R"({"id":3,"kind":"commit","worker":"hostile","shard":)" + pastTheGrid +
          R"(,"results":[]})",
      R"({"id":4,"kind":"commit","worker":"hostile","shard":"0","results":[]})",
      R"({"id":5,"kind":"heartbeat","worker":"hostile","shard":1e999})",
      R"({"id":6,"kind":"heartbeat","worker":"hostile","shard":-1})",
      R"({"id":7,"kind":"heartbeat","worker":"hostile","shard":-1e999})",
      R"({"id":8,"kind":"heartbeat","worker":"hostile","shard":)" +
          pastTheGrid + "}",
  };
  double id = 1.0;
  for (const std::string& request : hostile) {
    const server::JsonValue reply = client.call(request);
    ASSERT_NE(reply.find("ok"), nullptr) << request;
    EXPECT_FALSE(reply.find("ok")->boolean) << request;
    EXPECT_EQ(errorCode(reply), "bad_request") << request;
    const server::JsonValue* echoed = reply.find("id");
    EXPECT_TRUE(echoed != nullptr && echoed->number == id) << request;
    id += 1.0;
  }
  const server::JsonValue lease =
      client.call(R"({"id":"after","kind":"lease"})");
  ASSERT_NE(lease.find("ok"), nullptr);
  EXPECT_TRUE(lease.find("ok")->boolean);
  const server::JsonValue* echoed = lease.find("id");
  EXPECT_TRUE(echoed != nullptr && echoed->string == "after");
}

TEST(SweepDistributed, WorkerRefusesHostileReplyNumbers) {
  // The worker reads every number a coordinator sends through the same
  // checked conversion: a lease whose range leaves the grid, or a
  // duration no integer holds, makes runSweepWorker throw naming the
  // field. A "wait" reply (no longer part of the protocol: the
  // coordinator holds a lease it cannot grant yet) is refused by kind.
  const sweep::SweepSpec spec = referenceSpec();
  const struct {
    const char* welcome;
    const char* lease;
    const char* expect;  ///< what the worker's error must say
  } cases[] = {
      {R"("lease_ms":1e999)", R"("kind":"drained")", R"("lease_ms")"},
      {R"("lease_ms":-5)", R"("kind":"drained")", R"("lease_ms")"},
      {R"("lease_ms":1000)",
       R"("kind":"lease","shard":1e999,"first":0,"count":2,"generation":0)",
       R"("shard")"},
      {R"("lease_ms":1000)",
       R"("kind":"lease","shard":0,"first":-2,"count":2,"generation":0)",
       R"("first")"},
      {R"("lease_ms":1000)",
       R"("kind":"lease","shard":0,"first":6,"count":1e19,"generation":0)",
       R"("count")"},
      {R"("lease_ms":1000)",
       R"("kind":"lease","shard":0,"first":0,"count":2,"generation":-1)",
       R"("generation")"},
      {R"("lease_ms":1000)", R"("kind":"wait","retry_ms":100)",
       "unexpected lease reply kind 'wait'"},
  };
  for (const auto& c : cases) {
    // A stand-in coordinator that answers hello and the first lease with
    // the case's members, and every later lease with "drained".
    server::Listener fake([&c](const std::shared_ptr<server::Connection>& conn) {
      bool leased = false;
      for (;;) {
        const server::Frame frame =
            server::readFrame(conn->fd, server::kDefaultMaxFrameBytes);
        if (frame.status != server::FrameStatus::Ok) return;
        const std::optional<server::JsonValue> req =
            server::parseJson(frame.payload);
        const server::JsonValue* kind =
            req.has_value() ? req->find("kind") : nullptr;
        const std::string name = kind != nullptr ? kind->string : "";
        std::string members;
        if (name == "hello") {
          members = c.welcome;
        } else if (name == "lease") {
          members = leased ? R"("kind":"drained")" : c.lease;
          leased = true;
        }
        (void)conn->write("{\"ok\":true" +
                          (members.empty() ? "" : "," + members) + "}");
      }
    });
    std::string error;
    ASSERT_TRUE(fake.start("127.0.0.1", 0, &error)) << error;
    server::SweepWorkerConfig wc;
    wc.port = fake.port();
    wc.name = "victim";
    try {
      (void)server::runSweepWorker(spec, wc);
      ADD_FAILURE() << "worker accepted " << c.welcome << " / " << c.lease;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << e.what();
    }
    fake.stop();
  }
}

TEST(SweepDistributed, OversizedCommitIsRefusedNotSwallowed) {
  // A commit frame over the coordinator's cap is answered bad_frame
  // before the connection closes, and the worker fails loudly naming
  // it instead of taking the close for a drained sweep.
  server::DistSweepConfig dc;
  dc.maxFrameBytes = 200;  // a hello or lease fits; a commit does not
  server::SweepCoordinator coordinator(referenceSpec(), dc);
  std::string error;
  ASSERT_TRUE(coordinator.start(&error)) << error;
  server::SweepWorkerConfig wc;
  wc.port = coordinator.port();
  wc.name = "oversized";
  try {
    (void)server::runSweepWorker(referenceSpec(), wc);
    FAIL() << "the worker took an unread commit for a drained sweep";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_frame"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(coordinator.stats().commits, 0u);
}

}  // namespace

#include "server/dist_sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/parse.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "server/listener.hpp"
#include "sweep/cache.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease.hpp"
#include "sweep/pcache.hpp"

namespace fepia::server {
namespace {

/// How often a held lease request re-runs the lease table when nothing
/// wakes it: lease expiry and straggler steals come due with time, and
/// no event announces them.
constexpr auto kLeaseRecheckPeriod = std::chrono::milliseconds(100);
/// A worker's connect retries, 100 ms apart: the coordinator may still
/// be binding when the worker launches.
constexpr int kConnectAttempts = 50;
/// The longest lease a worker accepts from a coordinator: far beyond
/// any sweep's, and far from overflowing the chrono arithmetic the
/// worker's heartbeats do with it.
constexpr std::uint64_t kMaxWireMillis = 24ull * 3600 * 1000;
/// After the last shard commits, how long the coordinator keeps serving
/// so connected workers can hear "drained" and leave cleanly.
constexpr double kDrainGraceSeconds = 10.0;

/// One commit row: [id, analytic, closed, empirical, degraded, makespan,
/// classifications], doubles in the journal's exact hexfloat form and
/// counts as decimal strings (a JSON number is a double and could round
/// a large classification count).
void writePointRow(obs::JsonWriter& w, std::size_t id,
                   const sweep::PointResult& r) {
  w.array(obs::JsonLayout::Compact).str(std::to_string(id));
  for (const double x :
       {r.analyticRho, r.closedForm, r.empirical, r.degraded, r.makespan}) {
    w.str(sweep::formatJournalDouble(x));
  }
  w.str(std::to_string(r.classifications)).end();
}

bool decodePointRow(const JsonValue& row, std::size_t expectId,
                    sweep::PointResult& out) {
  if (row.kind != JsonValue::Kind::Array || row.array.size() != 7) {
    return false;
  }
  for (const JsonValue& cell : row.array) {
    if (!cell.isString()) return false;
  }
  const std::optional<std::uint64_t> id = io::parseUint64(row.array[0].string);
  if (!id.has_value() || *id != expectId) return false;
  if (!sweep::parseJournalDouble(row.array[1].string, out.analyticRho) ||
      !sweep::parseJournalDouble(row.array[2].string, out.closedForm) ||
      !sweep::parseJournalDouble(row.array[3].string, out.empirical) ||
      !sweep::parseJournalDouble(row.array[4].string, out.degraded) ||
      !sweep::parseJournalDouble(row.array[5].string, out.makespan)) {
    return false;
  }
  const std::optional<std::uint64_t> cls = io::parseUint64(row.array[6].string);
  if (!cls.has_value()) return false;
  out.classifications = *cls;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------
// Coordinator.

struct SweepCoordinator::Impl {
  sweep::SweepSpec spec;
  DistSweepConfig cfg;
  obs::Stopwatch clock;  ///< the `now` source the lease table sees

  std::string specHashHex;

  // All mutable sweep state — lease table, result slots, journal —
  // under one mutex. Commits are tiny next to shard compute times. The
  // ledger's geometry (points, chunk, shards) is fixed after start().
  std::mutex mutex;
  std::condition_variable cv;
  std::unique_ptr<sweep::LeaseTable> lease;
  std::optional<sweep::ShardLedger> ledger;
  double lastProgressAt = 0.0;  ///< last commit or worker arrival
  bool stopping = false;        ///< set by teardown; held leases leave

  // What the telemetry sampler reads. A separate, leaf-level mutex:
  // the sampler takes only this one, and no thread holding it ever
  // emits into the hub — so hub-internal locks cannot invert with it.
  // Taken inside `mutex` where both are held, never the other way.
  mutable std::mutex statsMutex;
  std::set<std::string> workersSeen;
  std::map<std::string, std::uint64_t> workerCommits;
  /// Changed under `mutex` too, so wait()'s drain can sleep on `cv`.
  std::size_t liveWorkers = 0;
  std::uint64_t commits = 0;
  std::uint64_t duplicateCommits = 0;
  std::uint64_t reissues = 0;
  std::uint64_t steals = 0;
  std::uint64_t pointsDone = 0;

  std::optional<obs::SourceGuard> telemetrySource;

  void logLine(const std::string& line) {
    if (cfg.log == nullptr) return;
    const std::lock_guard<std::mutex> lock(logMutex);
    *cfg.log << line << '\n';
    cfg.log->flush();
  }
  std::mutex logMutex;

  void mirrorLeaseCounters() {  // caller holds `mutex`
    const std::lock_guard<std::mutex> lock(statsMutex);
    reissues = lease->reissues();
    steals = lease->steals();
    duplicateCommits = lease->duplicateCommits();
  }

  // Each handler answers its request on `conn`; `helloName` is the
  // connection's worker name, empty until its hello.
  void handleHello(Connection& conn, const WireRequest& req,
                   std::string& helloName);
  void handleLease(Connection& conn, const WireRequest& req,
                   const std::string& helloName);
  void handleCommit(Connection& conn, const WireRequest& req,
                    const std::string& helloName);
  void handleHeartbeat(Connection& conn, const WireRequest& req);
  void handle(Connection& conn, const WireRequest& req,
              std::string& helloName);
  /// The per-connection frame loop the listener runs on each reader.
  void readerLoop(const std::shared_ptr<Connection>& conn);
  void teardown();

  // Last: its readers use every member above.
  Listener listener{
      [this](const std::shared_ptr<Connection>& conn) { readerLoop(conn); }};
};

void SweepCoordinator::Impl::handleHello(Connection& conn,
                                         const WireRequest& req,
                                         std::string& helloName) {
  const JsonValue* hash = req.doc.find("spec_hash");
  const JsonValue* pts = req.doc.find("points");
  const JsonValue* worker = req.doc.find("worker");
  if (hash == nullptr || !hash->isString() || pts == nullptr ||
      !pts->isNumber() || worker == nullptr || !worker->isString() ||
      worker->string.empty()) {
    return writeError(conn, req.id, "bad_request",
                      "hello needs spec_hash, points, worker");
  }
  const sweep::SweepSurface& geometry = ledger->surface();
  if (hash->string != specHashHex ||
      pts->number != static_cast<double>(geometry.points)) {
    logLine("coordinator: refused worker '" + worker->string +
            "': spec mismatch (got " + hash->string + ", want " + specHashHex +
            ")");
    return writeError(conn, req.id, "spec_mismatch",
                      "worker spec hash " + hash->string + " / " +
                          "coordinator " + specHashHex +
                          " — refusing to lease against a different sweep");
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    lastProgressAt = clock.elapsedSeconds();
    const std::lock_guard<std::mutex> stats(statsMutex);
    workersSeen.insert(worker->string);
    if (helloName.empty()) ++liveWorkers;
  }
  helloName = worker->string;
  logLine("coordinator: worker '" + helloName + "' connected");
  writeOk(conn, req.id,
          obs::JsonFields()
              .str("kind", "welcome")
              .num("lease_ms", cfg.leaseSeconds * 1000.0)
              .count("points", geometry.points)
              .count("chunk", geometry.chunk)
              .count("shards", geometry.shards));
}

void SweepCoordinator::Impl::handleLease(Connection& conn,
                                         const WireRequest& req,
                                         const std::string& helloName) {
  if (helloName.empty()) {
    return writeError(conn, req.id, "bad_request", "lease before hello");
  }
  // A request nothing can grant yet is held here, on the connection's
  // own reader, until a shard is grantable (a commit, a release, an
  // expiry or a steal) or the sweep drains. Commits and releases wake
  // it at once; the re-check period catches expiries and steals.
  std::optional<sweep::LeaseTable::Grant> grant;
  {
    std::unique_lock<std::mutex> lk(mutex);
    for (;;) {
      // Torn down: grant nothing (not even a shard a closing peer just
      // released) and leave unanswered; the worker hears the close.
      if (stopping) return;
      grant = lease->acquire(helloName, clock.elapsedSeconds());
      mirrorLeaseCounters();
      if (grant.has_value() || lease->allCommitted()) break;
      cv.wait_for(lk, kLeaseRecheckPeriod);
    }
  }
  if (!grant.has_value()) {
    writeOk(conn, req.id, obs::JsonFields().str("kind", "drained"));
    return;
  }
  const std::size_t s = grant->shard;
  std::string line = "coordinator: leased shard " + std::to_string(s) +
                     " to '" + helloName + "'";
  if (grant->stolen) {
    line += " (stolen from straggler, generation " +
            std::to_string(grant->generation) + ")";
  } else if (grant->generation > 0) {
    line += " (reissue, generation " + std::to_string(grant->generation) + ")";
  }
  logLine(line);
  if (cfg.telemetry != nullptr && (grant->stolen || grant->generation > 0)) {
    cfg.telemetry->emit(
        "warning",
        obs::JsonFields()
            .str("kind", grant->stolen ? "straggler" : "lease-reissue")
            .count("shard", s)
            .count("generation", grant->generation)
            .str("worker", helloName));
  }
  writeOk(conn, req.id,
          obs::JsonFields()
              .str("kind", "lease")
              .count("shard", s)
              .count("first", ledger->first(s))
              .count("count", ledger->count(s))
              .count("generation", grant->generation)
              .boolean("stolen", grant->stolen));
}

void SweepCoordinator::Impl::handleCommit(Connection& conn,
                                          const WireRequest& req,
                                          const std::string& helloName) {
  if (helloName.empty()) {
    return writeError(conn, req.id, "bad_request", "commit before hello");
  }
  const std::size_t shards = ledger->surface().shards;
  const std::optional<std::uint64_t> shard =
      toCount(req.doc.find("shard"), shards - 1);
  const JsonValue* rows = req.doc.find("results");
  if (!shard.has_value() || rows == nullptr ||
      rows->kind != JsonValue::Kind::Array) {
    return writeError(conn, req.id, "bad_request",
                      "commit needs a shard below " + std::to_string(shards) +
                          " and a results array");
  }
  const std::size_t s = *shard;
  const std::size_t first = ledger->first(s);
  const std::size_t count = ledger->count(s);
  if (rows->array.size() != count) {
    return writeError(conn, req.id, "bad_request",
                      "shard " + std::to_string(s) + " expects " +
                          std::to_string(count) + " points, got " +
                          std::to_string(rows->array.size()));
  }
  // Decode off-lock; only the accept itself serializes.
  std::vector<sweep::PointResult> decoded(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!decodePointRow(rows->array[i], first + i, decoded[i])) {
      return writeError(conn, req.id, "bad_request",
                        "malformed result row in shard " + std::to_string(s));
    }
  }
  bool fresh = false;
  std::uint64_t done = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    fresh = lease->commit(s);
    if (fresh) {
      ledger->commit(s, decoded.data());
      lastProgressAt = clock.elapsedSeconds();
      cv.notify_all();
    }
    mirrorLeaseCounters();
  }
  if (fresh) {
    {
      const std::lock_guard<std::mutex> lock(statsMutex);
      ++commits;
      pointsDone += count;
      ++workerCommits[helloName];
      done = pointsDone;
    }
    logLine("coordinator: shard " + std::to_string(s) + " committed by '" +
            helloName + "' (" + std::to_string(done) + "/" +
            std::to_string(ledger->pendingPoints()) + " points)");
    if (cfg.telemetry != nullptr) {
      const double elapsed = clock.elapsedSeconds();
      const double rate =
          elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
      cfg.telemetry->emit("heartbeat", obs::JsonFields()
                                           .count("shard", s)
                                           .count("points_done", done)
                                           .count("points_total",
                                                  ledger->pendingPoints())
                                           .num("points_per_sec", rate)
                                           .str("worker", helloName));
    }
  } else {
    logLine("coordinator: duplicate commit of shard " + std::to_string(s) +
            " from '" + helloName + "' (discarded)");
  }
  writeOk(conn, req.id, obs::JsonFields().boolean("committed", fresh));
}

void SweepCoordinator::Impl::handleHeartbeat(Connection& conn,
                                             const WireRequest& req) {
  const JsonValue* worker = req.doc.find("worker");
  const std::size_t shards = ledger->surface().shards;
  const std::optional<std::uint64_t> shard =
      toCount(req.doc.find("shard"), shards - 1);
  if (worker == nullptr || !worker->isString() || !shard.has_value()) {
    return writeError(conn, req.id, "bad_request",
                      "heartbeat needs worker and a shard below " +
                          std::to_string(shards));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    lease->heartbeat(*shard, worker->string, clock.elapsedSeconds());
  }
  writeOk(conn, req.id, obs::JsonFields());
}

void SweepCoordinator::Impl::handle(Connection& conn, const WireRequest& req,
                                    std::string& helloName) {
  if (req.kind == "hello") {
    handleHello(conn, req, helloName);
  } else if (req.kind == "lease") {
    handleLease(conn, req, helloName);
  } else if (req.kind == "commit") {
    handleCommit(conn, req, helloName);
  } else if (req.kind == "heartbeat") {
    handleHeartbeat(conn, req);
  } else if (req.kind == "done") {
    logLine("coordinator: worker '" +
            (helloName.empty() ? std::string("?") : helloName) + "' done");
    writeOk(conn, req.id, obs::JsonFields());
  } else {
    writeError(conn, req.id, "bad_request", "unknown kind '" + req.kind + "'");
  }
}

void SweepCoordinator::Impl::readerLoop(
    const std::shared_ptr<Connection>& conn) {
  std::string helloName;
  WireRequest req;
  for (;;) {
    const ReadStatus status = readRequest(*conn, cfg.maxFrameBytes, req);
    if (status == ReadStatus::Closed) break;
    if (status == ReadStatus::Request) handle(*conn, req, helloName);
  }
  if (!helloName.empty()) {
    std::vector<std::size_t> reissued;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      reissued = lease->releaseWorker(helloName);
      mirrorLeaseCounters();
      {
        const std::lock_guard<std::mutex> stats(statsMutex);
        if (liveWorkers > 0) --liveWorkers;
      }
      // Under `mutex`: wait()'s drain and held leases cannot miss it.
      cv.notify_all();
    }
    std::string line = "coordinator: worker '" + helloName + "' disconnected";
    if (!reissued.empty()) {
      line += "; reissued shard(s)";
      for (const std::size_t s : reissued) {
        line += ' ';
        line += std::to_string(s);
      }
    }
    logLine(line);
    if (cfg.telemetry != nullptr && !reissued.empty()) {
      cfg.telemetry->emit("warning", obs::JsonFields()
                                         .str("kind", "lease-reissue")
                                         .str("worker", helloName)
                                         .count("shards", reissued.size()));
    }
  }
}

void SweepCoordinator::Impl::teardown() {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    stopping = true;
    cv.notify_all();
  }
  listener.stop();
  telemetrySource.reset();
}

SweepCoordinator::SweepCoordinator(sweep::SweepSpec spec, DistSweepConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = std::move(spec);
  impl_->cfg = std::move(cfg);
}

SweepCoordinator::~SweepCoordinator() {
  if (impl_ != nullptr) impl_->teardown();
}

bool SweepCoordinator::start(std::string* error) {
  Impl& im = *impl_;
  const sweep::ShardLedger& ledger = im.ledger.emplace(
      im.spec, im.cfg.chunkOverride, im.cfg.journalPath, im.cfg.resume);
  im.specHashHex = sweep::formatSpecHash(im.spec.hash());
  // Steals start once the oldest lease is leaseSeconds / 2 old (the
  // LeaseTable default).
  im.lease = std::make_unique<sweep::LeaseTable>(ledger.pending(),
                                                 im.cfg.leaseSeconds);

  im.lastProgressAt = im.clock.elapsedSeconds();
  if (!im.listener.start(im.cfg.bindAddress, im.cfg.port, error)) {
    return false;
  }
  port_ = im.listener.port();
  Impl* imp = impl_.get();
  im.telemetrySource.emplace(im.cfg.telemetry, [imp](obs::Registry& reg) {
    const std::lock_guard<std::mutex> lock(imp->statsMutex);
    reg.setGauge("sweep.dist_live_workers",
                 static_cast<double>(imp->liveWorkers));
    reg.setGauge("sweep.dist_points_done",
                 static_cast<double>(imp->pointsDone));
    reg.setGauge("sweep.dist_points_total",
                 static_cast<double>(imp->ledger->pendingPoints()));
    reg.setGauge("sweep.dist_shards_committed",
                 static_cast<double>(imp->commits));
    reg.setGauge("sweep.dist_reissues", static_cast<double>(imp->reissues));
    reg.setGauge("sweep.dist_steals", static_cast<double>(imp->steals));
    reg.setGauge("sweep.dist_duplicate_commits",
                 static_cast<double>(imp->duplicateCommits));
    for (const auto& [name, count] : imp->workerCommits) {
      reg.setGauge("sweep.dist_worker_commits." + name,
                   static_cast<double>(count));
    }
  });

  const sweep::SweepSurface& geometry = ledger.surface();
  im.logLine("coordinator: serving " +
             std::to_string(ledger.pending().size()) + " shard(s) of " +
             std::to_string(geometry.shards) + " (" +
             std::to_string(geometry.points) + " points, chunk " +
             std::to_string(geometry.chunk) + ")");
  return true;
}

sweep::SweepSurface SweepCoordinator::wait() {
  Impl& im = *impl_;
  {
    std::unique_lock<std::mutex> lk(im.mutex);
    while (!im.lease->allCommitted()) {
      im.cv.wait_for(lk, std::chrono::milliseconds(250));
      if (im.cfg.drainTimeoutSeconds > 0.0 && !im.lease->allCommitted()) {
        const double now = im.clock.elapsedSeconds();
        if (now - im.lastProgressAt > im.cfg.drainTimeoutSeconds) {
          const std::size_t committed = im.lease->committedCount();
          const std::size_t total = im.ledger->pending().size();
          lk.unlock();
          im.teardown();
          throw std::runtime_error(
              "sweep coordinator: no progress for " +
              std::to_string(im.cfg.drainTimeoutSeconds) + "s with " +
              std::to_string(total - committed) + " shard(s) outstanding");
        }
      }
    }
    // Grace period: keep serving so connected workers can hear
    // "drained" and disconnect on their own before we pull the sockets
    // out. Each disconnect notifies `cv` under `mutex`.
    (void)im.cv.wait_for(lk, std::chrono::duration<double>(kDrainGraceSeconds),
                         [&im] {
                           const std::lock_guard<std::mutex> lock(
                               im.statsMutex);
                           return im.liveWorkers == 0;
                         });
  }
  im.teardown();

  sweep::SweepSurface surface = im.ledger->finish(im.clock.elapsedSeconds());

  const Stats st = stats();
  im.logLine("coordinator: drained; " + std::to_string(st.commits) +
             " commit(s) from " + std::to_string(st.workersSeen) +
             " worker(s), " + std::to_string(st.duplicateCommits) +
             " duplicate(s), " + std::to_string(st.reissues) +
             " reissue(s), " + std::to_string(st.steals) + " steal(s)");
  if (im.cfg.metrics != nullptr) {
    obs::Registry& reg = *im.cfg.metrics;
    reg.counters().bump("sweep.dist_shards_committed", st.commits);
    reg.counters().bump("sweep.dist_duplicate_commits", st.duplicateCommits);
    reg.counters().bump("sweep.dist_reissues", st.reissues);
    reg.counters().bump("sweep.dist_steals", st.steals);
    reg.counters().bump("sweep.dist_workers", st.workersSeen);
    reg.setGauge("sweep.points_per_sec", surface.pointsPerSec);
  }
  return surface;
}

SweepCoordinator::Stats SweepCoordinator::stats() const {
  const Impl& im = *impl_;
  const std::lock_guard<std::mutex> lock(im.statsMutex);
  Stats st;
  st.workersSeen = im.workersSeen.size();
  st.commits = im.commits;
  st.duplicateCommits = im.duplicateCommits;
  st.reissues = im.reissues;
  st.steals = im.steals;
  return st;
}

// ---------------------------------------------------------------------
// Worker.

namespace {

/// One request/reply round trip. Returns nullopt on a lost connection
/// (the caller decides whether that is fatal); throws on a coordinator
/// refusal ({"ok": false}).
std::optional<JsonValue> rpc(int fd, const std::string& request,
                             std::size_t maxBytes) {
  if (!writeFrame(fd, request)) return std::nullopt;
  const Frame frame = readFrame(fd, maxBytes);
  if (frame.status != FrameStatus::Ok) return std::nullopt;
  std::string parseError;
  std::optional<JsonValue> reply = parseJson(frame.payload, &parseError);
  if (!reply.has_value()) {
    throw std::runtime_error("sweep worker: unparseable reply: " + parseError);
  }
  const JsonValue* ok = reply->find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::Bool || !ok->boolean) {
    std::string code = "unknown";
    std::string message;
    if (const JsonValue* err = reply->find("error")) {
      if (const JsonValue* c = err->find("code")) code = c->string;
      if (const JsonValue* m = err->find("message")) message = m->string;
    }
    throw std::runtime_error("sweep worker: coordinator refused (" + code +
                             "): " + message);
  }
  return reply;
}

/// A numeric member of a coordinator reply, through the one checked
/// conversion: missing, negative, non-finite or above `max` makes the
/// reply malformed.
std::uint64_t replyCount(const JsonValue& reply, const char* key,
                         std::uint64_t max) {
  const std::optional<std::uint64_t> v = toCount(reply.find(key), max);
  if (!v.has_value()) {
    throw std::runtime_error(
        std::string("sweep worker: malformed coordinator reply: \"") + key +
        "\" must be a count no larger than " + std::to_string(max));
  }
  return *v;
}

/// Background lease renewal on its own connection, so heartbeats never
/// interleave with the compute connection's request/reply frames.
class HeartbeatThread {
 public:
  HeartbeatThread(const SweepWorkerConfig& cfg, const std::string& worker,
                  std::uint64_t leaseMs)
      : cfg_(cfg), worker_(worker) {
    intervalMs_ = std::max<std::uint64_t>(50, leaseMs / 3);
    fd_ = connectHost(cfg.host, cfg.port);
    if (fd_ >= 0) thread_ = std::thread([this] { loop(); });
  }
  ~HeartbeatThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  /// The shard whose lease to renew; -1 between leases.
  void setShard(long shard) {
    current_.store(shard, std::memory_order_relaxed);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mutex_);
    while (!stop_) {
      cv_.wait_for(lk, std::chrono::milliseconds(intervalMs_));
      if (stop_) break;
      const long shard = current_.load(std::memory_order_relaxed);
      if (shard < 0) continue;
      lk.unlock();
      const std::string beat = obs::JsonFields()
                                   .str("kind", "heartbeat")
                                   .str("worker", worker_)
                                   .count("shard",
                                          static_cast<std::uint64_t>(shard))
                                   .object();
      bool alive = writeFrame(fd_, beat);
      if (alive) {
        alive = readFrame(fd_, cfg_.maxFrameBytes).status == FrameStatus::Ok;
      }
      lk.lock();
      if (!alive) break;  // coordinator gone; expiry takes over
    }
  }

  const SweepWorkerConfig& cfg_;
  std::string worker_;
  std::uint64_t intervalMs_ = 3000;
  int fd_ = -1;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<long> current_{-1};
};

}  // namespace

SweepWorkerReport runSweepWorker(const sweep::SweepSpec& spec,
                                 const SweepWorkerConfig& cfg) {
  const std::string name =
      cfg.name.empty() ? "worker-" + std::to_string(::getpid()) : cfg.name;
  obs::Stopwatch wall;
  const auto logLine = [&cfg](const std::string& line) {
    if (cfg.log == nullptr) return;
    *cfg.log << line << '\n';
    cfg.log->flush();
  };

  int fd = -1;
  for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
    fd = connectHost(cfg.host, cfg.port);
    if (fd >= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (fd < 0) {
    throw std::runtime_error("sweep worker: cannot connect to " + cfg.host +
                             ":" + std::to_string(cfg.port));
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } fdGuard{fd};

  const std::size_t points = spec.pointCount();
  const std::optional<JsonValue> welcome =
      rpc(fd,
          obs::JsonFields()
              .str("kind", "hello")
              .str("spec_hash", sweep::formatSpecHash(spec.hash()))
              .count("points", points)
              .str("worker", name)
              .object(),
          cfg.maxFrameBytes);
  if (!welcome.has_value()) {
    throw std::runtime_error(
        "sweep worker: connection lost during handshake");
  }
  const std::uint64_t leaseMs =
      replyCount(*welcome, "lease_ms", kMaxWireMillis);
  logLine("worker '" + name + "': connected to " + cfg.host + ":" +
          std::to_string(cfg.port) + " (lease " + std::to_string(leaseMs) +
          " ms)");

  sweep::ResultCache cache(cfg.cacheEnabled);
  std::unique_ptr<sweep::PersistentCache> persistent;
  if (!cfg.cacheDir.empty() && cfg.cacheEnabled) {
    persistent = std::make_unique<sweep::PersistentCache>(cfg.cacheDir);
  }

  // Live gauges for the worker process's own telemetry hub.
  std::atomic<std::uint64_t> pointsDoneA{0};
  std::atomic<std::uint64_t> shardsDoneA{0};
  const obs::SourceGuard sourceGuard(
      cfg.telemetry,
      [&pointsDoneA, &shardsDoneA, pc = persistent.get()](obs::Registry& reg) {
        reg.setGauge("sweep.worker_points_computed",
                     static_cast<double>(
                         pointsDoneA.load(std::memory_order_relaxed)));
        reg.setGauge("sweep.worker_shards_computed",
                     static_cast<double>(
                         shardsDoneA.load(std::memory_order_relaxed)));
        if (pc != nullptr) {
          reg.setGauge("sweep.live_persistent_hits",
                       static_cast<double>(pc->hits()));
          reg.setGauge("sweep.live_persistent_misses",
                       static_cast<double>(pc->misses()));
        }
      });

  HeartbeatThread heartbeat(cfg, name, leaseMs);

  SweepWorkerReport report;
  std::vector<sweep::PointResult> buffer;
  bool lostConnection = false;
  const std::string leaseRequest =
      obs::JsonFields().str("kind", "lease").str("worker", name).object();
  for (;;) {
    const std::optional<JsonValue> reply =
        rpc(fd, leaseRequest, cfg.maxFrameBytes);
    if (!reply.has_value()) {
      lostConnection = true;
      break;
    }
    const JsonValue* kind = reply->find("kind");
    if (kind == nullptr || !kind->isString()) {
      throw std::runtime_error("sweep worker: lease reply without kind");
    }
    if (kind->string == "drained") break;
    if (kind->string != "lease") {
      throw std::runtime_error("sweep worker: unexpected lease reply kind '" +
                               kind->string + "'");
    }
    // A shard never outnumbers the points, and its range lies in the grid.
    const std::size_t shard = replyCount(*reply, "shard", points);
    const std::size_t first = replyCount(*reply, "first", points);
    const std::size_t count = replyCount(*reply, "count", points - first);
    const std::uint64_t generation = replyCount(
        *reply, "generation", std::numeric_limits<std::uint64_t>::max());
    logLine("worker '" + name + "': leased shard " + std::to_string(shard) +
            " (" + std::to_string(count) + " points, generation " +
            std::to_string(generation) + ")");

    heartbeat.setShard(static_cast<long>(shard));
    buffer.assign(count, sweep::PointResult{});
    sweep::evaluatePointRange(spec, cache, persistent.get(),
                              cfg.backendOverride, first, count,
                              buffer.data());
    heartbeat.setShard(-1);
    ++report.shardsComputed;
    report.pointsComputed += count;
    shardsDoneA.fetch_add(1, std::memory_order_relaxed);
    pointsDoneA.fetch_add(count, std::memory_order_relaxed);

    std::ostringstream commit;
    obs::JsonWriter w(commit);
    w.object(obs::JsonLayout::Compact).str("kind", "commit");
    w.str("worker", name).count("shard", shard);
    w.array("results", obs::JsonLayout::Compact);
    for (std::size_t i = 0; i < count; ++i) {
      writePointRow(w, first + i, buffer[i]);
    }
    w.end().end();
    const std::optional<JsonValue> commitReply =
        rpc(fd, commit.str(), cfg.maxFrameBytes);
    if (!commitReply.has_value()) {
      lostConnection = true;
      break;
    }
    const JsonValue* committed = commitReply->find("committed");
    const bool fresh = committed != nullptr &&
                       committed->kind == JsonValue::Kind::Bool &&
                       committed->boolean;
    if (!fresh) ++report.duplicateCommits;
    logLine("worker '" + name + "': " +
            (fresh ? "committed" : "duplicate commit of") + " shard " +
            std::to_string(shard));
  }

  if (lostConnection) {
    // The coordinator drains and closes once every shard is committed;
    // a post-handshake loss therefore means the sweep finished (or the
    // coordinator aborted — in which case *its* process reports the
    // failure). Either way this worker has nothing left to compute.
    logLine("worker '" + name +
            "': connection closed by coordinator; assuming drained");
  } else {
    (void)rpc(
        fd, obs::JsonFields().str("kind", "done").str("worker", name).object(),
        cfg.maxFrameBytes);
  }

  if (persistent != nullptr) {
    report.persistentHits = persistent->hits();
    report.persistentMisses = persistent->misses();
  }
  report.wallSeconds = wall.elapsedSeconds();
  logLine("worker '" + name + "': drained; computed " +
          std::to_string(report.shardsComputed) + " shard(s), " +
          std::to_string(report.pointsComputed) + " point(s), " +
          std::to_string(report.duplicateCommits) + " duplicate(s)");
  if (cfg.metrics != nullptr) {
    obs::Registry& reg = *cfg.metrics;
    reg.counters().bump("sweep.worker_shards_computed", report.shardsComputed);
    reg.counters().bump("sweep.worker_points_computed", report.pointsComputed);
    reg.counters().bump("sweep.worker_duplicate_commits",
                        report.duplicateCommits);
    reg.counters().bump("sweep.persistent_hits", report.persistentHits);
    reg.counters().bump("sweep.persistent_misses", report.persistentMisses);
  }
  return report;
}

}  // namespace fepia::server

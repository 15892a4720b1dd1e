#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <utility>

#include "obs/clock.hpp"
#include "obs/manifest.hpp"

namespace fepia::server {
namespace {

/// Upper bound on the ping sleep_ms test hook — a typo must not park a
/// worker for an hour.
constexpr std::uint64_t kMaxPingSleepMillis = 10'000;

/// The members of every fepiad success reply: the exit code, the
/// captured stdout, and the --json document (null when `json` is).
obs::JsonFields queryFields(int exitCode, std::string_view output,
                       const std::string* json) {
  obs::JsonFields fields;
  fields.num("exit", exitCode).str("output", output);
  if (json != nullptr) {
    fields.str("json", *json);
  } else {
    fields.null("json");
  }
  return fields;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// `fepia_cli serve` flags; the keyed ones are also config-file keys.
using SA = ServeArgs;
using SC = ServeConfig;
constexpr Flag kServeFlagTable[] = {
    field<&SA::config, &SC::port>("--port", "N").atMost(65535).keyed("port"),
    field<&SA::config, &SC::bindAddress>("--bind", "ADDR").keyed("bind"),
    field<&SA::config, &SC::workers>("--workers", "N")
        .atLeast(1)
        .atMost(kMaxThreads)
        .keyed("workers"),
    field<&SA::config, &SC::threads>("--threads", "T")
        .atMost(kMaxThreads)
        .keyed("threads"),
    field<&SA::config, &SC::maxQueue>("--max-queue", "N")
        .atLeast(1)
        .keyed("max_queue"),
    field<&SA::config, &SC::maxFrameBytes>("--max-frame", "BYTES")
        .atLeast(16)
        .keyed("max_frame_bytes"),
    field<&SA::config, &SC::defaultDeadlineMs>("--deadline-ms", "MS")
        .keyed("deadline_ms"),
    Flag{"--config", FlagKind::Text, "FILE",
         [](void* o, const FlagValue& v) {
           ServeArgs& args = *static_cast<ServeArgs*>(o);
           args.configPath = v.text;
           parseServeConfigFile(args.configPath, args.config);
         }},
};

/// Wraps each complete line written through it into one progress frame
/// on the request's connection:
///   {"id": <echo>, "type": "progress", "event": <line verbatim>}
/// The telemetry stream emits one JSON object per line, so embedding
/// the line as the `event` value is itself valid JSON. Writes are
/// already serialized by the emitting hub's mutex.
class ProgressBuf : public std::streambuf {
 public:
  ProgressBuf(std::function<bool(const std::string&)> send, std::string idRaw)
      : send_(std::move(send)), idRaw_(std::move(idRaw)) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return ch;
    if (ch == '\n') {
      if (!line_.empty()) {
        obs::JsonFields frame;
        frame.raw("id", idRaw_).str("type", "progress").raw("event", line_);
        send_(frame.object());
        line_.clear();
      }
    } else {
      line_.push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  std::function<bool(const std::string&)> send_;
  std::string idRaw_;
  std::string line_;
};

}  // namespace

void parseServeConfigText(const std::string& text, ServeConfig& cfg) {
  ServeArgs args{cfg, {}};
  std::istringstream in(text);
  std::string rawLine;
  while (std::getline(in, rawLine)) {
    const std::string line = trim(rawLine);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad config line '" + line +
                                  "' (expected key = value)");
    }
    const std::string key = trim(line.substr(0, eq));
    const auto row = std::find_if(
        std::begin(kServeFlagTable), std::end(kServeFlagTable),
        [&](const Flag& f) { return !f.key.empty() && f.key == key; });
    if (row == std::end(kServeFlagTable)) {
      throw std::invalid_argument("unknown config key '" + key + "'");
    }
    row->set(&args, readFlagValue(*row, key, trim(line.substr(eq + 1))));
  }
  cfg = args.config;
}

std::span<const Flag> serveFlags() { return kServeFlagTable; }

void parseServeConfigFile(const std::string& path, ServeConfig& cfg) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::ostringstream os;
  os << in.rdbuf();
  parseServeConfigText(os.str(), cfg);
}

// ---------------------------------------------------------------------

Server::Server(ServeConfig cfg, obs::TelemetryHub* hub)
    : cfg_(std::move(cfg)),
      hub_(hub),
      maxQueue_(cfg_.maxQueue),
      maxFrameBytes_(cfg_.maxFrameBytes),
      defaultDeadlineMs_(cfg_.defaultDeadlineMs),
      pool_(cfg_.threads) {}

Server::~Server() { stop(); }

void Server::liveGauges(obs::Registry& reg) {
  reg.setGauge("fepiad.open_connections",
               static_cast<double>(
                   openConnections_.load(std::memory_order_relaxed)));
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    depth = queue_.size();
  }
  reg.setGauge("fepiad.queue_depth", static_cast<double>(depth));
  reg.setGauge("fepiad.in_flight",
               static_cast<double>(
                   inFlight_.load(std::memory_order_relaxed)));
  reg.setGauge("fepiad.requests_served",
               static_cast<double>(served_.load(std::memory_order_relaxed)));
}

bool Server::start(std::string* error) {
  if (!listener_.start(cfg_.bindAddress, cfg_.port, error)) return false;

  hubSource_.emplace(hub_, [this](obs::Registry& reg) { liveGauges(reg); });

  const std::size_t workers = cfg_.workers == 0 ? 1 : cfg_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  return true;
}

void Server::requestStop() {
  {
    // Under the queue lock, so a worker between its predicate check and
    // its wait cannot miss the notify below.
    const std::lock_guard<std::mutex> lock(queueMutex_);
    if (stopping_.exchange(true)) return;
  }
  // Stop accepting and unblock every reader mid-read; write sides stay
  // open so in-flight and queued requests still get their responses.
  listener_.requestStop();
  queueCv_.notify_all();
}

void Server::stop() {
  requestStop();
  listener_.stop();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (hubSource_.has_value() && hub_ != nullptr) {
    // The final readings stay in the hub's base registry, so every later
    // sample carries them: the hub's closing one, taken after the server
    // is gone, still reports what it served.
    obs::Registry last;
    liveGauges(last);
    hub_->publish(last);
  }
  hubSource_.reset();
}

void Server::reload(const ServeConfig& cfg) {
  maxQueue_.store(cfg.maxQueue, std::memory_order_relaxed);
  maxFrameBytes_.store(cfg.maxFrameBytes, std::memory_order_relaxed);
  defaultDeadlineMs_.store(cfg.defaultDeadlineMs, std::memory_order_relaxed);
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.deadlineExpired = deadlineExpired_.load(std::memory_order_relaxed);
  return s;
}

void Server::readerLoop(const std::shared_ptr<Connection>& conn) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  openConnections_.fetch_add(1, std::memory_order_relaxed);
  WireRequest wire;
  for (;;) {
    const ReadStatus status = readRequest(
        *conn, maxFrameBytes_.load(std::memory_order_relaxed), wire, &errors_);
    if (status == ReadStatus::Closed) break;
    if (status == ReadStatus::Request && !route(conn, wire)) break;
  }
  // Queued requests keep their own reference; the fd closes (and any
  // pending response write turns into a no-op) once the last one drops.
  openConnections_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::route(const std::shared_ptr<Connection>& conn,
                   const WireRequest& wire) {
  const auto reject = [&](const char* code, const std::string& message) {
    writeError(*conn, wire.id, code, message, &errors_);
  };
  const std::string& kind = wire.kind;

  if (kind == "stats") {
    const std::string stats = statsJson();
    served_.fetch_add(1, std::memory_order_relaxed);
    writeOk(*conn, wire.id, queryFields(0, "", &stats));
    return true;
  }
  if (kind == "shutdown") {
    served_.fetch_add(1, std::memory_order_relaxed);
    writeOk(*conn, wire.id, queryFields(0, "shutting down\n", nullptr));
    requestStop();
    return false;
  }
  const Query* query = findQuery(kind);
  if (query == nullptr && kind != "ping") {
    reject("bad_request", "unknown kind '" + kind + "'");
    return true;
  }

  Request req;
  req.conn = conn;
  req.idRaw = wire.id;
  req.query = query;
  if (const JsonValue* args = wire.doc.find("args")) {
    if (args->kind != JsonValue::Kind::Array) {
      reject("bad_request", "\"args\" must be an array");
      return true;
    }
    for (const JsonValue& arg : args->array) {
      if (!arg.isString()) {
        reject("bad_request", "\"args\" must contain only strings");
        return true;
      }
      req.args.push_back(arg.string);
    }
  }
  if (const JsonValue* stream = wire.doc.find("stream")) {
    req.stream = stream->kind == JsonValue::Kind::Bool && stream->boolean;
  }
  if (const JsonValue* deadline = wire.doc.find("deadline_ms")) {
    const std::optional<std::uint64_t> ms = toCount(deadline);
    if (!ms.has_value()) {
      reject("bad_request", "\"deadline_ms\" must be a non-negative number");
      return true;
    }
    req.deadlineMs = *ms;
  }
  if (const JsonValue* sleepMs = wire.doc.find("sleep_ms")) {
    const std::optional<std::uint64_t> ms = toCount(sleepMs);
    if (!ms.has_value()) {
      reject("bad_request", "\"sleep_ms\" must be a non-negative number");
      return true;
    }
    req.sleepMs = std::min(*ms, kMaxPingSleepMillis);
  }
  req.enqueuedNs = obs::nowNanos();

  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      reject("shutting_down", "server is shutting down");
      return false;
    }
    if (queue_.size() >= maxQueue_.load(std::memory_order_relaxed)) {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      reject("overloaded",
             "request queue is full (" +
                 std::to_string(maxQueue_.load(std::memory_order_relaxed)) +
                 " requests)");
      return true;
    }
    queue_.push_back(std::move(req));
  }
  queueCv_.notify_one();
  return true;
}

void Server::workerLoop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) {
        // stopping_ and an empty queue: every accepted request has been
        // answered (readers reject new ones once stopping_ is set).
        return;
      }
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    const std::uint64_t deadline =
        req.deadlineMs != 0
            ? req.deadlineMs
            : defaultDeadlineMs_.load(std::memory_order_relaxed);
    if (deadline != 0) {
      const std::uint64_t waitedMs =
          (obs::nowNanos() - req.enqueuedNs) / 1'000'000ull;
      if (waitedMs > deadline) {
        deadlineExpired_.fetch_add(1, std::memory_order_relaxed);
        writeError(*req.conn, req.idRaw, "deadline",
                   "request waited " + std::to_string(waitedMs) +
                       " ms in queue (deadline " + std::to_string(deadline) +
                       " ms)",
                   &errors_);
        continue;
      }
    }
    handle(req);
  }
}

void Server::handle(const Request& req) {
  inFlight_.fetch_add(1, std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<std::size_t>& counter;
    ~InFlightGuard() { counter.fetch_sub(1, std::memory_order_relaxed); }
  } guard{inFlight_};

  if (req.query == nullptr) {  // ping
    if (req.sleepMs != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(req.sleepMs));
    }
    served_.fetch_add(1, std::memory_order_relaxed);
    writeOk(*req.conn, req.idRaw, queryFields(0, "pong\n", nullptr));
    return;
  }

  // Per-request observability state, exactly what a one-shot CLI run
  // would have built in main(): a fresh registry, a manifest collected
  // from the equivalent argv, and a wall stopwatch started now.
  obs::Registry registry;
  std::vector<std::string> fakeArgs;
  fakeArgs.push_back("fepia_cli");
  if (req.query->kind != "radius") fakeArgs.emplace_back(req.query->kind);
  for (const std::string& arg : req.args) fakeArgs.push_back(arg);
  std::vector<const char*> argvPtrs;
  argvPtrs.reserve(fakeArgs.size());
  for (const std::string& arg : fakeArgs) argvPtrs.push_back(arg.c_str());
  obs::RunManifest manifest = obs::RunManifest::collect(
      "fepia_cli", static_cast<int>(argvPtrs.size()), argvPtrs.data());
  const obs::Stopwatch wall;

  // Progressive results: a per-request hub (never started — no sampler
  // thread) whose sink frames every emitted record as a progress
  // message. The sweep engine's per-shard heartbeats flow through
  // SweepOptions::telemetry unchanged.
  std::unique_ptr<ProgressBuf> progressBuf;
  std::unique_ptr<std::ostream> progressStream;
  std::unique_ptr<obs::TelemetryHub> streamHub;
  if (req.stream) {
    const std::shared_ptr<Connection> conn = req.conn;
    progressBuf = std::make_unique<ProgressBuf>(
        [conn](const std::string& payload) { return conn->write(payload); },
        req.idRaw);
    progressStream = std::make_unique<std::ostream>(progressBuf.get());
    streamHub = std::make_unique<obs::TelemetryHub>(obs::TelemetryOptions{},
                                                    progressStream.get());
  }

  QueryContext ctx;
  ctx.registry = &registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.hub = streamHub.get();
  ctx.sharedPool = &pool_;
  ctx.cache = &cache_;
  ctx.captureJson = true;
  ctx.remote = true;

  std::ostringstream out;
  QueryResult result;
  try {
    result = req.query->run(req.args, out, ctx);
  } catch (const UsageError& e) {
    return writeError(*req.conn, req.idRaw, "bad_request", e.what(),
                      &errors_);
  } catch (const std::exception& e) {
    return writeError(*req.conn, req.idRaw, "failed", e.what(), &errors_);
  }

  served_.fetch_add(1, std::memory_order_relaxed);
  writeOk(*req.conn, req.idRaw,
          queryFields(result.exitCode, out.str(),
                      result.hasJson ? &result.json : nullptr));
}

std::string Server::statsJson() {
  const Stats s = stats();
  const SessionCache::Stats cs = cache_.stats();
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queueMutex_);
    depth = queue_.size();
  }
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.object().count("accepted", s.accepted).count("served", s.served);
  w.count("errors", s.errors).count("overloaded", s.overloaded);
  w.count("deadline_expired", s.deadlineExpired);
  w.count("open_connections", openConnections_.load(std::memory_order_relaxed));
  w.count("queue_depth", depth);
  w.count("in_flight", inFlight_.load(std::memory_order_relaxed));
  w.count("pool_threads", pool_.threadCount()).object("cache");
  w.count("problem_hits", cs.problemHits);
  w.count("problem_misses", cs.problemMisses);
  w.count("system_hits", cs.systemHits).count("system_misses", cs.systemMisses);
  w.count("sweep_hits", cache_.sweepCache().hits());
  w.count("sweep_misses", cache_.sweepCache().misses()).end().end();
  return os.str();
}

}  // namespace fepia::server

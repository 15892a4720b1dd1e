// fepiad — the resident robustness query server behind
// `fepia_cli serve`. One process keeps the expensive state warm across
// requests (parsed problems/systems, the sweep sub-computation cache, a
// shared thread pool) and answers the same four queries the one-shot
// CLI answers, byte-identically (the runners in server/query.hpp are
// the CLI's own mode bodies).
//
// Architecture: a server::Listener (the acceptor shared with the sweep
// coordinator) runs one reader thread per connection (frame decode +
// admission), and a fixed worker pool drains a bounded request queue.
// Admission control is typed: a full queue answers `overloaded`
// immediately, a request older than its deadline when a worker finally
// picks it up answers `deadline`, and requests arriving during shutdown
// answer `shutting_down` — the client can always tell "server busy"
// from "request broken". Shutdown never drops in-flight work: readers stop
// accepting, workers drain the queue, every accepted request gets its
// response before the socket closes.
//
// Protocol: the frames and shared rules of server/wire.hpp, with these
// kinds and members (docs/server.md is the user-facing description):
//
// Requests:  {"id": <any>, "kind": "radius|validate|fault-sim|sweep|
//             ping|stats|shutdown", "args": ["--samples","64",...],
//             "deadline_ms": N?, "stream": bool?, "sleep_ms": N?}
// Success:   {"id": <echo>, "ok": true, "exit": N,
//             "output": "<stdout bytes>", "json": "<--json bytes>"|null}
// Error:     codes bad_frame, bad_request, overloaded, deadline, failed,
//            shutting_down
// Progress:  {"id": <echo>, "type": "progress", "event": {<one
//             telemetry JSONL record, embedded verbatim>}}
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "server/flags.hpp"
#include "server/listener.hpp"
#include "server/query.hpp"
#include "server/session_cache.hpp"
#include "server/wire.hpp"

namespace fepia::server {

/// Server configuration: the CLI fills it from `serve` flags and/or a
/// key=value config file (see parseServeConfigText). The runtime knobs
/// (max_queue, max_frame_bytes, deadline_ms) can be re-applied to a
/// live server via Server::reload; the structural ones (bind, port,
/// workers, threads) need a restart and reload() ignores them.
struct ServeConfig {
  std::string bindAddress = "127.0.0.1";
  std::uint16_t port = 0;       ///< 0 = ephemeral; Server::port() tells
  std::size_t workers = 2;      ///< request-handling workers
  std::size_t threads = 0;      ///< shared compute pool (0 = hardware)
  std::size_t maxQueue = 64;    ///< admission bound on queued requests
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  std::uint64_t defaultDeadlineMs = 0;  ///< 0 = no default deadline
};

/// Applies `key = value` lines (# comments, blank lines ok) to `cfg`.
/// Keys: bind, port, workers, threads, max_queue, max_frame_bytes,
/// deadline_ms, each set by its flag's row. Throws std::invalid_argument
/// naming an unknown key, or FlagValueError naming the key of a bad
/// value ("bad value for workers: '0' ...").
void parseServeConfigText(const std::string& text, ServeConfig& cfg);

/// parseServeConfigText over the contents of `path`; throws
/// std::runtime_error("cannot open '<path>'") when unreadable.
void parseServeConfigFile(const std::string& path, ServeConfig& cfg);

/// What `fepia_cli serve` takes: the configuration, and the --config
/// file it read (empty: none), which a reload reads again.
struct ServeArgs {
  ServeConfig config;
  std::string configPath;
};

/// The `fepia_cli serve` flag table; it parses into a ServeArgs. The
/// keyed rows are also the config-file keys, and --config FILE applies
/// the file where it stands, so the last writer wins.
std::span<const Flag> serveFlags();

class Server {
 public:
  struct Stats {
    std::uint64_t accepted = 0;         ///< connections accepted
    std::uint64_t served = 0;           ///< ok replies, counted as sent
    std::uint64_t errors = 0;           ///< typed error responses
    std::uint64_t overloaded = 0;       ///< ... of which queue-full
    std::uint64_t deadlineExpired = 0;  ///< ... of which deadline
  };

  /// The hub (optional) receives fepiad.* live gauges: open
  /// connections, queue depth, requests in flight, requests served.
  explicit Server(ServeConfig cfg, obs::TelemetryHub* hub = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers. Returns false
  /// with a one-line diagnostic in `error` when the socket setup fails.
  [[nodiscard]] bool start(std::string* error);

  /// The actually-bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Begins a graceful shutdown and returns immediately: stop
  /// accepting connections and requests, let workers drain the queue.
  /// Safe to call from any thread, any number of times.
  void requestStop();

  /// requestStop() plus joining every thread; after stop() returns no
  /// server thread is live and the listen socket is closed. The
  /// destructor calls it.
  void stop();

  /// True once requestStop() has been observed.
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Re-applies the runtime knobs from `cfg` (SIGHUP / config-file hot
  /// reload). Never drops connections or queued requests.
  void reload(const ServeConfig& cfg);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] SessionCache& cache() noexcept { return cache_; }

 private:
  struct Request {
    std::shared_ptr<Connection> conn;
    std::string idRaw = "null";  ///< request id re-serialized verbatim
    const Query* query = nullptr;  ///< null for ping
    std::vector<std::string> args;
    bool stream = false;
    std::uint64_t deadlineMs = 0;  ///< 0 = none
    std::uint64_t sleepMs = 0;     ///< ping only (test/bench hook)
    std::uint64_t enqueuedNs = 0;
  };

  /// The per-connection frame loop the listener runs on each reader.
  void readerLoop(const std::shared_ptr<Connection>& conn);
  void workerLoop();
  /// Writes the fepiad.* occupancy gauges: the hub source's reading.
  void liveGauges(obs::Registry& reg);
  /// Either enqueues a decoded request or answers it inline (stats,
  /// shutdown, a typed error). Returns false when the connection should
  /// close.
  bool route(const std::shared_ptr<Connection>& conn,
             const WireRequest& wire);
  void handle(const Request& req);
  [[nodiscard]] std::string statsJson();

  const ServeConfig cfg_;
  obs::TelemetryHub* hub_;
  std::optional<obs::SourceGuard> hubSource_;

  // Runtime knobs, hot-reloadable.
  std::atomic<std::size_t> maxQueue_;
  std::atomic<std::size_t> maxFrameBytes_;
  std::atomic<std::uint64_t> defaultDeadlineMs_;

  parallel::ThreadPool pool_;
  SessionCache cache_;

  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<Request> queue_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> deadlineExpired_{0};
  std::atomic<std::size_t> openConnections_{0};
  std::atomic<std::size_t> inFlight_{0};

  // Last: its readers use every member above.
  Listener listener_{[this](const std::shared_ptr<Connection>& conn) {
    readerLoop(conn);
  }};
};

}  // namespace fepia::server

// Connection acceptance shared by fepiad (server::Server) and the
// distributed sweep coordinator (server::SweepCoordinator).
//
// A Listener binds and listens on one TCP address, runs a poll-based
// acceptor thread, and gives every accepted connection its own reader
// thread that runs the owner's per-connection handler (the owner's frame
// loop). stop() shuts down the listen socket and the read side of every
// registered connection — write sides stay open, so an owner that still
// holds a Connection (fepiad's queued requests) can answer on it — then
// joins every thread. Registration and the stop check happen under one
// lock, so a connection accepted while a stop is in progress is either
// shut down by it or closed unserved; stop() can never wait on a reader
// that nobody woke.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/wire.hpp"

namespace fepia::server {

class Listener {
 public:
  /// Runs on the connection's reader thread for the connection's whole
  /// life; returning ends the connection (its fd closes once no other
  /// owner holds it).
  using Handler = std::function<void(const std::shared_ptr<Connection>&)>;

  explicit Listener(Handler handler) : handler_(std::move(handler)) {}
  ~Listener() { stop(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds bindAddress:port (port 0 = ephemeral), listens and starts the
  /// acceptor. Returns false with a one-line diagnostic in `error` when
  /// the socket setup fails.
  [[nodiscard]] bool start(const std::string& bindAddress, std::uint16_t port,
                           std::string* error);

  /// The actually-bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and shuts down the read side of every registered
  /// connection, waking readers blocked mid-read. Returns immediately;
  /// safe from any thread (a handler included), any number of times.
  void requestStop();

  /// requestStop() plus joining the acceptor and every reader, then
  /// closing the listen socket. Must not be called from a handler.
  void stop();

 private:
  struct Slot {
    std::shared_ptr<Connection> conn;  ///< reset once the handler returns
    std::thread reader;
    bool done = false;
  };

  void acceptLoop();
  /// Joins and drops finished readers (every reader when `all`).
  void reap(bool all);

  Handler handler_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;

  /// Guards slots_, writes to stopping_, and listenFd_'s shutdown/close.
  std::mutex mutex_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Slot>> slots_;
  std::thread acceptor_;
};

}  // namespace fepia::server

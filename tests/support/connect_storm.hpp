// Shutdown-race harness for the listener-backed services (fepiad and the
// distributed sweep coordinator).
//
// A client thread opens idle loopback connections in a tight loop while
// the caller stops the service. A connection accepted while the stop
// runs must still be shut down by it: one that is missed parks its
// reader in a read nobody wakes, and the stop then waits for the client
// to hang up. This client hangs up only kHangUpAfter after the stop
// began, so a missed connection shows as a slow stop, never as a hung
// test binary.
#pragma once

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>

#include "server/wire.hpp"

namespace fepia::testing {

/// What a stop may take while connections keep arriving.
inline constexpr std::chrono::seconds kStopBound{2};
/// When the storm client closes its idle connections after a stop began.
inline constexpr std::chrono::seconds kHangUpAfter{4};

/// Runs `stop` while a client storms `port` with idle connections and
/// returns how long `stop` took. `round` varies how long the storm runs
/// before the stop begins, so repeated rounds hit different phases of
/// the acceptor.
inline std::chrono::steady_clock::duration stopDuringConnectStorm(
    std::uint16_t port, int round, const std::function<void()>& stop) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kMaxIdle = 64;
  std::atomic<bool> stopBegan{false};
  std::atomic<bool> stopReturned{false};
  std::thread client([&] {
    std::deque<int> idle;
    Clock::time_point began{};
    while (!stopReturned.load()) {
      if (stopBegan.load() && began == Clock::time_point{}) {
        began = Clock::now();
      }
      const bool hangUp = began != Clock::time_point{} &&
                          Clock::now() - began > kHangUpAfter;
      if (hangUp) break;
      const int fd = server::connectLoopback(port);
      if (fd < 0) {
        std::this_thread::yield();
        continue;
      }
      idle.push_back(fd);
      if (idle.size() > kMaxIdle) {
        ::close(idle.front());
        idle.pop_front();
      }
    }
    for (const int fd : idle) ::close(fd);
  });
  std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 8)));
  stopBegan.store(true);
  const Clock::time_point start = Clock::now();
  stop();
  const Clock::duration took = Clock::now() - start;
  stopReturned.store(true);
  client.join();
  return took;
}

}  // namespace fepia::testing

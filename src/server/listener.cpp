#include "server/listener.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fepia::server {
namespace {

/// How often the acceptor wakes to reap finished reader threads even
/// when no client connects (a stop wakes it at once via shutdown(2)).
constexpr int kAcceptPollMillis = 100;

}  // namespace

bool Listener::start(const std::string& bindAddress, std::uint16_t port,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    if (listenFd_ >= 0) {
      ::close(listenFd_);
      listenFd_ = -1;
    }
    return false;
  };
  const auto sysFail = [&](const std::string& what) {
    return fail(what + ": " + std::strerror(errno));
  };

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) return sysFail("socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bindAddress.c_str(), &addr.sin_addr) != 1) {
    return fail("bad bind address '" + bindAddress + "'");
  }
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return sysFail("bind " + bindAddress + ":" + std::to_string(port));
  }
  if (::listen(listenFd_, SOMAXCONN) != 0) return sysFail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return sysFail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  acceptor_ = std::thread([this] { acceptLoop(); });
  return true;
}

void Listener::requestStop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->conn != nullptr) ::shutdown(slot->conn->fd, SHUT_RD);
  }
}

void Listener::stop() {
  requestStop();
  if (acceptor_.joinable()) acceptor_.join();
  reap(true);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

void Listener::reap(bool all) {
  std::vector<std::unique_ptr<Slot>> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < slots_.size();) {
      if (all || slots_[i]->done) {
        finished.push_back(std::move(slots_[i]));
        slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  // Joined off-lock: a running reader takes the lock to finish.
  for (const std::unique_ptr<Slot>& slot : finished) {
    if (slot->reader.joinable()) slot->reader.join();
  }
}

void Listener::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listenFd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    reap(false);
    if (ready <= 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Register and re-check stopping under the lock requestStop's
    // shutdown sweep holds: the connection either lands in slots_ in
    // time to be shut down, or observes the stop and is closed here.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    auto slot = std::make_unique<Slot>();
    slot->conn = std::make_shared<Connection>(fd);
    Slot* raw = slot.get();
    raw->reader = std::thread([this, raw] {
      handler_(raw->conn);
      std::shared_ptr<Connection> released;  // closes off-lock if last
      const std::lock_guard<std::mutex> done(mutex_);
      released = std::move(raw->conn);
      raw->done = true;
    });
    slots_.push_back(std::move(slot));
  }
}

}  // namespace fepia::server

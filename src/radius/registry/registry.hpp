// The backend registry: radius kernels addressable by name.
//
// Each backend lives in its own translation unit and exposes one factory
// (detail::make*Backend); BackendRegistry::instance() lists the four
// built-in kernels explicitly, so the list in registry.cpp is the one
// place that names them.
#pragma once

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "radius/registry/backend.hpp"

namespace fepia::radius::backend {

/// A set of radius backends addressable by name. The process-wide
/// instance() holds the built-in kernels; tests build their own
/// registries with fakes through the public constructor and add().
class BackendRegistry {
 public:
  BackendRegistry() = default;
  BackendRegistry(const BackendRegistry&) = delete;
  BackendRegistry& operator=(const BackendRegistry&) = delete;

  /// The global registry holding analytic, numeric, empirical and
  /// degraded. A C++ magic static: built once, thread-safely, on first
  /// use.
  static BackendRegistry& instance();

  /// Registers a kernel. Throws std::invalid_argument on a null backend
  /// or a duplicate name. Returns the registered backend. Thread-safe.
  const Backend& add(std::unique_ptr<Backend> backend);

  /// Looks up a backend by name; null when absent.
  [[nodiscard]] const Backend* find(std::string_view name) const noexcept;

  /// Every registered backend, sorted by name (deterministic iteration
  /// regardless of registration order).
  [[nodiscard]] std::vector<const Backend*> all() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Backend>> backends_;
};

namespace detail {
// One factory per built-in backend translation unit.
std::unique_ptr<Backend> makeAnalyticBackend();
std::unique_ptr<Backend> makeNumericBackend();
std::unique_ptr<Backend> makeEmpiricalBackend();
std::unique_ptr<Backend> makeDegradedBackend();
}  // namespace detail

}  // namespace fepia::radius::backend

// The backend registry: self-registering radius kernels.
//
// Each backend translation unit registers its kernel with a static
// registrar (FEPIA_REGISTER_RADIUS_BACKEND), the pattern of mindspore
// lite's kernel_registry: the registrar's initializer runs before main,
// inserting the kernel into the construct-on-first-use singleton, so
// adding a backend is adding one TU — no central list to edit. Static
// libraries strip unreferenced TUs, which would silently drop the
// registrars; each backend TU therefore also defines an anchor function
// that registry.cpp references, forcing the linker to keep it.
#pragma once

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "radius/registry/backend.hpp"

namespace fepia::radius::backend {

/// A set of radius backends addressable by name. The process-wide
/// instance() holds the statically registered kernels; tests build their
/// own registries with fakes through the public constructor.
class BackendRegistry {
 public:
  BackendRegistry() = default;
  BackendRegistry(const BackendRegistry&) = delete;
  BackendRegistry& operator=(const BackendRegistry&) = delete;

  /// The global registry. A C++ magic static: initialization is
  /// thread-safe and happens on first use, which for the statically
  /// registered kernels is during their registrars' dynamic
  /// initialization (single-threaded, before main).
  static BackendRegistry& instance();

  /// Registers a kernel. Throws std::invalid_argument on a null backend
  /// or a duplicate name. Returns the registered backend (the macro's
  /// registrar binds a reference to it). Thread-safe.
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
// Anchors defined one-per-backend-TU and referenced by registry.cpp so a
// static-library link cannot discard the registrar objects.
int anchorAnalyticBackend();
int anchorNumericBackend();
int anchorEmpiricalBackend();
int anchorDegradedBackend();
}  // namespace detail

/// Registers `BackendClass` (default-constructible Backend subclass)
/// into the global registry at static-initialization time. Use at
/// namespace scope inside the backend's own translation unit.
#define FEPIA_REGISTER_RADIUS_BACKEND(BackendClass)                       \
  namespace {                                                             \
  [[maybe_unused]] const ::fepia::radius::backend::Backend&               \
      kRegistered##BackendClass =                                         \
          ::fepia::radius::backend::BackendRegistry::instance().add(      \
              std::make_unique<BackendClass>());                          \
  }

}  // namespace fepia::radius::backend

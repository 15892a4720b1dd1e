#include "radius/registry/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace fepia::radius::backend {

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  [[maybe_unused]] static const bool populated = [] {
    registry.add(detail::makeAnalyticBackend());
    registry.add(detail::makeNumericBackend());
    registry.add(detail::makeEmpiricalBackend());
    registry.add(detail::makeDegradedBackend());
    return true;
  }();
  return registry;
}

const Backend& BackendRegistry::add(std::unique_ptr<Backend> backend) {
  if (backend == nullptr) {
    throw std::invalid_argument("BackendRegistry: null backend");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : backends_) {
    if (existing->name() == backend->name()) {
      throw std::invalid_argument("BackendRegistry: duplicate backend '" +
                                  backend->name() + "'");
    }
  }
  backends_.push_back(std::move(backend));
  return *backends_.back();
}

const Backend* BackendRegistry::find(std::string_view name) const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& backend : backends_) {
    if (backend->name() == name) {
      return backend.get();
    }
  }
  return nullptr;
}

std::vector<const Backend*> BackendRegistry::all() const {
  std::vector<const Backend*> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(backends_.size());
    for (const auto& backend : backends_) {
      out.push_back(backend.get());
    }
  }
  std::sort(out.begin(), out.end(), [](const Backend* a, const Backend* b) {
    return a->name() < b->name();
  });
  return out;
}

std::size_t BackendRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backends_.size();
}

}  // namespace fepia::radius::backend

#include "sweep/pcache.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "io/parse.hpp"
#include "sweep/journal.hpp"

namespace fepia::sweep {

namespace fs = std::filesystem;

namespace {
// v2: the estimator's classification count became the pruned polish's
// probe count, so a v1 entry's count is not what a recomputation gives.
constexpr const char* kHeader = "fepia-sweep-pcache v2";
}  // namespace

PersistentCache::PersistentCache(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("pcache: cannot create directory '" + dir_ +
                             "': " + ec.message());
  }
  // Load segments in sorted-name order so loadedEntries() is stable for
  // a fixed directory; first-inserted wins on duplicate keys (values are
  // content-keyed, so any winner is bit-identical).
  std::vector<std::string> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".seg") continue;
    segments.push_back(entry.path().string());
  }
  if (ec) {
    throw std::runtime_error("pcache: cannot read directory '" + dir_ +
                             "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  for (const std::string& path : segments) loadSegment(path);
}

void PersistentCache::loadSegment(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ++quarantined_;
    return;
  }
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    // Not one of ours (or torn before the header): skip the whole file.
    ++quarantined_;
    return;
  }
  while (std::getline(in, line)) {
    // `entry <radius> <cls> <key...>` — the key is the line's tail and
    // may contain spaces (e.g. a system path inside a hiperd key).
    std::istringstream ls(line);
    std::string tag, radiusTok, clsTok;
    if (!(ls >> tag >> radiusTok >> clsTok) || tag != "entry") {
      ++quarantined_;
      continue;
    }
    double radius = 0.0;
    if (!parseJournalDouble(radiusTok, radius)) {
      ++quarantined_;
      continue;
    }
    const std::optional<std::uint64_t> cls = io::parseUint64(clsTok);
    if (!cls.has_value()) {
      ++quarantined_;
      continue;
    }
    std::string key;
    std::getline(ls >> std::ws, key);
    if (key.empty()) {
      ++quarantined_;
      continue;
    }
    if (map_.emplace(key, Value{radius, *cls}).second) ++loaded_;
  }
}

std::optional<PersistentCache::Value> PersistentCache::lookup(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

bool PersistentCache::openOwnSegment() {
  if (out_.is_open()) return true;
  if (writerFailed_) return false;
  // One segment per writing process: pid plus random suffix, so
  // concurrent workers sharing the directory never interleave appends
  // in one file and a crashed writer's torn tail stays quarantined in
  // its own segment.
  std::random_device rd;
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::ostringstream name;
    name << dir_ << "/seg-" << ::getpid() << '-' << std::hex << rd() << rd()
         << ".seg";
    if (fs::exists(name.str())) continue;
    out_.open(name.str(), std::ios::out | std::ios::app);
    if (out_) {
      out_ << kHeader << '\n';
      out_.flush();
      return true;
    }
    out_.clear();
  }
  writerFailed_ = true;
  return false;
}

void PersistentCache::store(const std::string& key, const Value& value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!map_.emplace(key, value).second) return;  // first value wins
  if (!openOwnSegment()) return;
  out_ << "entry " << formatJournalDouble(value.radius) << ' '
       << value.classifications << ' ' << key << '\n';
  out_.flush();
  if (!out_) writerFailed_ = true;
}

std::uint64_t PersistentCache::hits() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PersistentCache::misses() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace fepia::sweep

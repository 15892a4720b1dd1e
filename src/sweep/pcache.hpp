// Persistent on-disk promotion of the content-keyed result cache.
//
// The in-memory ResultCache dedups shared sub-computations within one
// process; the PersistentCache makes the expensive entries — the
// Monte-Carlo empirical and degraded-radius estimates — survive across
// processes and runs, so a fleet of sweep workers (and repeated runs of
// the same grid) share one warm cache directory. Because estimate seeds
// derive from the same content keys (sweep::deriveSeed) and doubles are
// stored in the journal's exact hexfloat form, a loaded value is
// bit-identical to a recomputed one: the cache changes throughput,
// never a byte of any surface.
//
// Layout: a directory of append-only segment files, one per writing
// process (`seg-<pid>-<rand>.seg`), so concurrent workers never
// interleave writes in one file. Each segment is line-oriented:
//
//   fepia-sweep-pcache v2
//   entry <hexfloat-radius> <classifications> <content key ...>
//
// and every append is flushed. The version changes whenever a stored
// value would no longer equal a recomputed one, so segments of another
// version are skipped whole. Crash debris is tolerated the same way
// the sweep journal tolerates it: a torn or malformed line (including a
// newline-less tail from a killed writer) is quarantined — skipped and
// counted — on open, valid lines before and after it still load, and a
// segment without the version header is skipped whole. Writers never
// append to a foreign (or torn) segment; a fresh segment file is
// created on first store.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace fepia::sweep {

class PersistentCache {
 public:
  /// What an entry stores: exactly what a cached empirical estimate
  /// contributes to a point result.
  struct Value {
    double radius = 0.0;
    std::uint64_t classifications = 0;
  };

  /// Opens `dir` (created, parents included, when missing) and loads
  /// every `*.seg` segment. Throws std::runtime_error when the
  /// directory cannot be created or read. Thread-safe after
  /// construction.
  explicit PersistentCache(const std::string& dir);

  /// The stored value for `key`, or nullopt. Counts a hit or a miss.
  [[nodiscard]] std::optional<Value> lookup(const std::string& key);

  /// Appends (key, value) to this process's segment (created lazily)
  /// and flushes; also inserts into the in-memory index. Duplicate keys
  /// keep the first value — entries are content-keyed, so duplicates
  /// are bit-identical anyway. Write failures are swallowed: the cache
  /// is an accelerator, never a correctness dependency.
  void store(const std::string& key, const Value& value);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t hits() const noexcept;
  [[nodiscard]] std::uint64_t misses() const noexcept;
  /// Entries loaded from segments at open.
  [[nodiscard]] std::uint64_t loadedEntries() const noexcept {
    return loaded_;
  }
  /// Malformed/torn lines (and whole headerless segments) skipped at open.
  [[nodiscard]] std::uint64_t quarantinedLines() const noexcept {
    return quarantined_;
  }

 private:
  void loadSegment(const std::string& path);
  bool openOwnSegment();  // under mutex_

  std::string dir_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Value> map_;
  std::ofstream out_;
  bool writerFailed_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t loaded_ = 0;
  std::uint64_t quarantined_ = 0;
};

}  // namespace fepia::sweep

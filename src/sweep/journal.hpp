// Checkpoint journal: crash-safe shard-granular sweep persistence.
//
// A sweep appends each completed shard to a line-oriented journal and
// flushes; `--resume` replays the journal and recomputes only the shards
// without a commit marker. Format:
//
//   fepia-sweep-journal v2
//   spec <hex16-hash> points <P> chunk <C>
//   point <id> <analytic> <closed> <empirical> <degraded> <makespan> <cls>
//   ...
//   shard <s> done
//
// Doubles are written with std::hexfloat (plus nan/inf/-inf tokens) so a
// resumed value is bit-identical to the computed one — the resume
// byte-identity guarantee rests on this exact round-trip. A shard's
// point lines count only once its `shard <s> done` marker is present;
// a torn tail (crash mid-write) is therefore ignored: readJournal skips
// malformed lines (safe because appends are ordered — a durable commit
// marker implies its point lines are durable too, so debris always
// belongs to an uncommitted shard that gets re-staged on resume), and
// JournalWriter quarantines a newline-less tail behind a fresh newline
// before appending. The spec hash in the header refuses resuming a
// journal against a different sweep, and the recorded chunk refuses a
// mismatched shard layout. v2 journals count classifications as the
// pruned polish does; a v1 journal is refused (JournalVersionError)
// rather than mixing the two counts in one resumed surface.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/result.hpp"

namespace fepia::sweep {

/// The spec hash as it appears in journal headers and on the wire:
/// 16 lower-case hex digits, zero-padded.
[[nodiscard]] std::string formatSpecHash(std::uint64_t hash);

/// Exact-round-trip textual form of a double (hexfloat / nan / inf / -inf).
[[nodiscard]] std::string formatJournalDouble(double v);

/// Inverse of formatJournalDouble; false on a malformed token.
[[nodiscard]] bool parseJournalDouble(const std::string& token, double& out);

/// What a journal replay recovered.
struct JournalContents {
  std::vector<bool> shardDone;        ///< per shard: commit marker seen
  std::vector<PointResult> results;   ///< slots of undone shards are default
  std::size_t doneShards = 0;
};

/// A journal written in an older format version; the message names
/// both versions.
struct JournalVersionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Replays `path`. Throws JournalVersionError on a v1 journal, and
/// std::runtime_error when the file cannot be opened, the header does
/// not parse, or the header disagrees with (specHash, points, chunk).
/// Torn or malformed record lines are skipped, not errors; shards
/// committed after them still count.
[[nodiscard]] JournalContents readJournal(const std::string& path,
                                          std::uint64_t specHash,
                                          std::size_t points,
                                          std::size_t chunk,
                                          std::size_t shards);

/// Appends committed shards to a journal file, writing the header on
/// creation. Not thread-safe; the sweep engine serializes appendShard
/// calls under its own mutex.
class JournalWriter {
 public:
  /// Opens `path` (truncating, or appending when `append`); writes the
  /// header unless appending to an existing journal, and when appending
  /// starts with a newline if the existing file lacks a trailing one
  /// (quarantining a crash-torn tail). Throws std::runtime_error when
  /// the file cannot be opened.
  void open(const std::string& path, bool append, std::uint64_t specHash,
            std::size_t points, std::size_t chunk);

  /// Writes one completed shard (point lines + commit marker) and
  /// flushes, so a kill after return never loses the shard.
  void appendShard(std::size_t shard, std::size_t firstId,
                   const PointResult* results, std::size_t count);

  [[nodiscard]] bool active() const noexcept { return out_.is_open(); }

 private:
  std::ofstream out_;
};

}  // namespace fepia::sweep

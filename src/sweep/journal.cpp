#include "sweep/journal.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "io/parse.hpp"

namespace fepia::sweep {
namespace {

// v2: `classifications` counts the probes of the pruned polish; a v1
// journal holds the older counts and must not be mixed into a resume.
constexpr const char* kMagic = "fepia-sweep-journal v2";
constexpr const char* kMagicV1 = "fepia-sweep-journal v1";

}  // namespace

std::string formatSpecHash(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

std::string formatJournalDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // Classic locale pinned: journal bytes must be identical no matter
  // what std::locale::global an embedding process installed (a
  // comma-decimal locale would otherwise corrupt the hexfloats).
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::hexfloat << v;
  return os.str();
}

bool parseJournalDouble(const std::string& token, double& out) {
  if (token == "nan") {
    // Bit-identical to the engine's "not computed" sentinel: results only
    // ever hold the default quiet NaN, never a payload-carrying one.
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (token == "inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-inf") {
    out = -std::numeric_limits<double>::infinity();
    return true;
  }
  // io::parseFiniteDouble consumes the hexfloat format the writer emits
  // (full-token, locale-independent from_chars underneath); the
  // non-finite sentinels were already handled above, so a finite-only
  // parser is exactly right here.
  const std::optional<double> v = io::parseFiniteDouble(token);
  if (!v.has_value()) return false;
  out = *v;
  return true;
}

JournalContents readJournal(const std::string& path, std::uint64_t specHash,
                            std::size_t points, std::size_t chunk,
                            std::size_t shards) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open sweep journal '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) line.clear();
  if (line == kMagicV1) {
    throw JournalVersionError("sweep journal '" + path + "' is " + kMagicV1 +
                              "; this build reads only " + kMagic +
                              " (its classification counts differ)");
  }
  if (line != kMagic) {
    throw std::runtime_error("'" + path + "' is not a fepia sweep journal");
  }
  if (!std::getline(in, line)) {
    throw std::runtime_error("sweep journal '" + path + "': missing header");
  }
  {
    std::istringstream hs(line);
    std::string kwSpec, hash, kwPoints, kwChunk, pointsTok, chunkTok;
    if (!(hs >> kwSpec >> hash >> kwPoints >> pointsTok >> kwChunk >>
          chunkTok) ||
        kwSpec != "spec" || kwPoints != "points" || kwChunk != "chunk") {
      throw std::runtime_error("sweep journal '" + path + "': bad header");
    }
    if (hash != formatSpecHash(specHash)) {
      throw std::runtime_error(
          "sweep journal '" + path +
          "' was written for a different sweep spec (hash " + hash +
          ", expected " + formatSpecHash(specHash) + ")");
    }
    if (pointsTok != std::to_string(points) ||
        chunkTok != std::to_string(chunk)) {
      throw std::runtime_error("sweep journal '" + path +
                               "' has a different shard layout (points " +
                               pointsTok + " chunk " + chunkTok +
                               ", expected points " + std::to_string(points) +
                               " chunk " + std::to_string(chunk) + ")");
    }
  }

  JournalContents contents;
  contents.shardDone.assign(shards, false);
  contents.results.assign(points, PointResult{});

  // Point lines stage into the slots directly; only a shard's commit
  // marker makes them count. Malformed lines are skipped, not fatal:
  // appends land in file order, so a durable `shard done` marker implies
  // every point line of that append is durable before it — a malformed
  // line can only be crash debris from an append whose marker never made
  // it, and the resumed run re-stages that shard's points (overwriting
  // anything the debris staged) before committing it. Skipping therefore
  // never corrupts a committed shard, and shards committed after a torn
  // line keep counting instead of being recomputed on every resume.
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank line
    if (kind == "point") {
      std::string idTok, a, c, e, d, m, clsTok;
      if (!(ls >> idTok >> a >> c >> e >> d >> m >> clsTok)) continue;
      const std::optional<std::uint64_t> id =
          io::parseUint64AtMost(idTok, points == 0 ? 0 : points - 1);
      const std::optional<std::uint64_t> cls = io::parseUint64(clsTok);
      PointResult r;
      if (!id.has_value() || !cls.has_value() ||
          !parseJournalDouble(a, r.analyticRho) ||
          !parseJournalDouble(c, r.closedForm) ||
          !parseJournalDouble(e, r.empirical) ||
          !parseJournalDouble(d, r.degraded) ||
          !parseJournalDouble(m, r.makespan)) {
        continue;
      }
      r.classifications = *cls;
      contents.results[static_cast<std::size_t>(*id)] = r;
    } else if (kind == "shard") {
      std::string sTok, done;
      if (!(ls >> sTok >> done) || done != "done") continue;
      const std::optional<std::uint64_t> s =
          io::parseUint64AtMost(sTok, shards == 0 ? 0 : shards - 1);
      if (!s.has_value()) continue;
      const std::size_t shard = static_cast<std::size_t>(*s);
      if (!contents.shardDone[shard]) {
        contents.shardDone[shard] = true;
        ++contents.doneShards;
      }
    }
  }
  return contents;
}

void JournalWriter::open(const std::string& path, bool append,
                         std::uint64_t specHash, std::size_t points,
                         std::size_t chunk) {
  bool writeHeader = true;
  bool repairTail = false;
  if (append) {
    std::ifstream existing(path, std::ios::binary);
    writeHeader = !existing.good();
    if (!writeHeader) {
      // A crash mid-append can leave a torn, newline-less final line; a
      // fresh newline quarantines it so the first record this run writes
      // does not concatenate onto the debris.
      existing.seekg(0, std::ios::end);
      const std::streamoff size = existing.tellg();
      if (size > 0) {
        existing.seekg(size - 1);
        char last = '\n';
        existing.get(last);
        repairTail = last != '\n';
      }
    }
  }
  out_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("cannot write sweep journal '" + path + "'");
  }
  if (repairTail) out_ << '\n';
  if (writeHeader) {
    out_ << kMagic << "\n"
         << "spec " << formatSpecHash(specHash) << " points " << points
         << " chunk " << chunk << "\n";
    out_.flush();
  }
}

void JournalWriter::appendShard(std::size_t shard, std::size_t firstId,
                                const PointResult* results,
                                std::size_t count) {
  if (!out_.is_open()) return;
  for (std::size_t i = 0; i < count; ++i) {
    const PointResult& r = results[i];
    out_ << "point " << (firstId + i) << ' '
         << formatJournalDouble(r.analyticRho) << ' '
         << formatJournalDouble(r.closedForm) << ' '
         << formatJournalDouble(r.empirical) << ' '
         << formatJournalDouble(r.degraded) << ' '
         << formatJournalDouble(r.makespan) << ' ' << r.classifications
         << "\n";
  }
  out_ << "shard " << shard << " done\n";
  out_.flush();
}

}  // namespace fepia::sweep

// Walks every flag table of fepia_cli and fepiad: each flag that takes a
// value gives a typed error naming its spelling for a missing value, a
// partial token, an out-of-range number and an overflowing one; each
// sweep flag is refused outside its roles; each CLI-only flag is refused
// from a fepiad client; and each spelling appears in the usage text and
// under docs/. The parsers run in process and fail before any input is
// read, any thread started or any socket opened.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_flags.hpp"
#include "obs/clock.hpp"
#include "server/flags.hpp"
#include "server/query.hpp"
#include "server/server.hpp"
#include "support/temp_path.hpp"

namespace server = fepia::server;
namespace cli = fepia::cli;
namespace obs = fepia::obs;

namespace {

using Args = std::vector<std::string>;
using Parse = std::function<void(const Args&, bool remote)>;

/// Runs a query runner on `prefix` + `args`. Every call here is meant
/// to fail in the parse; the prefix's missing files stop one that does
/// not before it computes anything.
Parse queryParser(std::string_view kind, Args prefix) {
  return [kind, prefix](const Args& args, bool remote) {
    obs::Registry registry;
    obs::RunManifest manifest;
    const obs::Stopwatch wall;
    server::QueryContext ctx;
    ctx.registry = &registry;
    ctx.manifest = &manifest;
    ctx.wall = &wall;
    ctx.remote = remote;
    Args all = prefix;
    all.insert(all.end(), args.begin(), args.end());
    std::ostringstream out;
    (void)server::findQuery(kind)->run(all, out, ctx);
  };
}

template <class Opts>
Parse tableParser(std::span<const server::Flag> table) {
  return [table](const Args& args, bool) {
    Opts opts;
    server::parseFlags(table, args, &opts);
  };
}

struct Table {
  std::string name;
  std::span<const server::Flag> rows;
  Parse parse;
};

std::vector<Table> allTables() {
  const auto rows = [](std::string_view kind) {
    return server::findQuery(kind)->flags;
  };
  return {
      {"radius", rows("radius"), queryParser("radius", {"/nonexistent.fepia"})},
      {"validate", rows("validate"),
       queryParser("validate", {"/nonexistent.fepia"})},
      {"fault-sim", rows("fault-sim"),
       queryParser("fault-sim", {"--hiperd", "/nonexistent.hiperd"})},
      {"sweep", rows("sweep"), queryParser("sweep", {"/nonexistent.sweep"})},
      {"--hiperd", cli::kHiperdFlags,
       tableParser<cli::HiperdArgs>(cli::kHiperdFlags)},
      {"search", cli::kSearchFlags,
       tableParser<cli::SearchArgs>(cli::kSearchFlags)},
      {"profile", cli::kProfileFlags,
       tableParser<cli::ProfileArgs>(cli::kProfileFlags)},
      {"serve", server::serveFlags(),
       [](const Args& args, bool) {
         server::ServeArgs out;
         server::parseFlags(server::serveFlags(), args, &out);
       }},
      {"observability", cli::kObsFlags,
       tableParser<cli::ObsArgs>(cli::kObsFlags)},
  };
}

/// The error message `parse(args)` throws as `Error`, or a failure.
template <class Error>
std::string errorOf(const Parse& parse, const Args& args, bool remote = false) {
  try {
    parse(args, remote);
  } catch (const Error& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
    return {};
  }
  ADD_FAILURE() << "accepted";
  return {};
}

/// A value the row accepts.
std::string goodValue(const server::Flag& f) {
  switch (f.kind) {
    case server::FlagKind::Unsigned:
      return std::to_string(std::max<std::uint64_t>(f.min, 1));
    case server::FlagKind::Finite:
      return "1";
    case server::FlagKind::Choice:
      return std::string(f.metavar.substr(0, f.metavar.find('|')));
    default:
      return "x";
  }
}

/// A well-formed number (or word) outside the row's range.
std::string outOfRange(const server::Flag& f) {
  switch (f.kind) {
    case server::FlagKind::Unsigned:
      if (f.max != std::numeric_limits<std::uint64_t>::max()) {
        return std::to_string(f.max + 1);
      }
      return f.min > 0 ? std::to_string(f.min - 1) : "18446744073709551616";
    case server::FlagKind::Finite:
      return f.positive ? "0" : "-1e400";
    default:
      return "no-such-choice";
  }
}

Args withValue(const server::Flag& f, const std::string& value) {
  Args args{std::string(f.name)};
  if (f.kind != server::FlagKind::Switch) args.push_back(value);
  return args;
}

/// `text` names `flag` as a whole token ("--worker" is not found in
/// "--worker-name").
bool mentions(const std::string& text, std::string_view flag) {
  for (std::size_t at = text.find(flag); at != std::string::npos;
       at = text.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    if (end == text.size() ||
        (!std::isalnum(static_cast<unsigned char>(text[end])) &&
         text[end] != '-')) {
      return true;
    }
  }
  return false;
}

}  // namespace

TEST(Flags, EveryValueErrorIsTypedAndNamesTheFlag) {
  for (const Table& t : allTables()) {
    for (const server::Flag& f : t.rows) {
      if (f.kind == server::FlagKind::Switch) continue;
      SCOPED_TRACE(t.name + " " + std::string(f.name));
      const std::string name(f.name);
      EXPECT_EQ(errorOf<server::FlagValueError>(t.parse, {name}),
                "missing value for " + name);
      if (f.kind == server::FlagKind::Text) continue;
      for (const std::string& bad : {std::string("1.0abc"), outOfRange(f),
                                     std::string("1e999")}) {
        SCOPED_TRACE(bad);
        const std::string what =
            errorOf<server::FlagValueError>(t.parse, {name, bad});
        EXPECT_EQ(what.rfind("bad value for " + name + ": '" + bad + "'", 0),
                  0u)
            << what;
      }
    }
  }
}

TEST(Flags, ThreadCountsAreCapped) {
  for (const Table& t : allTables()) {
    for (const server::Flag& f : t.rows) {
      if (f.name != "--threads" && f.name != "--workers") continue;
      SCOPED_TRACE(t.name + " " + std::string(f.name));
      // An uncapped row would start the threads, so it is not parsed.
      if (f.max != server::kMaxThreads) {
        ADD_FAILURE() << "uncapped";
        continue;
      }
      EXPECT_NE(errorOf<server::FlagValueError>(t.parse, {std::string(f.name),
                                                          "1025"})
                    .find("1025"),
                std::string::npos);
    }
  }
  cli::SearchArgs search;
  server::parseFlags(cli::kSearchFlags, Args{"--threads", "1024"}, &search);
  EXPECT_EQ(search.threads, 1024u);
}

TEST(Flags, ValidateReadsItsInputBeforeStartingThreads) {
  // The input is a FIFO, so the query blocks in its open until this
  // thread opens the write end: the threads that exist then are all the
  // query started before reading its input.
  const std::string fifo = fepia::testing::tmpPath("problem.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  const auto before = threads();
  std::string what;
  std::thread query([&] {
    what = errorOf<std::runtime_error>(queryParser("validate", {fifo}),
                                       {"--threads", "8"});
  });
  const int fd = ::open(fifo.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(threads(), before + 1);  // the query's own thread only
  EXPECT_EQ(::write(fd, "bogus\n", 6), 6);
  ::close(fd);
  query.join();
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
}

TEST(Flags, SweepFlagsAreRefusedOutsideTheirRoles) {
  const Parse sweep = queryParser("sweep", {"/nonexistent.sweep"});
  const std::span<const server::Flag> rows = server::findQuery("sweep")->flags;
  const struct {
    unsigned role;
    Args selector;
  } roles[] = {{server::kLocal, {}},
               {server::kServe, {"--serve", "127.0.0.1:0"}},
               {server::kWorker, {"--worker", "127.0.0.1:1"}}};
  std::size_t refusals = 0;
  for (const server::Flag& f : rows) {
    for (const auto& [role, selector] : roles) {
      if ((f.where & role) != 0 || (role == server::kLocal && f.selects != 0)) {
        continue;
      }
      SCOPED_TRACE(std::string(f.name) + " in role " + std::to_string(role));
      Args args = selector;
      for (const std::string& a : withValue(f, goodValue(f))) args.push_back(a);
      const std::string what = errorOf<server::UsageError>(sweep, args);
      EXPECT_TRUE(mentions(what, f.name)) << what;
      ++refusals;
    }
  }
  // The matrix of the three roles: 17 flags, 23 refusals.
  EXPECT_EQ(refusals, 23u);
}

TEST(Flags, FepiadRefusesTheFlagsThatWriteFilesOrOpenSockets) {
  std::vector<std::string> refused;
  for (const Table& t : allTables()) {
    if (server::findQuery(t.name) == nullptr) continue;
    for (const server::Flag& f : t.rows) {
      if (!f.cliOnly) continue;
      SCOPED_TRACE(t.name + " " + std::string(f.name));
      const std::string what = errorOf<server::UsageError>(
          t.parse, withValue(f, goodValue(f)), /*remote=*/true);
      EXPECT_NE(what.find(std::string(f.name) + " is not accepted by fepiad"),
                std::string::npos)
          << what;
      refused.push_back(t.name + " " + std::string(f.name));
    }
  }
  EXPECT_EQ(refused, (std::vector<std::string>{
                         "validate --json", "fault-sim --json",
                         "sweep --journal", "sweep --cache-dir",
                         "sweep --progress", "sweep --json", "sweep --serve",
                         "sweep --worker"}));
}

TEST(Flags, EverySpellingIsInTheUsageTextAndTheDocs) {
  std::ostringstream usage;
  cli::writeCliUsage(usage, "fepia_cli");
  std::string docs;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(FEPIA_SOURCE_DIR) / "docs")) {
    std::ifstream in(entry.path());
    docs += std::string(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(docs.empty());
  for (const Table& t : allTables()) {
    for (const server::Flag& f : t.rows) {
      const std::string_view name = f.name;
      EXPECT_TRUE(mentions(usage.str(), name)) << t.name << " " << name;
      EXPECT_TRUE(mentions(docs, name))
          << t.name << " " << name << " is in no file under docs/";
    }
  }
}

TEST(Flags, ServeConfigKeysNameThemselves) {
  server::ServeConfig cfg;
  try {
    server::parseServeConfigText("max_queue = 1.0abc\n", cfg);
    FAIL() << "accepted";
  } catch (const server::FlagValueError& e) {
    EXPECT_EQ(std::string(e.what()),
              "bad value for max_queue: '1.0abc' (expected an unsigned "
              "integer)");
  }
  // --config is a flag, not a key.
  EXPECT_THROW(server::parseServeConfigText("config = x\n", cfg),
               std::invalid_argument);
}

TEST(Flags, ServeConfigFileAppliesWhereItStands) {
  const std::string path = fepia::testing::tmpPath("flags_serve.conf");
  std::ofstream(path) << "max_queue = 5\nworkers = 1\n";
  server::ServeArgs args;
  server::parseFlags(server::serveFlags(),
                     Args{"--max-queue", "9", "--config", path, "--workers",
                          "3"},
                     &args);
  EXPECT_EQ(args.config.maxQueue, 5u);  // the file overrides the flag before
  EXPECT_EQ(args.config.workers, 3u);   // and the flag after overrides it
  EXPECT_EQ(args.configPath, path);
}

// fepiad wire-level hardening: the hand-rolled JSON reader, the
// length-prefixed frame codec, and a live in-process server attacked
// with the frames a broken or hostile client would send — truncated
// prefixes, oversized declarations, garbage JSON bodies, queue floods
// and expired deadlines. Every malformed input must produce a typed
// error (or a clean close); the server must never crash or hang.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "server/wire.hpp"
#include "support/connect_storm.hpp"

namespace server = fepia::server;

namespace {

using server::Frame;
using server::FrameStatus;
using server::JsonValue;
using server::parseJson;
using server::serializeJson;

/// Loopback client with a receive timeout: a server that wedges turns
/// into an IoError assertion failure, never a hung test binary.
struct Client {
  int fd = -1;

  explicit Client(std::uint16_t port) {
    fd = server::connectLoopback(port);
    if (fd >= 0) {
      timeval tv{};
      tv.tv_sec = 30;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool send(const std::string& payload) const {
    return server::writeFrame(fd, payload);
  }
  [[nodiscard]] bool sendRaw(const std::string& bytes) const {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  [[nodiscard]] Frame read() const {
    return server::readFrame(fd, server::kDefaultMaxFrameBytes);
  }
};

server::ServeConfig testConfig(std::size_t workers = 2,
                               std::size_t maxQueue = 64) {
  server::ServeConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.workers = workers;
  cfg.threads = 2;
  cfg.maxQueue = maxQueue;
  return cfg;
}

/// Parsed reply fields, extracted once so assertions stay one-liners.
struct Reply {
  std::string id;    ///< re-serialized id echo
  bool ok = false;
  std::string output;
  std::string code;  ///< error code when !ok
  std::string message;
};

Reply decodeReply(const std::string& payload) {
  Reply r;
  std::string error;
  const std::optional<JsonValue> doc = parseJson(payload, &error);
  EXPECT_TRUE(doc.has_value()) << error << " in: " << payload;
  if (!doc.has_value()) return r;
  if (const JsonValue* id = doc->find("id")) r.id = serializeJson(*id);
  if (const JsonValue* ok = doc->find("ok")) r.ok = ok->boolean;
  if (const JsonValue* out = doc->find("output")) r.output = out->string;
  if (const JsonValue* err = doc->find("error")) {
    if (const JsonValue* code = err->find("code")) r.code = code->string;
    if (const JsonValue* msg = err->find("message")) r.message = msg->string;
  }
  return r;
}

Reply readReply(const Client& client) {
  const Frame frame = client.read();
  EXPECT_EQ(frame.status, FrameStatus::Ok);
  return decodeReply(frame.payload);
}

std::string pingRequest(const std::string& id, std::uint64_t sleepMs = 0,
                        std::uint64_t deadlineMs = 0) {
  std::ostringstream os;
  os << "{\"id\":\"" << id << "\",\"kind\":\"ping\"";
  if (sleepMs != 0) os << ",\"sleep_ms\":" << sleepMs;
  if (deadlineMs != 0) os << ",\"deadline_ms\":" << deadlineMs;
  os << "}";
  return os.str();
}

double parsedNumber(const std::string& text) {
  const std::optional<JsonValue> v = parseJson(text);
  EXPECT_TRUE(v.has_value()) << text;
  EXPECT_TRUE(v.has_value() && v->isNumber()) << text;
  return v.has_value() ? v->number : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------
// JSON reader.

TEST(ServerWire, JsonParserAcceptsTheRequestGrammar) {
  const std::optional<JsonValue> doc = parseJson(
      "{\"id\": 7, \"kind\": \"sweep\", \"args\": [\"a\", \"--csv\"],\n"
      "  \"stream\": true, \"deadline_ms\": 250.0, \"extra\": null}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->isObject());
  EXPECT_DOUBLE_EQ(doc->find("id")->number, 7.0);
  EXPECT_EQ(doc->find("kind")->string, "sweep");
  ASSERT_EQ(doc->find("args")->array.size(), 2u);
  EXPECT_EQ(doc->find("args")->array[1].string, "--csv");
  EXPECT_TRUE(doc->find("stream")->boolean);
  EXPECT_DOUBLE_EQ(doc->find("deadline_ms")->number, 250.0);
  EXPECT_TRUE(doc->find("extra")->isNull());
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(ServerWire, JsonParserDecodesStringEscapes) {
  const std::optional<JsonValue> v =
      parseJson("\"a\\\"b\\\\c\\/d\\n\\t\\u0041\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(v.has_value());
  // \u00e9 is é (C3 A9); the surrogate pair is U+1F600 (F0 9F 98 80).
  EXPECT_EQ(v->string, std::string("a\"b\\c/d\n\tA\xC3\xA9\xF0\x9F\x98\x80"));
}

TEST(ServerWire, JsonParserRejectsMalformedDocuments) {
  const char* bad[] = {
      "",
      "{\"a\":1} trailing",
      "01",            // leading zero
      "-01",
      "1.",            // empty fraction
      "+1",            // JSON forbids leading '+'
      ".5",
      "1e",            // empty exponent
      "nul",
      "tru",
      "[1,]",
      "[1 2]",
      "{\"a\" 1}",
      "{\"a\":1",
      "{a:1}",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"\\ud83d\"",       // unpaired high surrogate
      "\"\\ude00\"",       // lone low surrogate
      "\"\\ud83d\\u0041\"",
      "\"ctrl \x01 char\"",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(parseJson(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // Nesting beyond the depth cap is rejected, not recursed into.
  std::string deep(80, '[');
  deep += std::string(80, ']');
  std::string error;
  EXPECT_FALSE(parseJson(deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(ServerWire, JsonNumbersSaturateInsteadOfFailing) {
  EXPECT_TRUE(std::isinf(parsedNumber("1e999")));
  EXPECT_GT(parsedNumber("1e999"), 0.0);
  EXPECT_TRUE(std::isinf(parsedNumber("-1e999")));
  EXPECT_LT(parsedNumber("-1e999"), 0.0);
  EXPECT_DOUBLE_EQ(parsedNumber("1e-999"), 0.0);
  EXPECT_DOUBLE_EQ(parsedNumber("-2.5e-4"), -2.5e-4);
  EXPECT_DOUBLE_EQ(parsedNumber("1.25E2"), 125.0);
}

TEST(ServerWire, SerializeRoundTripsRequestIds) {
  // The server echoes ids by re-serializing the parsed value; every id
  // shape a client might send must survive the round trip.
  for (const char* id : {"null", "true", "42", "-7.5", "\"req-1\"",
                         "[1,\"a\"]", "{\"node\":\"x\",\"seq\":3}"}) {
    const std::optional<JsonValue> v = parseJson(id);
    ASSERT_TRUE(v.has_value()) << id;
    EXPECT_EQ(serializeJson(*v), id);
  }
}

// ---------------------------------------------------------------------
// Frame codec.

TEST(ServerWire, FrameCodecRoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string framed = server::encodeFrame("{\"kind\":\"ping\"}") +
                             server::encodeFrame("");
  ASSERT_EQ(::write(fds[1], framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  Frame a = server::readFrame(fds[0], 1024);
  EXPECT_EQ(a.status, FrameStatus::Ok);
  EXPECT_EQ(a.payload, "{\"kind\":\"ping\"}");
  Frame b = server::readFrame(fds[0], 1024);
  EXPECT_EQ(b.status, FrameStatus::Ok);
  EXPECT_TRUE(b.payload.empty());
  ::close(fds[1]);
  EXPECT_EQ(server::readFrame(fds[0], 1024).status, FrameStatus::Eof);
  ::close(fds[0]);
}

TEST(ServerWire, FrameCodecFlagsTruncation) {
  {  // EOF inside the 4-byte prefix.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "\x00\x00", 2), 2);
    ::close(fds[1]);
    EXPECT_EQ(server::readFrame(fds[0], 1024).status, FrameStatus::Truncated);
    ::close(fds[0]);
  }
  {  // EOF inside the declared payload.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string partial = server::encodeFrame("0123456789").substr(0, 9);
    ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
    ::close(fds[1]);
    EXPECT_EQ(server::readFrame(fds[0], 1024).status, FrameStatus::Truncated);
    ::close(fds[0]);
  }
}

TEST(ServerWire, FrameCodecFlagsOversizedWithoutConsuming) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string big(1000, 'x');
  const std::string framed = server::encodeFrame(big);
  ASSERT_EQ(::write(fds[1], framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  const Frame f = server::readFrame(fds[0], 100);
  EXPECT_EQ(f.status, FrameStatus::Oversized);
  EXPECT_EQ(f.declaredBytes, 1000u);
  EXPECT_TRUE(f.payload.empty());  // payload deliberately not consumed
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Config parsing / hot reload.

TEST(ServerWire, ConfigParserAppliesEveryKey) {
  server::ServeConfig cfg;
  server::parseServeConfigText(
      "# fepiad config\n"
      "bind = 127.0.0.1\n"
      "port = 9100\n"
      "\n"
      "workers = 3\n"
      "threads = 4\n"
      "max_queue = 7\n"
      "max_frame_bytes = 65536\n"
      "deadline_ms = 1500\n",
      cfg);
  EXPECT_EQ(cfg.bindAddress, "127.0.0.1");
  EXPECT_EQ(cfg.port, 9100);
  EXPECT_EQ(cfg.workers, 3u);
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.maxQueue, 7u);
  EXPECT_EQ(cfg.maxFrameBytes, 65536u);
  EXPECT_EQ(cfg.defaultDeadlineMs, 1500u);
}

TEST(ServerWire, ConfigParserRejectsBadInput) {
  const auto expectReject = [](const std::string& text,
                               const std::string& expect) {
    server::ServeConfig cfg;
    try {
      server::parseServeConfigText(text, cfg);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << "message for '" << text << "' was: " << e.what();
    }
  };
  expectReject("frobnicate = 1\n", "unknown config key");
  expectReject("workers\n", "key = value");
  expectReject("workers = 0\n", "workers");
  expectReject("max_queue = 0\n", "max_queue");
  expectReject("max_frame_bytes = 8\n", "max_frame_bytes");
  expectReject("port = 70000\n", "port");
  expectReject("deadline_ms = soon\n", "deadline_ms");

  // The `serve` flags share the setter; each error names the flag.
  const auto expectFlagReject = [](const std::string& flag,
                                   const std::string& value) {
    server::ServeArgs args;
    try {
      server::parseFlags(server::serveFlags(),
                         std::vector<std::string>{flag, value}, &args);
      FAIL() << "accepted: " << flag << " " << value;
    } catch (const server::FlagValueError& e) {
      EXPECT_NE(std::string(e.what()).find("bad value for " + flag + ": '" +
                                           value + "'"),
                std::string::npos)
          << "message for " << flag << " " << value << " was: " << e.what();
    }
  };
  expectFlagReject("--workers", "0");
  expectFlagReject("--max-queue", "0");
  expectFlagReject("--max-frame", "8");
  expectFlagReject("--port", "70000");
  expectFlagReject("--deadline-ms", "soon");
  expectFlagReject("--threads", "-1");

  // Thread and worker counts are capped: each starts an OS thread.
  expectFlagReject("--threads", "1025");
  expectFlagReject("--workers", "1025");
  expectReject("threads = 1025\n", "threads");
  expectReject("workers = 1025\n", "workers");

  server::ServeArgs args;
  const auto parse = [&args](std::vector<std::string> flags) {
    server::parseFlags(server::serveFlags(), flags, &args);
  };
  EXPECT_THROW(parse({"--frobnicate", "1"}), server::UsageError);
  EXPECT_THROW(parse({"max_frame_bytes", "64"}), server::UsageError);
  parse({"--max-frame", "64", "--threads", "1024"});
  EXPECT_EQ(args.config.maxFrameBytes, 64u);
  EXPECT_EQ(args.config.threads, 1024u);
  server::ServeConfig cfg;
  EXPECT_THROW(server::parseServeConfigFile("/nonexistent/fepiad.conf", cfg),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Live server.

TEST(ServerWire, PingPongAndStats) {
  server::Server srv(testConfig());
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(pingRequest("a")));
  const Reply pong = readReply(client);
  EXPECT_EQ(pong.id, "\"a\"");
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.output, "pong\n");

  ASSERT_TRUE(client.send("{\"id\":2,\"kind\":\"stats\"}"));
  const Frame frame = client.read();
  ASSERT_EQ(frame.status, FrameStatus::Ok);
  const std::optional<JsonValue> doc = parseJson(frame.payload);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* json = doc->find("json");
  ASSERT_NE(json, nullptr);
  ASSERT_TRUE(json->isString());
  const std::optional<JsonValue> stats = parseJson(json->string);
  ASSERT_TRUE(stats.has_value()) << json->string;
  EXPECT_GE(stats->find("accepted")->number, 1.0);
  EXPECT_GE(stats->find("served")->number, 1.0);
  EXPECT_GE(stats->find("pool_threads")->number, 1.0);
  ASSERT_NE(stats->find("cache"), nullptr);
  EXPECT_NE(stats->find("cache")->find("sweep_hits"), nullptr);

  srv.stop();
  EXPECT_GE(srv.stats().served, 2u);
}

TEST(ServerWire, StoppedServerLeavesItsFinalGaugesInTheHub) {
  // The hub's closing sample is taken after the server has stopped and
  // unhooked its gauge source; it must still say what was served.
  std::ostringstream sink;
  fepia::obs::TelemetryOptions topts;
  topts.intervalMillis = 60'000;  // only the start and stop samples
  fepia::obs::TelemetryHub hub(topts, &sink);
  hub.start();
  {
    server::Server srv(testConfig(), &hub);
    std::string error;
    ASSERT_TRUE(srv.start(&error)) << error;
    Client client(srv.port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(client.send(pingRequest("a")));
    EXPECT_TRUE(readReply(client).ok);
    srv.stop();
  }
  hub.stop();

  std::optional<JsonValue> last;
  std::istringstream in(sink.str());
  for (std::string line; std::getline(in, line);) {
    std::optional<JsonValue> doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const JsonValue* type = doc->find("type");
    if (type != nullptr && type->string == "sample") last = std::move(doc);
  }
  ASSERT_TRUE(last.has_value());
  const JsonValue* gauges = last->find("metrics")->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* served = gauges->find("fepiad.requests_served");
  ASSERT_NE(served, nullptr) << sink.str();
  EXPECT_GE(served->number, 1.0);
  EXPECT_NE(gauges->find("fepiad.queue_depth"), nullptr);
}

TEST(ServerWire, GarbageJsonGetsTypedErrorAndTheConnectionSurvives) {
  server::Server srv(testConfig());
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  // The payload is length-delimited, so framing survives a garbage body.
  ASSERT_TRUE(client.send("{nope, not json"));
  const Reply err = readReply(client);
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, "bad_frame");
  EXPECT_NE(err.message.find("invalid JSON"), std::string::npos);

  ASSERT_TRUE(client.send(pingRequest("after")));
  const Reply pong = readReply(client);
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, "\"after\"");
  srv.stop();
}

TEST(ServerWire, BadRequestsKeepTheConnection) {
  server::Server srv(testConfig());
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  const struct {
    const char* payload;
    const char* expect;
  } cases[] = {
      {"{\"id\":1}", "string \"kind\""},
      {"{\"id\":2,\"kind\":\"frobnicate\"}", "unknown kind"},
      {"{\"id\":3,\"kind\":\"radius\",\"args\":\"not-an-array\"}",
       "must be an array"},
      {"{\"id\":4,\"kind\":\"radius\",\"args\":[1,2]}", "only strings"},
      {"{\"id\":5,\"kind\":\"ping\",\"deadline_ms\":-10}", "non-negative"},
      {"[\"not\",\"an\",\"object\"]", "JSON object"},
      // Numeric fields go through one checked conversion: a value no
      // integer type holds is a typed error, never an undefined cast.
      {"{\"id\":6,\"kind\":\"ping\",\"deadline_ms\":1e999}", "non-negative"},
      {"{\"id\":7,\"kind\":\"ping\",\"deadline_ms\":1e300}", "non-negative"},
      {"{\"id\":8,\"kind\":\"ping\",\"deadline_ms\":\"soon\"}",
       "non-negative"},
      {"{\"id\":9,\"kind\":\"ping\",\"sleep_ms\":-5}", "\"sleep_ms\""},
      {"{\"id\":10,\"kind\":\"ping\",\"sleep_ms\":1e999}", "\"sleep_ms\""},
      {"{\"id\":11,\"kind\":\"ping\",\"sleep_ms\":-1e999}", "\"sleep_ms\""},
      // A client may not make the server write files or open sockets.
      {"{\"id\":12,\"kind\":\"validate\",\"args\":[\"p.fepia\",\"--samples\","
       "\"16\",\"--json\",\"evil.json\"]}",
       "--json"},
      {"{\"id\":13,\"kind\":\"fault-sim\",\"args\":[\"--json\",\"x.json\"]}",
       "--json"},
      {"{\"id\":14,\"kind\":\"sweep\",\"args\":[\"s.sweep\",\"--journal\","
       "\"j.log\"]}",
       "--journal"},
      {"{\"id\":15,\"kind\":\"sweep\",\"args\":[\"s.sweep\",\"--cache-dir\","
       "\"dir\"]}",
       "--cache-dir"},
      {"{\"id\":16,\"kind\":\"sweep\",\"args\":[\"s.sweep\",\"--serve\","
       "\"127.0.0.1:0\"]}",
       "--serve"},
      {"{\"id\":17,\"kind\":\"sweep\",\"args\":[\"s.sweep\",\"--worker\","
       "\"127.0.0.1:1\"]}",
       "--worker"},
      // Nor write to the daemon's stderr: progress reaches a client
      // through "stream": true.
      {"{\"id\":20,\"kind\":\"sweep\",\"args\":[\"s.sweep\",\"--progress\"]}",
       "--progress"},
      // Flag values are checked before any input is read.
      {"{\"id\":18,\"kind\":\"fault-sim\",\"args\":[\"--samples\",\"abc\"]}",
       "bad value for --samples"},
      {"{\"id\":19,\"kind\":\"validate\",\"args\":[\"p.fepia\",\"--seed\"]}",
       "missing value for --seed"},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(client.send(c.payload));
    const Reply r = readReply(client);
    EXPECT_FALSE(r.ok) << c.payload;
    EXPECT_EQ(r.code, "bad_request") << c.payload;
    EXPECT_NE(r.message.find(c.expect), std::string::npos)
        << "message for " << c.payload << " was: " << r.message;
  }
  // Twenty-one typed rejections later the connection still answers.
  ASSERT_TRUE(client.send(pingRequest("alive")));
  EXPECT_TRUE(readReply(client).ok);
  srv.stop();
  EXPECT_EQ(srv.stats().errors, 21u);
}

TEST(ServerWire, TruncatedPrefixNeverWedgesTheServer) {
  server::Server srv(testConfig());
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;
  {
    Client half(srv.port());
    ASSERT_GE(half.fd, 0);
    ASSERT_TRUE(half.sendRaw(std::string("\x00\x00", 2)));
  }  // close mid-prefix
  // A fresh connection is served normally afterwards.
  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(pingRequest("ok")));
  EXPECT_TRUE(readReply(client).ok);
  srv.stop();
}

TEST(ServerWire, OversizedFrameIsRejectedAndTheConnectionCloses) {
  server::ServeConfig cfg = testConfig();
  cfg.maxFrameBytes = 64;
  server::Server srv(cfg);
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  // Send only the prefix declaring 5000 bytes — the server must reject
  // on the declaration alone, without waiting for a payload that never
  // comes, then close (the stream cannot be re-synchronized).
  std::string prefix;
  prefix += '\x00';
  prefix += '\x00';
  prefix += static_cast<char>(5000 >> 8);
  prefix += static_cast<char>(5000 & 0xFF);
  ASSERT_TRUE(client.sendRaw(prefix));
  const Reply err = readReply(client);
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, "bad_frame");
  EXPECT_NE(err.message.find("cap"), std::string::npos) << err.message;
  EXPECT_EQ(client.read().status, FrameStatus::Eof);
  srv.stop();
}

TEST(ServerWire, ReloadTightensTheFrameCapOnALiveServer) {
  server::Server srv(testConfig());
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  const std::string fat = "{\"id\":\"fat\",\"kind\":\"ping\",\"pad\":\"" +
                          std::string(200, 'x') + "\"}";
  ASSERT_TRUE(client.send(fat));
  EXPECT_TRUE(readReply(client).ok);

  server::ServeConfig tighter = testConfig();
  tighter.maxFrameBytes = 64;
  srv.reload(tighter);
  // Hot reload never drops the connection: the reader is parked inside
  // readFrame with the old cap, so one in-flight frame still passes...
  ASSERT_TRUE(client.send(pingRequest("still-alive")));
  EXPECT_TRUE(readReply(client).ok);
  // ...and the next read picks up the tightened cap. Send only the
  // prefix — the rejection must come from the declaration alone, and
  // with no unread payload in flight the close is a clean FIN (a
  // payload the server never reads could turn into a RST that races
  // the error frame).
  std::string prefix;
  prefix += '\x00';
  prefix += '\x00';
  prefix += '\x00';
  prefix += static_cast<char>(fat.size());
  ASSERT_TRUE(client.sendRaw(prefix));
  const Reply err = readReply(client);
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.code, "bad_frame");
  EXPECT_NE(err.message.find("cap"), std::string::npos) << err.message;
  EXPECT_EQ(client.read().status, FrameStatus::Eof);
  srv.stop();
}

TEST(ServerWire, OverloadedWhenTheQueueIsFull) {
  server::Server srv(testConfig(/*workers=*/1, /*maxQueue=*/1));
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  // Occupy the single worker...
  ASSERT_TRUE(client.send(pingRequest("slow", /*sleepMs=*/400)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // ...fill the one queue slot...
  ASSERT_TRUE(client.send(pingRequest("queued", /*sleepMs=*/1)));
  // ...and the next request must be rejected immediately, not queued.
  ASSERT_TRUE(client.send(pingRequest("rejected")));

  std::map<std::string, Reply> replies;
  for (int i = 0; i < 3; ++i) {
    const Reply r = readReply(client);
    replies[r.id] = r;
  }
  EXPECT_TRUE(replies["\"slow\""].ok);
  EXPECT_TRUE(replies["\"queued\""].ok);
  EXPECT_FALSE(replies["\"rejected\""].ok);
  EXPECT_EQ(replies["\"rejected\""].code, "overloaded");
  EXPECT_NE(replies["\"rejected\""].message.find("queue is full"),
            std::string::npos);
  srv.stop();
  EXPECT_EQ(srv.stats().overloaded, 1u);
}

TEST(ServerWire, ExpiredQueueWaitGetsADeadlineError) {
  server::Server srv(testConfig(/*workers=*/1));
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(pingRequest("slow", /*sleepMs=*/400)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Sits in the queue ~300 ms against a 50 ms deadline.
  ASSERT_TRUE(client.send(pingRequest("late", /*sleepMs=*/0,
                                      /*deadlineMs=*/50)));

  std::map<std::string, Reply> replies;
  for (int i = 0; i < 2; ++i) {
    const Reply r = readReply(client);
    replies[r.id] = r;
  }
  EXPECT_TRUE(replies["\"slow\""].ok);
  EXPECT_FALSE(replies["\"late\""].ok);
  EXPECT_EQ(replies["\"late\""].code, "deadline");
  EXPECT_NE(replies["\"late\""].message.find("waited"), std::string::npos);
  srv.stop();
  EXPECT_EQ(srv.stats().deadlineExpired, 1u);
}

TEST(ServerWire, ShutdownDrainsEveryAcceptedRequest) {
  server::Server srv(testConfig(/*workers=*/1));
  std::string error;
  ASSERT_TRUE(srv.start(&error)) << error;

  Client client(srv.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(pingRequest("inflight", /*sleepMs=*/300)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.send(pingRequest("queued")));
  ASSERT_TRUE(client.send("{\"id\":\"bye\",\"kind\":\"shutdown\"}"));

  // All three accepted requests get responses: the shutdown ack and, as
  // the worker drains, both pongs — nothing is dropped.
  std::map<std::string, Reply> replies;
  for (int i = 0; i < 3; ++i) {
    const Reply r = readReply(client);
    replies[r.id] = r;
  }
  EXPECT_TRUE(replies["\"bye\""].ok);
  EXPECT_EQ(replies["\"bye\""].output, "shutting down\n");
  EXPECT_TRUE(replies["\"inflight\""].ok);
  EXPECT_TRUE(replies["\"queued\""].ok);
  EXPECT_TRUE(srv.stopping());
  srv.stop();
  EXPECT_EQ(srv.stats().served, 3u);
}

TEST(ServerWire, StopIsPromptWhileIdleConnectionsKeepArriving) {
  // A connection accepted while stop() runs must be shut down by it too;
  // one that slips through parks its reader until the client hangs up.
  for (int round = 0; round < 100; ++round) {
    server::Server srv(testConfig(/*workers=*/1));
    std::string error;
    ASSERT_TRUE(srv.start(&error)) << error;
    const auto took = fepia::testing::stopDuringConnectStorm(
        srv.port(), round, [&srv] { srv.stop(); });
    ASSERT_LT(took, fepia::testing::kStopBound) << "round " << round;
  }
}

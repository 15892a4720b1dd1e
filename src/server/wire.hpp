// The wire protocol fepiad and the distributed sweep coordinator both
// speak: length-prefixed JSON frames over a stream socket, the small
// hand-rolled JSON reader that decodes them (the tree's one JSON
// parser; obs/json.hpp only writes JSON), and the request/reply codec
// the two services share: the readRequest rules and the writeOk /
// writeError envelopes, whose members are built with obs::JsonFields,
// the same builder that writes telemetry events.
//
// Framing: every message is a 4-byte big-endian payload length followed
// by exactly that many bytes of UTF-8 JSON. The prefix makes message
// boundaries explicit — a reader never has to parse JSON incrementally
// off a socket — and gives the server a cheap admission check: a frame
// whose declared length exceeds the configured cap is rejected before a
// single payload byte is read.
//
// Requests:  {"id": <any>, "kind": "<service-defined>", ...}
// Success:   {"id": <echo>, "ok": true, <kind-specific members>}
// Error:     {"id": <echo>, "ok": false, "error": {"code":
//             "bad_frame|bad_request|<service-defined>", "message": "..."}}
//
// readRequest applies the rules both services share: an oversized frame
// is answered `bad_frame` and the connection closes (its unread payload
// leaves the stream unusable); a payload that is not JSON is answered
// `bad_frame` and the connection stays open (the frame was
// length-delimited); a document that is not an object with a string
// "kind" is answered `bad_request`. fepiad's kinds and members are in
// server/server.hpp, the coordinator's in server/dist_sweep.hpp.
//
// The JSON reader is deliberately small: UTF-8 passthrough, \uXXXX
// decoded to UTF-8 (surrogate pairs included), numbers via
// std::from_chars (locale-immune, round-trip exact), objects kept as
// insertion-ordered key/value vectors, recursion capped at kMaxDepth.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace fepia::server {

// ---------------------------------------------------------------------
// JSON values.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Insertion-ordered object (request objects are tiny; linear lookup).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  JsonArray array;
  JsonObject object;

  [[nodiscard]] bool isNull() const noexcept { return kind == Kind::Null; }
  [[nodiscard]] bool isString() const noexcept {
    return kind == Kind::String;
  }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind == Kind::Number;
  }
  [[nodiscard]] bool isObject() const noexcept {
    return kind == Kind::Object;
  }
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). On failure returns nullopt and, when
/// `error` is non-null, a one-line diagnostic.
[[nodiscard]] std::optional<JsonValue> parseJson(const std::string& text,
                                                 std::string* error = nullptr);

/// Serializes a value back to compact JSON (numbers in the repo's
/// %.17g round-trip form, non-finite numbers as null). Used to echo
/// request ids verbatim into responses.
[[nodiscard]] std::string serializeJson(const JsonValue& value);

// ---------------------------------------------------------------------
// Framing over file descriptors.

/// Hard ceiling a server will accept unless configured lower.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;  // 4 MiB

enum class FrameStatus {
  Ok,         ///< payload holds a complete frame
  Eof,        ///< clean EOF on a frame boundary
  Truncated,  ///< EOF mid-prefix or mid-payload
  Oversized,  ///< declared length exceeds the cap (stream unusable)
  IoError,    ///< read(2) failed
};

struct Frame {
  FrameStatus status = FrameStatus::Eof;
  std::string payload;               ///< valid when status == Ok
  std::uint32_t declaredBytes = 0;   ///< prefix value (set for Oversized)
};

/// Reads one frame, blocking until it is complete or the stream ends.
[[nodiscard]] Frame readFrame(int fd, std::size_t maxBytes);

/// Writes `payload` as one frame (prefix + body, full write, SIGPIPE
/// suppressed). Returns false on any write failure.
[[nodiscard]] bool writeFrame(int fd, const std::string& payload);

/// Prepends the 4-byte big-endian prefix — exposed so tests can forge
/// deliberately broken frames next to well-formed ones.
[[nodiscard]] std::string encodeFrame(const std::string& payload);

/// Connects to 127.0.0.1:port; returns the fd or -1. The loopback-only
/// client used by the tests, the bench load generator and ci.sh.
[[nodiscard]] int connectLoopback(std::uint16_t port);

/// Connects to host:port (numeric IPv4 or a resolvable name); returns
/// the fd or -1. The distributed sweep worker's client side.
[[nodiscard]] int connectHost(const std::string& host, std::uint16_t port);

// ---------------------------------------------------------------------
// Connections and the request/reply codec.

/// One accepted client connection. Writers serialize on writeMutex so a
/// progress frame from a streaming sweep can never interleave with the
/// final response frame. The last shared_ptr owner closes the fd.
struct Connection {
  explicit Connection(int fileDescriptor) : fd(fileDescriptor) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Frames and writes `payload`; marks the connection dead on any
  /// write failure (EPIPE shows up here, not as SIGPIPE).
  bool write(const std::string& payload);

  int fd;
  std::mutex writeMutex;
  std::atomic<bool> open{true};
};

/// One decoded request.
struct WireRequest {
  JsonValue doc;            ///< the request object
  std::string kind;         ///< its string "kind"
  std::string id = "null";  ///< its "id" re-serialized, echoed in replies
};

enum class ReadStatus {
  Request,   ///< a request is ready to dispatch
  Answered,  ///< the frame got a typed error; the connection stays open
  Closed,    ///< end of stream, or an oversized frame got bad_frame
};

/// Reads one frame from `conn` and applies the shared rules above,
/// answering what they reject. On Request, `request` holds the frame.
/// `errors`, when non-null, counts every typed error written.
[[nodiscard]] ReadStatus readRequest(Connection& conn, std::size_t maxBytes,
                                     WireRequest& request,
                                     std::atomic<std::uint64_t>* errors =
                                         nullptr);

/// Answers `id` with {"id":<id>,"ok":true<fields>} (a no-op once the
/// connection is gone).
void writeOk(Connection& conn, const std::string& id,
             const obs::JsonFields& fields);

/// Answers `id` with {"id":<id>,"ok":false,"error":{"code":<code>,
/// "message":<message>}}, counting it in `errors` when non-null.
void writeError(Connection& conn, const std::string& id, const char* code,
                const std::string& message,
                std::atomic<std::uint64_t>* errors = nullptr);

/// The one checked conversion for numeric fields: `value` as an
/// unsigned integer no larger than `max`, truncating a fraction as a
/// cast would. nullopt when `value` is null (absent), not a number,
/// negative, not finite or out of range — never an undefined cast.
[[nodiscard]] std::optional<std::uint64_t> toCount(
    const JsonValue* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace fepia::server

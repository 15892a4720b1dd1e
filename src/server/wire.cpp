#include "server/wire.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>

#include "io/parse.hpp"
#include "obs/json.hpp"

namespace fepia::server {
namespace {

/// Deeper documents are rejected, never recursed into (requests are
/// flat; this only bounds adversarial input).
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!parseValue(v, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing garbage after JSON document";
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* message) {
    error_ = std::string(message) + " at byte " + std::to_string(pos_);
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::String;
        return parseString(out.string);
      case '[':
        return parseArray(out, depth);
      case '{':
        return parseObject(out, depth);
      default:
        return parseNumber(out);
    }
  }

  bool parseNumber(JsonValue& out) {
    // Validate the JSON number grammar by hand (from_chars is laxer:
    // it accepts "1." and leading '+'), then convert the exact token.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return fail("bad number");
    if (digits > 1 && text_[start + (text_[start] == '-' ? 1u : 0u)] == '0') {
      return fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t frac = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::size_t exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return fail("bad number");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ptr != last ||
        (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      return fail("bad number");
    }
    // Overflow saturates to +-inf, underflow to +-0, like every JSON
    // reader in practice; from_chars flags both without distinguishing
    // them (and stores nothing), so re-convert the validated token.
    if (ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      char* end = nullptr;
      value = io::strtodCLocale(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return fail("bad number");
    }
    out.kind = JsonValue::Kind::Number;
    out.number = value;
    return true;
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parseHex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    return true;
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parseHex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate — requires a paired \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parseHex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::Array;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue elem;
      if (!parseValue(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::Object;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void serializeInto(obs::JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Null:
      w.null();
      break;
    case JsonValue::Kind::Bool:
      w.boolean(v.boolean);
      break;
    case JsonValue::Kind::Number:
      w.num(v.number);
      break;
    case JsonValue::Kind::String:
      w.str(v.string);
      break;
    case JsonValue::Kind::Array:
      w.array(obs::JsonLayout::Compact);
      for (const JsonValue& element : v.array) serializeInto(w, element);
      w.end();
      break;
    case JsonValue::Kind::Object:
      w.object(obs::JsonLayout::Compact);
      for (const auto& [name, member] : v.object) {
        serializeInto(w.key(name), member);
      }
      w.end();
      break;
  }
}

/// Reads exactly `n` bytes, retrying on EINTR. Returns the byte count
/// actually read (< n only on EOF) or -1 on a read error.
ssize_t readFull(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

bool writeAll(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, never SIGPIPE —
    // the server must survive clients vanishing mid-response.
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> parseJson(const std::string& text,
                                   std::string* error) {
  return Parser(text).parse(error);
}

std::string serializeJson(const JsonValue& value) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  serializeInto(w, value);
  return os.str();
}

Frame readFrame(int fd, std::size_t maxBytes) {
  Frame frame;
  unsigned char prefix[4];
  const ssize_t got =
      readFull(fd, reinterpret_cast<char*>(prefix), sizeof(prefix));
  if (got < 0) {
    frame.status = FrameStatus::IoError;
    return frame;
  }
  if (got == 0) {
    frame.status = FrameStatus::Eof;
    return frame;
  }
  if (got < static_cast<ssize_t>(sizeof(prefix))) {
    frame.status = FrameStatus::Truncated;
    return frame;
  }
  const std::uint32_t n = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                          (static_cast<std::uint32_t>(prefix[1]) << 16) |
                          (static_cast<std::uint32_t>(prefix[2]) << 8) |
                          static_cast<std::uint32_t>(prefix[3]);
  frame.declaredBytes = n;
  if (n > maxBytes) {
    // The payload is deliberately not consumed: a multi-gigabyte
    // declared length must not make the server read it all just to
    // resync. The connection is unusable after this.
    frame.status = FrameStatus::Oversized;
    return frame;
  }
  frame.payload.resize(n);
  const ssize_t body = n == 0 ? 0 : readFull(fd, frame.payload.data(), n);
  if (body < 0) {
    frame.status = FrameStatus::IoError;
    return frame;
  }
  if (body < static_cast<ssize_t>(n)) {
    frame.status = FrameStatus::Truncated;
    return frame;
  }
  frame.status = FrameStatus::Ok;
  return frame;
}

std::string encodeFrame(const std::string& payload) {
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  out += payload;
  return out;
}

bool writeFrame(int fd, const std::string& payload) {
  const std::string framed = encodeFrame(payload);
  return writeAll(fd, framed.data(), framed.size());
}

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connectHost(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

// ---------------------------------------------------------------------

Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

bool Connection::write(const std::string& payload) {
  const std::lock_guard<std::mutex> lock(writeMutex);
  if (!open.load(std::memory_order_relaxed)) return false;
  if (!writeFrame(fd, payload)) {
    open.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

ReadStatus readRequest(Connection& conn, std::size_t maxBytes,
                       WireRequest& request,
                       std::atomic<std::uint64_t>* errors) {
  const Frame frame = readFrame(conn.fd, maxBytes);
  if (frame.status == FrameStatus::Oversized) {
    // The payload bytes were never read, so the stream cannot be
    // re-synchronized — reject and close.
    writeError(conn, "null", "bad_frame",
               "frame of " + std::to_string(frame.declaredBytes) +
                   " bytes exceeds the " + std::to_string(maxBytes) +
                   "-byte cap",
               errors);
    return ReadStatus::Closed;
  }
  if (frame.status != FrameStatus::Ok) return ReadStatus::Closed;

  std::string parseError;
  std::optional<JsonValue> doc = parseJson(frame.payload, &parseError);
  if (!doc.has_value()) {
    writeError(conn, "null", "bad_frame", "invalid JSON: " + parseError,
               errors);
    return ReadStatus::Answered;
  }
  request.id = "null";
  if (const JsonValue* id = doc->find("id")) request.id = serializeJson(*id);
  const JsonValue* kind = doc->find("kind");
  if (kind == nullptr || !kind->isString()) {
    writeError(conn, request.id, "bad_request",
               "request must be a JSON object with a string \"kind\"",
               errors);
    return ReadStatus::Answered;
  }
  request.kind = kind->string;
  request.doc = std::move(*doc);
  return ReadStatus::Request;
}

void writeOk(Connection& conn, const std::string& id,
             const obs::JsonFields& fields) {
  obs::JsonFields frame;
  frame.raw("id", id).boolean("ok", true).append(fields);
  conn.write(frame.object());
}

void writeError(Connection& conn, const std::string& id, const char* code,
                const std::string& message,
                std::atomic<std::uint64_t>* errors) {
  if (errors != nullptr) errors->fetch_add(1, std::memory_order_relaxed);
  obs::JsonFields error;
  error.str("code", code).str("message", message);
  obs::JsonFields frame;
  frame.raw("id", id).boolean("ok", false).raw("error", error.object());
  conn.write(frame.object());
}

std::optional<std::uint64_t> toCount(const JsonValue* value,
                                     std::uint64_t max) {
  if (value == nullptr || !value->isNumber()) return std::nullopt;
  const double x = value->number;
  // 2^64 is the first double past the uint64 range; the negated
  // comparisons also reject NaN.
  if (!(x >= 0.0) || !(x < 0x1p64)) return std::nullopt;
  const auto n = static_cast<std::uint64_t>(x);
  if (n > max) return std::nullopt;
  return n;
}

}  // namespace fepia::server

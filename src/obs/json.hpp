// The one JSON writer. Every document, record and frame the repo emits
// (manifests, reports, metric registries, Chrome traces, BENCH records,
// telemetry events, wire frames) goes through JsonWriter:
// - strings through writeJsonString, `"` `\` and control characters
//   escaped;
// - doubles through writeJsonNumber and integers through count(), both
//   std::to_chars, so no global locale (comma decimal point, digit
//   grouping) can change a byte; a non-finite double is null;
// - each object or array scope in one of three layouts (JsonLayout).
// JsonFields is its flat compact case. server::parseJson reads JSON.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace fepia::obs {

/// Writes `s` as a JSON string literal (including the surrounding
/// quotes): `"` `\` and control characters are escaped per RFC 8259.
void writeJsonString(std::ostream& os, std::string_view s);

/// JSON number for a possibly non-finite double (JSON has no Infinity or
/// NaN; both map to `null`). 17 significant digits — round-trip exact.
void writeJsonNumber(std::ostream& os, double x);

/// How a scope separates its members or elements.
enum class JsonLayout : std::uint8_t {
  Compact,  ///< {"k":v,"k":v}
  Inline,   ///< {"k": v, "k": v}
  /// {\n  "k": v,\n  "k": v\n}: a line per member, one level deeper than
  /// the scope; the closing bracket on its own line (even when empty).
  Lines,
};

/// A streaming JSON writer over an ostream. A value is a member of the
/// enclosing object when key() names it (the two-argument forms do
/// both), else an element of the enclosing array or the document
/// itself. The writer checks only its depth: a key inside an array, or
/// a missing end(), writes invalid JSON.
class JsonWriter {
 public:
  using Key = std::string_view;

  /// `indent`: spaces per nesting level in Lines scopes.
  explicit JsonWriter(std::ostream& os, int indent = 2) noexcept
      : os_(&os), indent_(indent) {}
  /// Continues an object whose opening and earlier members were written
  /// elsewhere: every member is led by its separator.
  JsonWriter(std::ostream& os, JsonLayout continued) noexcept
      : os_(&os), indent_(0), depth_(1) {
    scopes_[0] = {continued, '}', false, false};
  }

  /// Names the next value.
  JsonWriter& key(Key name);

  /// Opens an object or array scope; end() closes the innermost one.
  /// More than kMaxDepth open scopes (deeper than server::parseJson
  /// reads) throw std::length_error.
  JsonWriter& object(JsonLayout l = JsonLayout::Inline) {
    return open('{', '}', l);
  }
  JsonWriter& array(JsonLayout l = JsonLayout::Inline) {
    return open('[', ']', l);
  }
  JsonWriter& end();
  /// Starts the next member or element of the innermost scope on a
  /// line of its own, as a Lines scope does for all of them.
  JsonWriter& lineBreak() noexcept {
    scopes_[depth_ - 1].breakNext = true;
    return *this;
  }

  JsonWriter& str(std::string_view value) {
    writeJsonString(valueStream(), value);
    return *this;
  }
  JsonWriter& num(double value) {
    writeJsonNumber(valueStream(), value);
    return *this;
  }
  /// A decimal integer (exact above 2^53, unlike num).
  JsonWriter& count(std::uint64_t value);
  JsonWriter& boolean(bool value) { return raw(value ? "true" : "false"); }
  JsonWriter& null() { return raw("null"); }
  /// A value that is already JSON text.
  JsonWriter& raw(std::string_view json) {
    valueStream() << json;
    return *this;
  }
  /// Writes what goes before the next value and returns the stream, for
  /// a value that other code writes whole (e.g. RunManifest::writeJson).
  std::ostream& valueStream();

  JsonWriter& object(Key k, JsonLayout l = JsonLayout::Inline) {
    return key(k).object(l);
  }
  JsonWriter& array(Key k, JsonLayout l = JsonLayout::Inline) {
    return key(k).array(l);
  }
  JsonWriter& str(Key k, std::string_view v) { return key(k).str(v); }
  JsonWriter& num(Key k, double v) { return key(k).num(v); }
  JsonWriter& count(Key k, std::uint64_t v) { return key(k).count(v); }
  /// null when `v` is empty.
  JsonWriter& count(Key k, std::optional<std::uint64_t> v) {
    return v.has_value() ? count(k, *v) : null(k);
  }
  JsonWriter& boolean(Key k, bool v) { return key(k).boolean(v); }
  JsonWriter& null(Key k) { return key(k).null(); }
  JsonWriter& raw(Key k, std::string_view json) { return key(k).raw(json); }

  static constexpr std::size_t kMaxDepth = 128;

 private:
  struct Scope {
    JsonLayout layout;
    char close;  ///< the closing bracket
    bool first;
    bool breakNext;
  };
  JsonWriter& open(char bracket, char close, JsonLayout layout);
  void separate();
  void newline(std::size_t depth);

  std::ostream* os_;
  int indent_;
  std::size_t depth_ = 0;
  bool keyed_ = false;
  std::array<Scope, kMaxDepth> scopes_{};
};

/// The members of one JSON object, each led by a comma, written in call
/// order by a JsonWriter in the compact layout.
class JsonFields {
 public:
  JsonFields& str(std::string_view key, std::string_view value) {
    JsonWriter(os_, JsonLayout::Compact).str(key, value);
    return *this;
  }
  JsonFields& num(std::string_view key, double value) {
    JsonWriter(os_, JsonLayout::Compact).num(key, value);
    return *this;
  }
  /// A decimal integer (exact above 2^53, unlike num).
  JsonFields& count(std::string_view key, std::uint64_t value) {
    JsonWriter(os_, JsonLayout::Compact).count(key, value);
    return *this;
  }
  JsonFields& boolean(std::string_view key, bool value) {
    JsonWriter(os_, JsonLayout::Compact).boolean(key, value);
    return *this;
  }
  JsonFields& null(std::string_view key) {
    JsonWriter(os_, JsonLayout::Compact).null(key);
    return *this;
  }
  /// A member whose value is already JSON text.
  JsonFields& raw(std::string_view key, std::string_view json) {
    JsonWriter(os_, JsonLayout::Compact).raw(key, json);
    return *this;
  }
  /// Appends the members of `more`.
  JsonFields& append(const JsonFields& more);

  /// The members alone, to follow members written elsewhere.
  [[nodiscard]] std::string members() const { return os_.str(); }
  /// The members as one object.
  [[nodiscard]] std::string object() const;

 private:
  std::ostringstream os_;
};

}  // namespace fepia::obs

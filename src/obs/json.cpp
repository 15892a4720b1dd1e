#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace fepia::obs {

void writeJsonString(std::ostream& os, std::string_view s) {
  static constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
  static constexpr std::string_view kLetters = "\"\\bfnrt";
  os << '"';
  std::size_t run = 0;  // start of the characters not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    os.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (const std::size_t e = kEscaped.find(s[i]); e != kEscaped.npos) {
      os << '\\' << kLetters[e];
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    }
  }
  os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os << '"';
}

void writeJsonNumber(std::ostream& os, double x) {
  if (!std::isfinite(x)) {
    os << "null";
    return;
  }
  // %.17g in the C locale whatever the stream's or the global locale.
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general, 17);
  os.write(buf, r.ptr - buf);
}

JsonWriter& JsonWriter::key(Key name) {
  separate();
  writeJsonString(*os_, name);
  *os_ << (scopes_[depth_ - 1].layout == JsonLayout::Compact ? ":" : ": ");
  keyed_ = true;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket, char close, JsonLayout layout) {
  if (depth_ == kMaxDepth) throw std::length_error("JsonWriter: too deep");
  valueStream() << bracket;
  scopes_[depth_++] = {layout, close, true, false};
  return *this;
}

JsonWriter& JsonWriter::end() {
  const Scope s = scopes_[--depth_];
  if (s.layout == JsonLayout::Lines) newline(depth_);
  *os_ << s.close;
  return *this;
}

JsonWriter& JsonWriter::count(std::uint64_t value) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  valueStream().write(buf, r.ptr - buf);
  return *this;
}

std::ostream& JsonWriter::valueStream() {
  if (keyed_) {
    keyed_ = false;
  } else if (depth_ > 0) {
    separate();
  }
  return *os_;
}

void JsonWriter::separate() {
  Scope& s = scopes_[depth_ - 1];
  if (!s.first) *os_ << ',';
  if (s.layout == JsonLayout::Lines || s.breakNext) {
    newline(depth_);
  } else if (!s.first && s.layout == JsonLayout::Inline) {
    *os_ << ' ';
  }
  s.first = false;
  s.breakNext = false;
}

void JsonWriter::newline(std::size_t depth) {
  *os_ << '\n' << std::string(depth * static_cast<std::size_t>(indent_), ' ');
}

JsonFields& JsonFields::append(const JsonFields& more) {
  os_ << more.os_.view();
  return *this;
}

std::string JsonFields::object() const {
  std::string text = os_.str();
  if (text.empty()) return "{}";
  text[0] = '{';  // the first member's leading comma
  return text + '}';
}

}  // namespace fepia::obs

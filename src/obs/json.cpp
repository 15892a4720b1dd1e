#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <locale>
#include <sstream>

namespace fepia::obs {

void writeJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void writeJsonNumber(std::ostream& os, double x) {
  if (!std::isfinite(x)) {
    os << "null";
    return;
  }
  // Classic locale pinned: JSON requires '.' as the decimal separator
  // regardless of any std::locale::global the host process installed.
  std::ostringstream tmp;
  tmp.imbue(std::locale::classic());
  tmp.precision(17);
  tmp << x;
  os << tmp.str();
}

std::ostream& JsonFields::key(std::string_view name) {
  os_ << ',';
  writeJsonString(os_, name);
  return os_ << ':';
}

JsonFields& JsonFields::str(std::string_view name, std::string_view value) {
  writeJsonString(key(name), value);
  return *this;
}

JsonFields& JsonFields::num(std::string_view name, double value) {
  writeJsonNumber(key(name), value);
  return *this;
}

JsonFields& JsonFields::count(std::string_view name, std::uint64_t value) {
  key(name) << std::to_string(value);
  return *this;
}

JsonFields& JsonFields::boolean(std::string_view name, bool value) {
  key(name) << (value ? "true" : "false");
  return *this;
}

JsonFields& JsonFields::raw(std::string_view name, std::string_view json) {
  key(name) << json;
  return *this;
}

std::string JsonFields::object() const {
  std::string text = os_.str();
  if (text.empty()) return "{}";
  text[0] = '{';  // the first member's leading comma
  return text + '}';
}

}  // namespace fepia::obs

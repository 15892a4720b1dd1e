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

}  // namespace fepia::obs

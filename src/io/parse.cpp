#include "io/parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include <locale.h>  // newlocale/strtod_l (POSIX)

namespace fepia::io {
namespace {

// Numeric parsing must not depend on the process locale: strtod honors
// LC_NUMERIC, so under a comma-decimal locale (de_DE, fr_FR, ...) the
// token "1.5" stops at the '.' and the full-token check rejects every
// problem file and CLI flag — fatal for a resident server embedded in a
// locale-setting host process. std::from_chars always parses the C
// ("classic") grammar, byte-deterministically. The strtod conveniences
// the repo's inputs historically relied on are reproduced explicitly:
// leading whitespace, an optional leading '+', and 0x/0X hexfloats
// (the sweep journal's exact-round-trip format).
//
// from_chars reports ERANGE-style overflow/underflow as
// errc::result_out_of_range without storing a value; for that rare case
// alone we fall back to strtodCLocale, which keeps strtod's historical
// behavior (overflow → ±HUGE_VAL, rejected by the finiteness check;
// gradual underflow → ±0/denormal, accepted).
std::optional<double> parseDoubleToken(const std::string& token) noexcept {
  std::size_t i = 0;
  while (i < token.size() &&
         std::isspace(static_cast<unsigned char>(token[i]))) {
    ++i;
  }
  bool negative = false;
  if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
    negative = token[i] == '-';
    ++i;
    // from_chars itself accepts a leading '-', so a second sign here
    // ("+-1", "--1") must be rejected, exactly as strtod does.
    if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
      return std::nullopt;
    }
  }
  std::chars_format fmt = std::chars_format::general;
  if (i + 1 < token.size() && token[i] == '0' &&
      (token[i + 1] == 'x' || token[i + 1] == 'X')) {
    fmt = std::chars_format::hex;
    i += 2;
  }
  const char* first = token.data() + i;
  const char* const last = token.data() + token.size();
  if (first == last) return std::nullopt;

  double v = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, v, fmt);
  if (r.ptr != last) return std::nullopt;
  if (r.ec == std::errc::result_out_of_range) {
    errno = 0;
    char* end = nullptr;
    const double sv = strtodCLocale(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return sv;
  }
  if (r.ec != std::errc()) return std::nullopt;
  return negative ? -v : v;
}

}  // namespace

double strtodCLocale(const char* nptr, char** endptr) noexcept {
  static const locale_t cLocale = ::newlocale(LC_ALL_MASK, "C", nullptr);
  if (cLocale != static_cast<locale_t>(nullptr)) {
    return ::strtod_l(nptr, endptr, cLocale);
  }
  return std::strtod(nptr, endptr);  // out of memory: best effort
}

std::optional<double> parseFiniteDouble(const std::string& token) noexcept {
  if (token.empty()) return std::nullopt;
  const std::optional<double> v = parseDoubleToken(token);
  if (!v.has_value() || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parseUint64(const std::string& token) noexcept {
  if (token.empty()) return std::nullopt;
  // strtoull silently negates "-1"; a leading sign is never a valid
  // count/seed here. Leading whitespace would also be skipped silently.
  const unsigned char first = static_cast<unsigned char>(token.front());
  if (token.front() == '-' || token.front() == '+' || std::isspace(first)) {
    return std::nullopt;
  }
  // Base 10 unless 0x-prefixed: base 0 would read a leading zero as
  // octal ("010" -> 8, "08" rejected).
  const bool hex = token.size() > 1 && token[0] == '0' &&
                   (token[1] == 'x' || token[1] == 'X');
  errno = 0;
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(token.c_str(), &end, hex ? 16 : 10);
  if (end != token.c_str() + token.size()) return std::nullopt;
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<std::uint64_t> parseUint64AtMost(const std::string& token,
                                               std::uint64_t maxValue) noexcept {
  const std::optional<std::uint64_t> v = parseUint64(token);
  if (!v.has_value() || *v > maxValue) return std::nullopt;
  return v;
}

}  // namespace fepia::io

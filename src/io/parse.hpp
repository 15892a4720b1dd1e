// Checked numeric parsing shared by the file parsers and the CLI.
//
// std::stod / std::stoull are the wrong tool for user input: they throw
// uncatchable-at-a-distance exceptions on garbage, silently accept
// trailing junk ("1.5x" parses as 1.5), and stod happily returns inf /
// nan. Every token that crosses a trust boundary (problem files, system
// files, command-line flag values) goes through these full-token,
// range-checked helpers instead, so malformed input becomes a one-line
// parse/usage error — never an uncaught exception and never a silently
// truncated value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace fepia::io {

/// Parses `token` as a double. The whole token must be consumed and the
/// value must be finite ("1.5x", "nan", "inf", "" all fail).
[[nodiscard]] std::optional<double> parseFiniteDouble(
    const std::string& token) noexcept;

/// Parses `token` as an unsigned 64-bit integer (decimal, or 0x-prefixed
/// hex). The whole token must be consumed; leading '-' and values that
/// overflow std::uint64_t fail.
[[nodiscard]] std::optional<std::uint64_t> parseUint64(
    const std::string& token) noexcept;

/// strtod in a pinned C locale, never the process locale (whose decimal
/// point may differ). For the tokens std::from_chars reports as out of
/// range, which it cannot saturate by itself: overflow gives ±HUGE_VAL
/// and gradual underflow ±0 or a denormal.
[[nodiscard]] double strtodCLocale(const char* nptr, char** endptr) noexcept;

/// parseUint64 additionally range-checked against `maxValue` — for size
/// flags where a fat-fingered 1e18 would be accepted by the type but can
/// only be a mistake.
[[nodiscard]] std::optional<std::uint64_t> parseUint64AtMost(
    const std::string& token, std::uint64_t maxValue) noexcept;

}  // namespace fepia::io

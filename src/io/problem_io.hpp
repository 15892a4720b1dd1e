// Plain-text FePIA problem files: parse and serialize a FepiaProblem so
// robustness analyses can be run from the command line (tools/fepia_cli)
// without writing C++.
//
// Format (line-oriented, '#' comments, blank lines ignored):
//
//   # one 'kind' line per perturbation parameter, in order
//   kind <name> <unit> <orig_1> <orig_2> ...
//
//   # one 'feature' line per bounded linear feature, over the
//   # concatenation of all kinds in declaration order
//   feature <name> <bound> coeff <k_1> ... <k_n> [offset <c>]
//
// where
//   <name>  is a bare word or a double-quoted string ("end-to-end delay");
//   <unit>  is one of: 1 (dimensionless), s, B, obj, ds, obj/ds, ds/s, B/s;
//   <bound> is one of:
//             upper <beta_max>
//             lower <beta_min>
//             between <beta_min> <beta_max>
//             relupper <beta>        (beta_max = beta x feature(orig), beta > 1)
//
// Only linear features are expressible in the file format (the paper's
// analytical setting); richer features remain a C++ API affair.
//
// Errors are reported as io::ParseError with a 1-based line number.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "radius/fepia.hpp"

namespace fepia::io {

/// Parse failure with location information.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// One line of a problem or system file as tokens: whitespace-separated,
/// a double-quoted token may contain spaces, `#` starts a comment.
/// Throws ParseError on an unterminated quote.
[[nodiscard]] std::vector<std::string> tokenizeLine(const std::string& line,
                                                    std::size_t lineNo);

/// A finite number token (io::parseFiniteDouble); ParseError otherwise.
[[nodiscard]] double parseNumber(const std::string& token, std::size_t lineNo);

/// Parses a problem from a stream. Throws ParseError on malformed input
/// and the usual library exceptions on semantically invalid problems
/// (e.g. a feature whose coefficient count mismatches the kinds).
[[nodiscard]] radius::FepiaProblem parseProblem(std::istream& in);

/// Parses a problem from a string (convenience for tests).
[[nodiscard]] radius::FepiaProblem parseProblemString(const std::string& text);

/// Parses a problem from a file; throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] radius::FepiaProblem loadProblem(const std::string& path);

/// Serializes a problem to the same format. Only linear features are
/// representable; throws std::invalid_argument when the problem contains
/// any other feature type.
void writeProblem(std::ostream& out, const radius::FepiaProblem& problem);

/// Renders a unit in file-format notation ("s", "B", "obj/ds", "1", ...).
/// Throws std::invalid_argument for units outside the file vocabulary.
[[nodiscard]] std::string unitToken(const units::Unit& unit);

/// Parses a file-format unit token; throws std::invalid_argument.
[[nodiscard]] units::Unit parseUnitToken(const std::string& token);

}  // namespace fepia::io

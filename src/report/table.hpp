// Fixed-width/CSV table emission for the benchmark harness, so
// every experiment prints rows the way the paper's tables would.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fepia::report {

/// A simple column-aligned table builder.
class Table {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; throws std::invalid_argument on column-count mismatch.
  void addRow(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columnCount() const noexcept {
    return headers_.size();
  }

  /// Fixed-width rendering with a header rule.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void printCsv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` significant digits (general format).
[[nodiscard]] std::string num(double v, int precision = 6);

/// Formats a double in fixed-point with `decimals` digits.
[[nodiscard]] std::string fixed(double v, int decimals = 4);

}  // namespace fepia::report

#include "report/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace fepia::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("report::Table: need at least one column");
  }
}

void Table::addRow(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("report::Table::addRow: expected " +
                                std::to_string(headers_.size()) + " cells, got " +
                                std::to_string(cells.size()));
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto emitRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  };
  emitRow(headers_);
  std::size_t ruleWidth = 2 * (headers_.size() - 1);
  for (std::size_t w : widths) ruleWidth += w;
  os << std::string(ruleWidth, '-') << '\n';
  for (const auto& row : rows_) emitRow(row);
}

namespace {

std::string csvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::printCsv(std::ostream& os) const {
  const auto emitRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << csvEscape(row[c]);
    }
    os << '\n';
  };
  emitRow(headers_);
  for (const auto& row : rows_) emitRow(row);
}

std::string num(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

std::string fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

}  // namespace fepia::report

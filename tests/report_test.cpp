#include "report/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace report = fepia::report;

TEST(ReportTable, BuildAndRowValidation) {
  report::Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  EXPECT_EQ(t.rowCount(), 1u);
  EXPECT_EQ(t.columnCount(), 2u);
  EXPECT_THROW(t.addRow({"too", "many", "cells"}), std::invalid_argument);
  EXPECT_THROW(report::Table({}), std::invalid_argument);
}

TEST(ReportTable, FixedWidthAlignsColumns) {
  report::Table t({"h", "second"});
  t.addRow({"longer-cell", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, rule, one row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  // Both rows start their second column at the same offset.
  const auto firstLineEnd = out.find('\n');
  const std::string header = out.substr(0, firstLineEnd);
  EXPECT_NE(header.find("h"), std::string::npos);
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
}

TEST(ReportTable, CsvEscaping) {
  report::Table t({"a", "b"});
  t.addRow({"plain", "with,comma"});
  t.addRow({"has\"quote", "multi\nline"});
  std::ostringstream os;
  t.printCsv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(out.find("\"multi\nline\""), std::string::npos);
}

TEST(ReportFormatting, NumAndFixed) {
  EXPECT_EQ(report::num(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(report::fixed(2.5, 2), "2.50");
  EXPECT_EQ(report::fixed(-0.125, 3), "-0.125");
}

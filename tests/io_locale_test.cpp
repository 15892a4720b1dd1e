// Locale independence of the numeric parse/format paths.
//
// strtod and default-imbued iostreams honor the process locale; under a
// comma-decimal locale (de_DE, fr_FR, ...) "1.5" used to stop parsing
// at the '.' — every problem file, sweep journal, and CLI flag broke.
// A resident fepiad server can be embedded in (or exec'd from) a
// locale-setting environment, so the contract is: parsing and
// formatting are byte-identical no matter what locale is installed.
//
// The test drives both locale mechanisms:
//  - the C locale (setlocale), which strtod/strtoull honor — exercised
//    only when a comma-decimal locale is actually installed on the host
//    (bare CI images often ship only C/POSIX);
//  - the C++ global locale (std::locale::global with a comma-decimal
//    numpunct facet), which every default-constructed stream inherits —
//    always exercised, no OS locale needed.
#include <gtest/gtest.h>

#include <clocale>
#include <locale>
#include <sstream>
#include <string>

#include "io/parse.hpp"
#include "io/problem_io.hpp"
#include "obs/json.hpp"
#include "server/wire.hpp"
#include "support/json_documents.hpp"
#include "sweep/journal.hpp"

namespace {

using namespace fepia;

/// A numpunct facet with ',' decimal point and '.' thousands separator
/// (no grouping) — the de_DE shape, available without any OS locale.
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return ""; }
};

/// The comma-decimal facet with digit grouping in threes: the shape
/// under which `<<` writes 1234567 as 1.234.567.
class GroupingCommaNumpunct : public CommaNumpunct {
 protected:
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a grouping comma-decimal C++ global locale for the scope.
class ScopedGroupingLocale {
 public:
  ScopedGroupingLocale() : prev_(std::locale()) {
    std::locale::global(
        std::locale(std::locale::classic(), new GroupingCommaNumpunct));
  }
  ~ScopedGroupingLocale() { std::locale::global(prev_); }

 private:
  std::locale prev_;
};

/// Installs a comma-decimal C++ global locale for the scope and, when
/// the host has one, a comma-decimal C locale too. Restores both.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale() : cxxPrev_(std::locale()) {
    const char* const prev = std::setlocale(LC_ALL, nullptr);
    cPrev_ = prev != nullptr ? prev : "C";
    for (const char* name :
         {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE.utf8", "fr_FR.utf8", "de_DE",
          "fr_FR"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        cLocaleInstalled_ = true;
        break;
      }
    }
    std::locale::global(std::locale(std::locale::classic(),
                                    new CommaNumpunct));
  }
  ~ScopedCommaLocale() {
    std::locale::global(cxxPrev_);
    std::setlocale(LC_ALL, cPrev_.c_str());
  }
  /// True when setlocale actually switched the C locale (host-dependent).
  [[nodiscard]] bool cLocaleInstalled() const noexcept {
    return cLocaleInstalled_;
  }

 private:
  std::locale cxxPrev_;
  std::string cPrev_;
  bool cLocaleInstalled_ = false;
};

constexpr const char* kProblemText =
    "# locale round-trip fixture\n"
    "kind execution-times s 2.5 3.125\n"
    "kind message-lengths B 1e6\n"
    "feature \"end-to-end delay\" upper 9.75 coeff 1.0 1.0 1e-6\n"
    "feature \"stage-2 budget\" upper 5.5 coeff 0.0 1.0 0.0\n";

std::string serialize(const radius::FepiaProblem& problem) {
  std::ostringstream os;
  io::writeProblem(os, problem);
  return os.str();
}

TEST(IoLocale, ParseFiniteDoubleIgnoresCommaLocale) {
  const ScopedCommaLocale guard;
  EXPECT_EQ(io::parseFiniteDouble("1.5"), 1.5);
  EXPECT_EQ(io::parseFiniteDouble("-2.25e3"), -2250.0);
  EXPECT_EQ(io::parseFiniteDouble("+0.5"), 0.5);
  EXPECT_EQ(io::parseFiniteDouble(" 1.5"), 1.5);  // strtod compatibility
  EXPECT_EQ(io::parseFiniteDouble("0x1.8p+3"), 12.0);
  EXPECT_EQ(io::parseFiniteDouble("-0X1p2"), -4.0);
  // Under a comma locale strtod would *accept* "1,5" (as 1.5); the
  // locale-independent grammar must keep rejecting it everywhere.
  EXPECT_FALSE(io::parseFiniteDouble("1,5").has_value());
  EXPECT_FALSE(io::parseFiniteDouble("1.5x").has_value());
  EXPECT_FALSE(io::parseFiniteDouble("+-1").has_value());
  EXPECT_FALSE(io::parseFiniteDouble("nan").has_value());
  EXPECT_FALSE(io::parseFiniteDouble("inf").has_value());
  EXPECT_FALSE(io::parseFiniteDouble("").has_value());
  // Overflow rejected, gradual underflow accepted — the strtod contract.
  EXPECT_FALSE(io::parseFiniteDouble("1e999").has_value());
  const std::optional<double> tiny = io::parseFiniteDouble("1e-400");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_GE(*tiny, 0.0);
  EXPECT_LT(*tiny, 1e-300);
}

TEST(IoLocale, ParseUint64IgnoresCommaLocale) {
  const ScopedCommaLocale guard;
  EXPECT_EQ(io::parseUint64("12345"), 12345u);
  EXPECT_EQ(io::parseUint64("0x10"), 16u);
  // A leading zero is decimal, not octal.
  EXPECT_EQ(io::parseUint64("010"), 10u);
  EXPECT_EQ(io::parseUint64("08"), 8u);
  EXPECT_FALSE(io::parseUint64("1.000").has_value());
  EXPECT_FALSE(io::parseUint64("-1").has_value());
  EXPECT_FALSE(io::parseUint64("+5").has_value());
}

TEST(IoLocale, ProblemFileRoundTripsUnderCommaLocale) {
  // Baseline under the default ("C") locales.
  const radius::FepiaProblem baseline = io::parseProblemString(kProblemText);
  const std::string baselineBytes = serialize(baseline);
  ASSERT_NE(baselineBytes.find("2.5"), std::string::npos);

  const ScopedCommaLocale guard;
  // Parse again with the comma locale installed: same values...
  const radius::FepiaProblem reparsed = io::parseProblemString(kProblemText);
  // ...and the writer emits byte-identical '.'-decimal text, which
  // parses back to the same problem (full round trip under the hostile
  // locale).
  const std::string commaBytes = serialize(reparsed);
  EXPECT_EQ(commaBytes, baselineBytes);
  const radius::FepiaProblem roundTripped = io::parseProblemString(commaBytes);
  EXPECT_EQ(serialize(roundTripped), baselineBytes);
  EXPECT_EQ(commaBytes.find(','), std::string::npos);
}

TEST(IoLocale, JournalDoublesRoundTripBitExactUnderCommaLocale) {
  const ScopedCommaLocale guard;
  for (const double v : {0.1, -3.25, 1e-17, 6.02214076e23, 0.0, -0.0}) {
    const std::string token = sweep::formatJournalDouble(v);
    EXPECT_EQ(token.find(','), std::string::npos) << token;
    double back = 0.0;
    ASSERT_TRUE(sweep::parseJournalDouble(token, back)) << token;
    EXPECT_EQ(back, v) << token;
  }
  double back = 0.0;
  ASSERT_TRUE(sweep::parseJournalDouble("nan", back));
  EXPECT_TRUE(back != back);
}

TEST(IoLocale, JsonNumbersUseDotUnderCommaLocale) {
  const ScopedCommaLocale guard;
  std::ostringstream os;
  obs::writeJsonNumber(os, 1234.5);
  EXPECT_EQ(os.str(), "1234.5");
  EXPECT_TRUE(server::parseJson(os.str()).has_value());
}

// Every kind of JSON the tree writes, rendered under a global locale
// that groups digits, must parse and equal its classic-locale bytes.
TEST(IoLocale, JsonDocumentsIgnoreGroupingLocale) {
  using fepia::testing::Document;
  const std::vector<Document> classic = fepia::testing::allDocuments();
  std::vector<Document> grouped;
  {
    const ScopedGroupingLocale guard;
    std::ostringstream probe;
    probe << 1234567;
    ASSERT_EQ(probe.str(), "1.234.567");  // the hazard is live
    grouped = fepia::testing::allDocuments();
  }
  ASSERT_EQ(grouped.size(), classic.size());
  for (std::size_t i = 0; i < classic.size(); ++i) {
    const Document& doc = grouped[i];
    EXPECT_EQ(doc.text, classic[i].text) << doc.name;
    std::vector<std::string> parts{doc.text};
    if (doc.jsonLines) {
      parts.clear();
      std::istringstream lines(doc.text);
      for (std::string line; std::getline(lines, line);) parts.push_back(line);
    }
    for (const std::string& part : parts) {
      EXPECT_TRUE(server::parseJson(part).has_value()) << doc.name << ": "
                                                       << part;
    }
  }
}

TEST(IoLocale, HostCLocaleSwitchIsHarmlessEitherWay) {
  // Documents the host coverage: when a comma-decimal OS locale exists
  // the suite above exercised the real strtod hazard; when only C/POSIX
  // are installed (bare CI images) the C++-side facet still covered the
  // stream formatting paths. Either way the parsers must agree with the
  // baseline.
  const ScopedCommaLocale guard;
  SCOPED_TRACE(guard.cLocaleInstalled() ? "comma C locale installed"
                                        : "no comma C locale on this host");
  EXPECT_EQ(io::parseFiniteDouble("3.141592653589793"), 3.141592653589793);
}

}  // namespace

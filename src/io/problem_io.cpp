#include "io/problem_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <locale>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "feature/linear.hpp"
#include "io/parse.hpp"

namespace fepia::io {

std::vector<std::string> tokenizeLine(const std::string& line,
                                      std::size_t lineNo) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') break;
    if (line[i] == '"') {
      const std::size_t end = line.find('"', i + 1);
      if (end == std::string::npos) {
        throw ParseError(lineNo, "unterminated quote");
      }
      out.push_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      std::size_t end = i;
      while (end < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[end]))) {
        ++end;
      }
      out.push_back(line.substr(i, end - i));
      i = end;
    }
  }
  return out;
}

// Full-token finite parse via the shared io/parse helper: "1.5x" and
// "nan"/"inf" are rejected — unbounded sides are spelled with the
// upper/lower directives, and no system-file quantity is legitimately
// non-finite.
double parseNumber(const std::string& token, std::size_t lineNo) {
  const std::optional<double> v = parseFiniteDouble(token);
  if (!v.has_value()) {
    throw ParseError(lineNo, "expected a finite number, got '" + token + "'");
  }
  return *v;
}

std::string unitToken(const units::Unit& unit) {
  if (unit == units::Unit::dimensionless()) return "1";
  if (unit == units::Unit::seconds()) return "s";
  if (unit == units::Unit::bytes()) return "B";
  if (unit == units::Unit::objects()) return "obj";
  if (unit == units::Unit::dataSets()) return "ds";
  if (unit == units::Unit::objectsPerDataSet()) return "obj/ds";
  if (unit == units::Unit::dataSetsPerSecond()) return "ds/s";
  if (unit == units::Unit::bytesPerSecond()) return "B/s";
  throw std::invalid_argument("io::unitToken: unit '" + unit.str() +
                              "' has no file notation");
}

units::Unit parseUnitToken(const std::string& token) {
  if (token == "1") return units::Unit::dimensionless();
  if (token == "s") return units::Unit::seconds();
  if (token == "B") return units::Unit::bytes();
  if (token == "obj") return units::Unit::objects();
  if (token == "ds") return units::Unit::dataSets();
  if (token == "obj/ds") return units::Unit::objectsPerDataSet();
  if (token == "ds/s") return units::Unit::dataSetsPerSecond();
  if (token == "B/s") return units::Unit::bytesPerSecond();
  throw std::invalid_argument("io::parseUnitToken: unknown unit '" + token +
                              "'");
}

radius::FepiaProblem parseProblem(std::istream& in) {
  radius::FepiaProblem problem;

  // Features must be added after every kind; buffer them.
  struct PendingFeature {
    std::string name;
    feature::FeatureBounds bounds;
    la::Vector coeffs;
    double offset;
    bool relUpper;
    double relBeta;
    std::size_t lineNo;
  };
  std::vector<PendingFeature> pending;
  std::set<std::string> kindNames;
  std::set<std::string> featureNames;

  std::string line;
  std::size_t lineNo = 0;
  std::size_t totalDim = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::vector<std::string> tokens = tokenizeLine(line, lineNo);
    if (tokens.empty()) continue;

    if (tokens[0] == "kind") {
      if (!pending.empty()) {
        throw ParseError(lineNo, "all 'kind' lines must precede 'feature' lines");
      }
      if (tokens.size() < 4) {
        throw ParseError(lineNo, "kind needs: kind <name> <unit> <orig...>");
      }
      if (!kindNames.insert(tokens[1]).second) {
        throw ParseError(lineNo, "duplicate kind '" + tokens[1] + "'");
      }
      units::Unit unit;
      try {
        unit = parseUnitToken(tokens[2]);
      } catch (const std::invalid_argument& e) {
        throw ParseError(lineNo, e.what());
      }
      la::Vector orig(tokens.size() - 3);
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        orig[i - 3] = parseNumber(tokens[i], lineNo);
      }
      totalDim += orig.size();
      problem.addPerturbation(
          perturb::PerturbationParameter(tokens[1], unit, std::move(orig)));
      continue;
    }

    if (tokens[0] == "feature") {
      if (tokens.size() < 3) {
        throw ParseError(lineNo, "feature needs: feature <name> <bound> ...");
      }
      std::size_t pos = 1;
      const std::string name = tokens[pos++];
      if (!featureNames.insert(name).second) {
        throw ParseError(lineNo, "duplicate feature '" + name + "'");
      }

      // Bound spec.
      const std::string boundKind = tokens[pos++];
      double betaMin = -std::numeric_limits<double>::infinity();
      double betaMax = std::numeric_limits<double>::infinity();
      bool relUpper = false;
      double relBeta = 0.0;
      if (boundKind == "upper") {
        if (pos >= tokens.size()) throw ParseError(lineNo, "upper needs a value");
        betaMax = parseNumber(tokens[pos++], lineNo);
      } else if (boundKind == "lower") {
        if (pos >= tokens.size()) throw ParseError(lineNo, "lower needs a value");
        betaMin = parseNumber(tokens[pos++], lineNo);
      } else if (boundKind == "between") {
        if (pos + 1 >= tokens.size()) {
          throw ParseError(lineNo, "between needs two values");
        }
        betaMin = parseNumber(tokens[pos++], lineNo);
        betaMax = parseNumber(tokens[pos++], lineNo);
      } else if (boundKind == "relupper") {
        if (pos >= tokens.size()) {
          throw ParseError(lineNo, "relupper needs a value");
        }
        relUpper = true;
        relBeta = parseNumber(tokens[pos++], lineNo);
      } else {
        throw ParseError(lineNo, "unknown bound kind '" + boundKind +
                                     "' (upper|lower|between|relupper)");
      }

      // Coefficients.
      if (pos >= tokens.size() || tokens[pos] != "coeff") {
        throw ParseError(lineNo, "expected 'coeff' after the bound");
      }
      ++pos;
      std::vector<double> coeffs;
      while (pos < tokens.size() && tokens[pos] != "offset") {
        coeffs.push_back(parseNumber(tokens[pos++], lineNo));
      }
      double offset = 0.0;
      if (pos < tokens.size() && tokens[pos] == "offset") {
        ++pos;
        if (pos >= tokens.size()) throw ParseError(lineNo, "offset needs a value");
        offset = parseNumber(tokens[pos++], lineNo);
      }
      if (pos != tokens.size()) {
        throw ParseError(lineNo, "unexpected trailing tokens");
      }
      if (coeffs.empty()) {
        throw ParseError(lineNo, "feature needs at least one coefficient");
      }
      if (betaMin > betaMax) {
        throw ParseError(lineNo, "lower bound exceeds upper bound");
      }
      pending.push_back(PendingFeature{
          name, feature::FeatureBounds(betaMin, betaMax),
          la::Vector{std::vector<double>(coeffs)}, offset, relUpper, relBeta,
          lineNo});
      continue;
    }

    throw ParseError(lineNo, "unknown directive '" + tokens[0] +
                                 "' (expected 'kind' or 'feature')");
  }

  if (totalDim == 0) {
    throw ParseError(lineNo, "no perturbation kinds declared");
  }
  if (pending.empty()) {
    throw ParseError(lineNo, "no features declared");
  }

  const la::Vector orig = problem.space().concatenatedOriginal();
  for (PendingFeature& pf : pending) {
    if (pf.coeffs.size() != totalDim) {
      throw ParseError(pf.lineNo,
                       "feature '" + pf.name + "' has " +
                           std::to_string(pf.coeffs.size()) +
                           " coefficients, but the kinds total " +
                           std::to_string(totalDim) + " elements");
    }
    auto lin = std::make_shared<feature::LinearFeature>(
        pf.name, std::move(pf.coeffs), pf.offset);
    feature::FeatureBounds bounds = pf.bounds;
    if (pf.relUpper) {
      if (pf.relBeta <= 1.0) {
        throw ParseError(pf.lineNo, "relupper beta must exceed 1");
      }
      bounds = feature::FeatureBounds::relativeUpper(lin->evaluate(orig),
                                                     pf.relBeta);
    }
    problem.addFeature(std::move(lin), bounds);
  }
  return problem;
}

radius::FepiaProblem parseProblemString(const std::string& text) {
  std::istringstream in(text);
  return parseProblem(in);
}

radius::FepiaProblem loadProblem(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("io::loadProblem: cannot open '" + path + "'");
  }
  return parseProblem(in);
}

void writeProblem(std::ostream& out, const radius::FepiaProblem& problem) {
  // Problem files are re-parsed by the locale-independent io::parse
  // helpers, so they must be *written* with '.' decimals too — pin the
  // classic locale for the duration and restore the caller's on exit
  // (including the throw path below).
  struct LocaleGuard {
    std::ostream& os;
    std::locale prev;
    LocaleGuard(std::ostream& s) : os(s), prev(s.imbue(std::locale::classic())) {}
    ~LocaleGuard() { os.imbue(prev); }
  } localeGuard(out);

  const auto quoteIfNeeded = [](const std::string& s) {
    return s.find(' ') == std::string::npos ? s : '"' + s + '"';
  };

  out << "# fepia problem file\n";
  const perturb::PerturbationSpace& space = problem.space();
  for (std::size_t j = 0; j < space.kindCount(); ++j) {
    const perturb::PerturbationParameter& p = space.kind(j);
    out << "kind " << quoteIfNeeded(p.name()) << ' ' << unitToken(p.unit());
    for (double v : p.original()) out << ' ' << v;
    out << '\n';
  }
  for (const feature::BoundedFeature& bf : problem.features()) {
    const auto* lin =
        dynamic_cast<const feature::LinearFeature*>(bf.feature.get());
    if (lin == nullptr) {
      throw std::invalid_argument(
          "io::writeProblem: only linear features are serialisable; '" +
          bf.feature->name() + "' is not linear");
    }
    out << "feature " << quoteIfNeeded(lin->name()) << ' ';
    if (bf.bounds.hasMin() && bf.bounds.hasMax()) {
      out << "between " << bf.bounds.betaMin() << ' ' << bf.bounds.betaMax();
    } else if (bf.bounds.hasMax()) {
      out << "upper " << bf.bounds.betaMax();
    } else {
      out << "lower " << bf.bounds.betaMin();
    }
    out << " coeff";
    for (double k : lin->coefficients()) out << ' ' << k;
    if (lin->offset() != 0.0) out << " offset " << lin->offset();
    out << '\n';
  }
}

}  // namespace fepia::io

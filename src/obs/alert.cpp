#include "obs/alert.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace fepia::obs {
namespace {

// obs sits below every other fepia library, so it cannot use io::parse;
// this is the same full-token + finite contract, locally. std::from_chars
// instead of strtod so alert thresholds parse identically under any
// LC_NUMERIC the embedding process set (rule values are plain decimals;
// the exotic strtod compatibilities live in io::parseFiniteDouble).
bool parseFiniteDouble(const std::string& token, double& out) {
  if (token.empty()) return false;
  double v = 0.0;
  const char* const first = token.data();
  const char* const last = token.data() + token.size();
  const std::from_chars_result r = std::from_chars(first, last, v);
  if (r.ec != std::errc() || r.ptr != last) return false;
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

/// The spec spelling of an operator (">", ">=", "<", "<=").
std::string_view alertOpName(AlertRule::Op op) noexcept {
  switch (op) {
    case AlertRule::Op::Gt: return ">";
    case AlertRule::Op::Ge: return ">=";
    case AlertRule::Op::Lt: return "<";
    case AlertRule::Op::Le: return "<=";
  }
  return "?";
}

/// Gauge value when the gauge exists, else counter value when the
/// counter exists; false when neither does.
bool findMetricValue(const Registry& reg, const std::string& name,
                     double& out) {
  for (const Gauge& g : reg.gauges()) {
    if (g.name == name) {
      out = g.value;
      return true;
    }
  }
  for (const Counter& c : reg.counters().all()) {
    if (c.name == name) {
      out = static_cast<double>(c.value);
      return true;
    }
  }
  return false;
}

}  // namespace

bool AlertRule::breached(double value) const noexcept {
  switch (op) {
    case Op::Gt: return value > threshold;
    case Op::Ge: return value >= threshold;
    case Op::Lt: return value < threshold;
    case Op::Le: return value <= threshold;
  }
  return false;
}

std::string AlertRule::str() const {
  std::string out = metric;
  out += alertOpName(op);
  // Thresholds come from the parser, which only accepts finite numbers;
  // shortest round-trip formatting keeps the spec readable.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", threshold);
  out += buf;
  return out;
}

AlertRule parseAlertRule(std::string_view text) {
  // The two-character operators must win over their one-character
  // prefixes, so scan for the operator position first.
  const std::size_t pos = text.find_first_of("<>");
  if (pos == std::string_view::npos || pos == 0) {
    throw std::invalid_argument(
        "obs::parseAlertRule: expected METRIC{>|>=|<|<=}VALUE, got '" +
        std::string(text) + "'");
  }
  AlertRule rule;
  rule.metric = std::string(text.substr(0, pos));
  std::size_t valueStart = pos + 1;
  const bool orEqual = valueStart < text.size() && text[valueStart] == '=';
  if (orEqual) ++valueStart;
  if (text[pos] == '>') {
    rule.op = orEqual ? AlertRule::Op::Ge : AlertRule::Op::Gt;
  } else {
    rule.op = orEqual ? AlertRule::Op::Le : AlertRule::Op::Lt;
  }
  if (!parseFiniteDouble(std::string(text.substr(valueStart)),
                         rule.threshold)) {
    throw std::invalid_argument(
        "obs::parseAlertRule: bad threshold in '" + std::string(text) +
        "' (expected a finite number)");
  }
  return rule;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)), breached_(rules_.size(), false) {}

std::vector<AlertCrossing> AlertEngine::evaluate(const Registry& reg) {
  std::vector<AlertCrossing> crossings;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    double value = 0.0;
    const bool present = findMetricValue(reg, rules_[i].metric, value);
    const bool now = present && rules_[i].breached(value);
    if (now && !breached_[i]) {
      crossings.push_back(AlertCrossing{&rules_[i], value});
    }
    breached_[i] = now;
  }
  return crossings;
}

}  // namespace fepia::obs

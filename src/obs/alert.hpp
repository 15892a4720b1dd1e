// Declarative threshold alerts over the metrics registry.
//
// An AlertRule names one metric (gauge or counter), a comparison, and a
// threshold — "sweep.points_per_sec<100", "fault.live_dropped>=1". The
// AlertEngine evaluates every rule against a registry snapshot and
// reports *crossings*, not levels: a rule fires once when its condition
// becomes true and re-arms when the condition clears, so a stream of
// periodic samples produces one event per excursion instead of one per
// sample. This is the seed of the streaming robustness monitor's
// threshold-crossing alerts (ROADMAP item 5c); the TelemetryHub runs an
// engine over every sample and emits the crossings as alert events.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace fepia::obs {

/// One threshold rule: `metric op threshold`.
struct AlertRule {
  enum class Op { Gt, Ge, Lt, Le };

  std::string metric;
  Op op = Op::Gt;
  double threshold = 0.0;

  /// True when `value` breaches the rule.
  [[nodiscard]] bool breached(double value) const noexcept;

  /// The rule back in its spec syntax ("metric>threshold").
  [[nodiscard]] std::string str() const;
};

/// Parses "metric>value" / "metric>=value" / "metric<value" /
/// "metric<=value" (no spaces; the metric name is everything before the
/// operator). Throws std::invalid_argument on a missing operator, empty
/// metric name, or non-finite threshold.
[[nodiscard]] AlertRule parseAlertRule(std::string_view text);

/// One rule crossing observed by AlertEngine::evaluate.
struct AlertCrossing {
  const AlertRule* rule = nullptr;
  double value = 0.0;  ///< the metric value that breached the rule
};

/// Evaluates a fixed rule set against registry snapshots, reporting
/// breach *transitions*. Not thread-safe — the telemetry sampler owns
/// its engine and evaluates under the hub lock.
class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules);

  [[nodiscard]] const std::vector<AlertRule>& rules() const noexcept {
    return rules_;
  }

  /// Looks every rule's metric up in `reg` (gauges first, then counters;
  /// an absent metric never fires) and returns the rules whose condition
  /// went from clear to breached since the previous call. Rules whose
  /// condition cleared re-arm silently.
  [[nodiscard]] std::vector<AlertCrossing> evaluate(const Registry& reg);

 private:
  std::vector<AlertRule> rules_;
  std::vector<bool> breached_;  ///< previous state, per rule
};

}  // namespace fepia::obs

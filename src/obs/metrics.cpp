#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace fepia::obs {

// ----- CounterSet ------------------------------------------------------

Counter* CounterSet::find(const std::string& name) noexcept {
  for (Counter& c : counters_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void CounterSet::bump(const std::string& name, std::uint64_t delta) {
  if (Counter* c = find(name)) {
    c->value += delta;
  } else {
    counters_.push_back(Counter{name, delta});
  }
}

void CounterSet::set(const std::string& name, std::uint64_t value) {
  if (Counter* c = find(name)) {
    c->value = value;
  } else {
    counters_.push_back(Counter{name, value});
  }
}

std::uint64_t CounterSet::value(const std::string& name) const noexcept {
  for (const Counter& c : counters_) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void CounterSet::merge(const CounterSet& other) {
  for (const Counter& c : other.counters_) bump(c.name, c.value);
}

void CounterSet::writeJson(std::ostream& os) const {
  JsonWriter w(os);
  w.object();
  for (const Counter& c : counters_) w.count(c.name, c.value);
  w.end();
}

void CounterSet::print(std::ostream& os) const {
  for (const Counter& c : counters_) {
    os << c.name << " = " << c.value << '\n';
  }
}

// ----- Histogram -------------------------------------------------------

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty()) {
    throw std::invalid_argument("obs::Histogram: no bucket bounds");
  }
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i])) {
      throw std::invalid_argument(
          "obs::Histogram: bounds must be finite (the +inf overflow bucket "
          "is implicit)");
    }
    if (i > 0 && !(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument(
          "obs::Histogram: bounds must be strictly increasing");
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::exponential(double start, double factor, std::size_t n) {
  if (!(start > 0.0) || !(factor > 1.0) || n == 0) {
    throw std::invalid_argument("obs::Histogram::exponential: bad ladder");
  }
  std::vector<double> bounds(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    bounds[i] = b;
    b *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::record(double x) noexcept {
  if (std::isnan(x)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  ++counts_[bucket];  // bucket == bounds_.size() is the overflow bucket
  ++count_;
  if (std::isfinite(x)) {
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("obs::Histogram::merge: bucket bounds differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::writeJson(std::ostream& os) const {
  // The overflow bucket's bound is +inf, which JSON spells null.
  constexpr double kOverflow = std::numeric_limits<double>::infinity();
  JsonWriter w(os);
  w.object().array("buckets");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double le = i < bounds_.size() ? bounds_[i] : kOverflow;
    w.object().num("le", le).count("count", counts_[i]).end();
  }
  w.end().count("count", count_).num("sum", sum_);
  w.num("min", count_ > 0 ? min_ : 0.0).num("max", count_ > 0 ? max_ : 0.0);
  w.end();
}

// ----- Registry --------------------------------------------------------

void Registry::setGauge(const std::string& name, double value) {
  for (Gauge& g : gauges_) {
    if (g.name == name) {
      g.value = value;
      return;
    }
  }
  gauges_.push_back(Gauge{name, value});
}

void Registry::maxGauge(const std::string& name, double value) {
  for (Gauge& g : gauges_) {
    if (g.name == name) {
      g.value = std::max(g.value, value);
      return;
    }
  }
  gauges_.push_back(Gauge{name, value});
}

double Registry::gauge(const std::string& name) const noexcept {
  for (const Gauge& g : gauges_) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upperBounds) {
  for (auto& [n, h] : histograms_) {
    if (n == name) return h;
  }
  histograms_.emplace_back(name, Histogram(std::move(upperBounds)));
  return histograms_.back().second;
}

const Histogram* Registry::findHistogram(
    const std::string& name) const noexcept {
  for (const auto& [n, h] : histograms_) {
    if (n == name) return &h;
  }
  return nullptr;
}

namespace {

std::string describeBounds(const std::vector<double>& bounds) {
  std::string out = "[";
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", bounds[i]);
    out += buf;
  }
  out += ']';
  return out;
}

}  // namespace

void Registry::merge(const Registry& other) {
  counters_.merge(other.counters_);
  for (const Gauge& g : other.gauges_) maxGauge(g.name, g.value);
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(name, h.upperBounds());
    // Diagnose the mismatch here, where the name is known — the bare
    // Histogram::merge error cannot say *which* histogram clashed, and
    // a merge of many shard registries needs that to be actionable.
    if (mine.upperBounds() != h.upperBounds()) {
      throw std::invalid_argument(
          "obs::Registry::merge: histogram '" + name +
          "' bucket bounds differ: have " + describeBounds(mine.upperBounds()) +
          ", incoming " + describeBounds(h.upperBounds()));
    }
    mine.merge(h);
  }
}

void Registry::writeJson(std::ostream& os) const {
  JsonWriter w(os);
  counters_.writeJson(w.object().key("counters").valueStream());
  w.object("gauges");
  for (const Gauge& g : gauges_) w.num(g.name, g.value);
  w.end().object("histograms");
  for (const auto& [name, h] : histograms_) {
    h.writeJson(w.key(name).valueStream());
  }
  w.end().end();
}

void Registry::print(std::ostream& os) const {
  counters_.print(os);
  for (const Gauge& g : gauges_) {
    os << g.name << " = " << g.value << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ": count=" << h.count() << " sum=" << h.sum();
    if (h.count() > 0) {
      os << " min=" << h.minSeen() << " max=" << h.maxSeen();
    }
    os << '\n';
    const auto& bounds = h.upperBounds();
    const auto& counts = h.bucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      os << "  le=";
      if (i < bounds.size()) {
        os << bounds[i];
      } else {
        os << "+inf";
      }
      os << ": " << counts[i] << '\n';
    }
  }
}

}  // namespace fepia::obs

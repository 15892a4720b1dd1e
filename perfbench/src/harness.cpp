#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/clock.hpp"

namespace perfbench {

namespace obs = fepia::obs;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double relativeIncrease(const std::vector<double>& base,
                        const std::vector<double>& other) {
  if (base.empty() || other.empty()) return 0.0;
  return (sum(other) / static_cast<double>(other.size())) /
             (sum(base) / static_cast<double>(base.size())) -
         1.0;
}

double histogramQuantile(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double target = q * static_cast<double>(h.count());
  const std::vector<double>& bounds = h.upperBounds();
  const std::vector<std::uint64_t>& counts = h.bucketCounts();
  double below = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0.0 && below + c >= target) {
      const double lo = i == 0 ? std::min(h.minSeen(), bounds.front())
                               : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : h.maxSeen();
      return lo + (hi - lo) * (target - below) / c;
    }
    below += c;
  }
  return h.maxSeen();
}

double peakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double processCpuSeconds() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::size_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double medianSetupSeconds(const std::function<void()>& build) {
  std::vector<double> seconds;
  for (int i = 0; i < 5; ++i) {
    const obs::Stopwatch sw;
    build();
    seconds.push_back(sw.elapsedSeconds());
  }
  return median(seconds);
}

double meanMillis(const std::function<void()>& fn, std::size_t minCalls,
                  double minSeconds) {
  const obs::Stopwatch sw;
  std::size_t calls = 0;
  while (calls < minCalls || sw.elapsedSeconds() < minSeconds) {
    fn();
    ++calls;
  }
  return sw.elapsedSeconds() * 1e3 / static_cast<double>(calls);
}

std::string dropManifest(const std::string& json) {
  const std::string key = "\"manifest\": {";
  const std::size_t start = json.find(key);
  if (start == std::string::npos) return json;
  // The manifest is a flat object (its only array holds strings), so the
  // member ends at the first '}' outside a string literal.
  std::size_t i = start + key.size();
  bool inString = false;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
    } else if (c == '"') {
      inString = true;
    } else if (c == '}') {
      break;
    }
  }
  std::size_t end = std::min(i + 1, json.size());
  if (json.compare(end, 2, ", ") == 0) end += 2;
  return json.substr(0, start) + json.substr(end);
}

std::string dropLines(const std::string& text,
                      const std::vector<std::string>& prefixes) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t");
    bool drop = false;
    if (first != std::string::npos) {
      for (const std::string& p : prefixes) {
        if (line.compare(first, p.size(), p) == 0) drop = true;
      }
    }
    if (!drop) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

void TraceSession::begin() {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.start();
  if (!started_) {
    baseNs_ = tc.baseNanos();
    started_ = true;
  }
  obs::setTimingEnabled(true);
}

void TraceSession::end() {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  obs::setTimingEnabled(false);
  tc.stop();
  std::vector<obs::SpanRecord> batch = tc.collect();
  records_.insert(records_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
}

void TraceSession::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  obs::writeChromeTrace(out, records_, baseNs_);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

}  // namespace perfbench

#include "obs/span.hpp"

#include <cstdio>

#include "obs/clock.hpp"
#include "obs/json.hpp"

namespace fepia::obs {

namespace detail {

void ThreadBuffer::open(const char* name, const char* argName,
                        std::uint64_t arg, std::uint64_t startNs) {
  OpenSpan span;
  span.name = name;
  span.argName = argName;
  span.arg = arg;
  span.startNs = startNs;
  if (stack_.empty()) {
    span.id = 't' + std::to_string(tid_) + '.' + std::to_string(roots_++);
  } else {
    OpenSpan& parent = stack_.back();
    span.id = parent.id + '.' + std::to_string(parent.children++);
  }
  stack_.push_back(std::move(span));
}

void ThreadBuffer::close(std::uint64_t endNs) {
  OpenSpan span = std::move(stack_.back());
  stack_.pop_back();
  SpanRecord rec;
  rec.name = span.name;
  rec.id = std::move(span.id);
  rec.tid = tid_;
  rec.startNs = span.startNs;
  rec.durNs = endNs >= span.startNs ? endNs - span.startNs : 0;
  rec.argName = span.argName;
  rec.arg = span.arg;
  const std::lock_guard<std::mutex> lock(recordsMutex_);
  records_.push_back(std::move(rec));
}

}  // namespace detail

/// Collector internals' keyhole into ThreadBuffer.
class TraceCollectorAccess {
 public:
  static void drain(detail::ThreadBuffer& buf, std::vector<SpanRecord>& out) {
    const std::lock_guard<std::mutex> lock(buf.recordsMutex_);
    for (SpanRecord& r : buf.records_) out.push_back(std::move(r));
    buf.records_.clear();
  }
};

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  return collector;
}

void TraceCollector::start() {
  (void)collect();  // drop any stale records from a previous session
  baseNs_ = nowNanos();
  enabled_.store(true, std::memory_order_relaxed);
}

std::vector<SpanRecord> TraceCollector::collect() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const auto& buf : buffers_) {
    TraceCollectorAccess::drain(*buf, out);
  }
  return out;
}

detail::ThreadBuffer& TraceCollector::threadBuffer() {
  thread_local detail::ThreadBuffer* cached = nullptr;
  if (cached == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<detail::ThreadBuffer>(
        static_cast<std::uint32_t>(buffers_.size())));
    cached = buffers_.back().get();
  }
  return *cached;
}

Span::Span(const char* name, const char* argName, std::uint64_t arg) {
  TraceCollector& tc = TraceCollector::instance();
  if (!tc.enabled()) return;
  buf_ = &tc.threadBuffer();
  buf_->open(name, argName, arg, nowNanos());
}

Span::~Span() {
  if (buf_ != nullptr) buf_->close(nowNanos());
}

namespace {
std::atomic<bool> g_timingEnabled{false};
}  // namespace

bool timingEnabled() noexcept {
  return g_timingEnabled.load(std::memory_order_relaxed);
}

void setTimingEnabled(bool on) noexcept {
  g_timingEnabled.store(on, std::memory_order_relaxed);
}

void writeChromeTrace(std::ostream& os, const std::vector<SpanRecord>& records,
                      std::uint64_t baseNs) {
  // Microseconds with a nanosecond fraction, e.g. 1234.567.
  const auto micros = [](std::uint64_t ns) {
    char frac[8];
    std::snprintf(frac, sizeof frac, ".%03u", static_cast<unsigned>(ns % 1000));
    return std::to_string(ns / 1000) + frac;
  };
  JsonWriter w(os, 0);
  w.array(JsonLayout::Lines).object().str("name", "process_name");
  w.str("ph", "M").count("pid", 0).object("args").str("name", "fepia");
  w.end().end();
  for (const SpanRecord& r : records) {
    const std::uint64_t rel = r.startNs >= baseNs ? r.startNs - baseNs : 0;
    w.object().str("name", r.name).str("cat", "fepia").str("ph", "X");
    w.raw("ts", micros(rel)).raw("dur", micros(r.durNs)).count("pid", 0);
    w.count("tid", r.tid).object("args").str("id", r.id);
    if (r.argName != nullptr) w.count(r.argName, r.arg);
    w.end().end();
  }
  w.end();
  os << '\n';
}

}  // namespace fepia::obs

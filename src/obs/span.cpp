#include "obs/span.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "base/contracts.h"
#include "base/json.h"

namespace tfa::obs {

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_), index_(other.index_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    index_ = other.index_;
    other.tracer_ = nullptr;
  }
  return *this;
}

Span::~Span() { end(); }

void Span::end() {
  if (tracer_ == nullptr) return;
  tracer_->close(index_);
  tracer_ = nullptr;
}

Tracer::Tracer()
    : clock_([] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
      }) {}

Tracer::Tracer(Clock clock) : clock_(std::move(clock)) {
  TFA_EXPECTS(clock_ != nullptr);
}

Span Tracer::span(std::string_view name) {
  Event e;
  e.name = std::string(name);
  e.start_ns = clock_();
  e.depth = open_depth_++;
  e.trace = context_;
  events_.push_back(std::move(e));
  return Span(this, events_.size() - 1);
}

void Tracer::close(std::size_t index) {
  TFA_ASSERT(index < events_.size());
  Event& e = events_[index];
  TFA_ASSERT(e.dur_ns < 0);  // double close is a Span bug
  e.dur_ns = clock_() - e.start_ns;
  TFA_ASSERT(open_depth_ > 0);
  --open_depth_;
}

void Tracer::append(const Tracer& other) {
  for (const Event& e : other.events_) {
    if (e.dur_ns < 0) continue;
    Event copy = e;
    copy.depth += open_depth_;
    copy.trace = context_;
    events_.push_back(std::move(copy));
  }
}

std::string Tracer::chrome_trace_json() const {
  // Relative timestamps: Chrome/Perfetto render from the earliest ts, and
  // a steady_clock epoch offset only obscures the numbers.
  std::int64_t origin_ns = 0;
  for (const Event& e : events_) {
    origin_ns = e.start_ns;
    break;
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (e.dur_ns < 0) continue;  // still open: not representable as "X"
    if (!first) os << ',';
    first = false;
    const std::int64_t rel_ns = e.start_ns - origin_ns;
    // Microsecond timestamps with nanosecond remainders as decimals.
    os << "{\"name\":\"" << json_escape(e.name)
       << "\",\"cat\":\"tfa\",\"ph\":\"X\",\"ts\":" << rel_ns / 1000 << '.'
       << static_cast<char>('0' + (rel_ns % 1000) / 100)
       << static_cast<char>('0' + (rel_ns % 100) / 10)
       << static_cast<char>('0' + rel_ns % 10)
       << ",\"dur\":" << e.dur_ns / 1000 << '.'
       << static_cast<char>('0' + (e.dur_ns % 1000) / 100)
       << static_cast<char>('0' + (e.dur_ns % 100) / 10)
       << static_cast<char>('0' + e.dur_ns % 10)
       << ",\"pid\":0,\"tid\":0,\"args\":{\"depth\":" << e.depth;
    if (!e.trace.empty()) os << ",\"trace\":\"" << json_escape(e.trace) << '"';
    os << "}}";
  }
  os << "]}";
  return os.str();
}

}  // namespace tfa::obs

#include "obs/eventlog.h"

#include <chrono>
#include <utility>

#include "base/json.h"

namespace tfa::obs {

const char* to_string(EventSeverity sev) noexcept {
  switch (sev) {
    case EventSeverity::kDebug: return "debug";
    case EventSeverity::kInfo: return "info";
    case EventSeverity::kWarn: return "warn";
    case EventSeverity::kError: return "error";
  }
  return "?";
}

std::optional<EventSeverity> severity_from_string(std::string_view s) noexcept {
  if (s == "debug") return EventSeverity::kDebug;
  if (s == "info") return EventSeverity::kInfo;
  if (s == "warn") return EventSeverity::kWarn;
  if (s == "error") return EventSeverity::kError;
  return std::nullopt;
}

EventLog::EventLog(EventLogConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.clock) {
    cfg_.clock = [] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
}

void EventLog::set_sink(std::ostream* sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

bool EventLog::record(EventSeverity sev, std::string_view event,
                      const std::vector<EventField>& fields) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (sev < cfg_.min_severity) {
    ++filtered_;
    return false;
  }
  if (sev < EventSeverity::kWarn) {
    // Sampling applies only below warn: every Nth debug/info survives.
    if (seen_low_++ % cfg_.sample_every != 0) {
      ++filtered_;
      return false;
    }
  }
  std::string line = "{\"ts\":";
  line += std::to_string(cfg_.clock());
  line += ",\"severity\":\"";
  line += to_string(sev);
  line += "\",\"event\":\"";
  line += json_escape(event);
  line += '"';
  for (const EventField& f : fields) {
    line += ",\"";
    line += json_escape(f.key);
    line += "\":";
    line += f.value_json;
  }
  line += '}';
  if (sink_ != nullptr) {
    *sink_ << line << '\n';
    sink_->flush();
  }
  ring_.push_back(std::move(line));
  if (cfg_.capacity > 0 && ring_.size() > cfg_.capacity) {
    ring_.pop_front();
    ++evicted_;
  }
  ++recorded_;
  return true;
}

std::vector<std::string> EventLog::lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::string EventLog::dump() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& l : ring_) {
    out += l;
    out += '\n';
  }
  return out;
}

std::uint64_t EventLog::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t EventLog::filtered() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return filtered_;
}

std::uint64_t EventLog::evicted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

}  // namespace tfa::obs

#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "base/contracts.h"
#include "base/json.h"

namespace tfa::obs {

void Histogram::record(std::int64_t value) {
  ++count;
  sum += value;
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    if (value <= bounds[k]) {
      ++counts[k];
      return;
    }
  }
  ++overflow;
}

std::int64_t& MetricRegistry::counter(std::string_view name) {
  return counters_.try_emplace(std::string(name), 0).first->second;
}

std::int64_t& MetricRegistry::timer(std::string_view name) {
  return timers_.try_emplace(std::string(name), 0).first->second;
}

std::int64_t& MetricRegistry::gauge(std::string_view name) {
  return gauges_.try_emplace(std::string(name), 0).first->second;
}

Histogram& MetricRegistry::histogram(std::string_view name,
                                     std::vector<std::int64_t> bounds) {
  TFA_EXPECTS(std::is_sorted(bounds.begin(), bounds.end()));
  auto [it, inserted] = histograms_.try_emplace(std::string(name));
  if (inserted) {
    it->second.bounds = std::move(bounds);
    it->second.counts.assign(it->second.bounds.size(), 0);
  } else {
    TFA_EXPECTS(it->second.bounds == bounds);
  }
  return it->second;
}

void MetricRegistry::append_series(std::string_view name, std::int64_t value) {
  auto& s = series_.try_emplace(std::string(name)).first->second;
  if (series_cap_ != 0 && s.size() >= series_cap_) {
    ++counter("obs.series_dropped");
    return;
  }
  s.push_back(value);
}

namespace {

std::int64_t lookup(
    const std::map<std::string, std::int64_t, std::less<>>& values,
    std::string_view name) {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

}  // namespace

std::int64_t MetricRegistry::counter_value(std::string_view name) const {
  return lookup(counters_, name);
}

std::int64_t MetricRegistry::timer_value(std::string_view name) const {
  return lookup(timers_, name);
}

std::int64_t MetricRegistry::gauge_value(std::string_view name) const {
  return lookup(gauges_, name);
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [name, v] : other.counters_) counter(name) += v;
  for (const auto& [name, v] : other.timers_) timer(name) += v;
  for (const auto& [name, v] : other.gauges_) {
    std::int64_t& mine = gauge(name);
    mine = std::max(mine, v);
  }
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(name, h.bounds);
    for (std::size_t k = 0; k < h.counts.size(); ++k)
      mine.counts[k] += h.counts[k];
    mine.overflow += h.overflow;
    mine.count += h.count;
    mine.sum += h.sum;
  }
  for (const auto& [name, s] : other.series_)
    for (const std::int64_t v : s) append_series(name, v);
}

void MetricRegistry::merge_with_prefix(const MetricRegistry& other,
                                       std::string_view prefix) {
  const auto prefixed = [&prefix](const std::string& name) {
    std::string full;
    full.reserve(prefix.size() + name.size());
    full.append(prefix);
    full.append(name);
    return full;
  };
  for (const auto& [name, v] : other.counters_) counter(prefixed(name)) += v;
  for (const auto& [name, v] : other.timers_) timer(prefixed(name)) += v;
  for (const auto& [name, v] : other.gauges_) {
    std::int64_t& mine = gauge(prefixed(name));
    mine = std::max(mine, v);
  }
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(prefixed(name), h.bounds);
    for (std::size_t k = 0; k < h.counts.size(); ++k)
      mine.counts[k] += h.counts[k];
    mine.overflow += h.overflow;
    mine.count += h.count;
    mine.sum += h.sum;
  }
  for (const auto& [name, s] : other.series_)
    for (const std::int64_t v : s) append_series(prefixed(name), v);
}

namespace {

void write_scalar_map(
    std::ostringstream& os, std::string_view key,
    const std::map<std::string, std::int64_t, std::less<>>& values) {
  os << '"' << key << "\":{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << v;
  }
  os << '}';
}

void write_int_array(std::ostringstream& os,
                     const std::vector<std::int64_t>& values) {
  os << '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) os << ',';
    os << values[k];
  }
  os << ']';
}

void write_histograms(
    std::ostringstream& os,
    const std::map<std::string, Histogram, std::less<>>& histograms) {
  os << "\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"bounds\":";
    write_int_array(os, h.bounds);
    os << ",\"counts\":";
    write_int_array(os, h.counts);
    os << ",\"overflow\":" << h.overflow << ",\"count\":" << h.count
       << ",\"sum\":" << h.sum << '}';
  }
  os << '}';
}

void write_series(
    std::ostringstream& os,
    const std::map<std::string, std::vector<std::int64_t>, std::less<>>&
        series) {
  os << "\"series\":{";
  bool first = true;
  for (const auto& [name, s] : series) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":";
    write_int_array(os, s);
  }
  os << '}';
}

}  // namespace

std::string MetricRegistry::to_json() const {
  std::ostringstream os;
  os << '{';
  write_scalar_map(os, "counters", counters_);
  os << ',';
  write_scalar_map(os, "timers", timers_);
  os << ',';
  write_scalar_map(os, "gauges", gauges_);
  os << ',';
  write_histograms(os, histograms_);
  os << ',';
  write_series(os, series_);
  os << '}';
  return os.str();
}

std::string MetricRegistry::deterministic_json() const {
  std::ostringstream os;
  os << '{';
  write_scalar_map(os, "counters", counters_);
  os << ',';
  write_histograms(os, histograms_);
  os << ',';
  write_series(os, series_);
  os << '}';
  return os.str();
}

}  // namespace tfa::obs

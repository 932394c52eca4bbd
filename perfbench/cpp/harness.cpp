#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <fstream>

#include "model/paper_example.h"
#include "trajectory/analysis.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuRotor::CpuRotor() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(static_cast<std::size_t>(c), &allowed)) cpus_.push_back(c);
  if (cpus_.size() < 2) return;
  // Start on the CPU the process already runs on.
  const int here = sched_getcpu();
  for (std::size_t i = 0; i < cpus_.size(); ++i)
    if (cpus_[i] == here) at_ = i;
  pin(cpus_[at_]);
}

void CpuRotor::next() {
  if (cpus_.size() < 2) return;
  at_ = (at_ + 1) % cpus_.size();
  pin(cpus_[at_]);
}

void CpuRotor::pin(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  // Every thread of the process: the server's threads in serve_socket
  // move with the client's.
  if (DIR* tasks = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(tasks)) {
      const int tid = std::atoi(e->d_name);
      if (tid > 0) (void)sched_setaffinity(tid, sizeof one, &one);
    }
    closedir(tasks);
  }
  (void)sched_setaffinity(0, sizeof one, &one);
  moved_ns_ = now_ns();
}

CpuRotor& cpu_rotor() {
  static CpuRotor rotor;
  return rotor;
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::open(std::string_view name) {
  if (!on_) return;
  const std::int64_t t = now_ns();
  spans_.push_back(Span{intern(name), t, t, -1, 0});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close() {
  if (open_ >= 0) spans_[static_cast<std::size_t>(open_)].end_ns = now_ns();
  open_ = -1;
}

void Tracer::record(std::string_view name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t op) {
  if (on_) spans_.push_back(Span{intern(name), start_ns, end_ns, open_, op});
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  std::uint32_t id = 0;
  for (; id < names_.size(); ++id)
    if (names_[id] == name) break;
  if (id == names_.size()) return out;
  for (const Span& s : spans_)
    if (s.name == id)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

void Tracer::print_layer_table(std::FILE* out) const {
  // Time covered by each span's children (children of one parent never
  // overlap: one client thread with one call in flight).
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  struct Row {
    std::size_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<double> us;
  };
  std::vector<Row> rows(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    const std::int64_t d = s.end_ns - s.start_ns;
    ++r.calls;
    r.total_ns += d;
    r.self_ns += d - child_ns[i];
    r.us.push_back(static_cast<double>(d) / 1e3);
  }
  std::fprintf(out, "layer table (benchmark-side spans)\n");
  std::fprintf(out, "  %-28s %9s %12s %12s %12s\n", "span", "calls",
               "total_ms", "self_ms", "p50_us");
  for (std::size_t id = 0; id < names_.size(); ++id) {
    const Row& r = rows[id];
    std::fprintf(out, "  %-28s %9zu %12.3f %12.3f %12.2f\n",
                 names_[id].c_str(), r.calls,
                 static_cast<double>(r.total_ns) / 1e6,
                 static_cast<double>(r.self_ns) / 1e6, median(r.us));
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%" PRIu64 "}}",
                  i == 0 ? "" : ",\n", names_[s.name].c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.op);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Rank n-11 (0-based) has exactly ten samples above it.  With fewer
  // than eleven samples no percentile qualifies; report the maximum.
  const std::size_t n = v.size();
  const std::size_t rank = n > 10 ? n - 11 : n - 1;
  t.value = v[rank];
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Digest::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  // Length-delimit so ("ab","c") and ("a","bc") differ.
  add(static_cast<std::int64_t>(bytes.size()));
}

void Digest::add(std::int64_t v) noexcept {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h_ ^= u & 0xff;
    h_ *= 0x100000001b3ull;
    u >>= 8;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void digest_result(Digest& d, const tfa::trajectory::Result& r) {
  d.add(static_cast<std::int64_t>(r.bounds.size()));
  for (const tfa::trajectory::FlowBound& b : r.bounds) {
    d.add(static_cast<std::int64_t>(b.flow));
    d.add(b.response);
    d.add(b.busy_period);
    d.add(b.delta);
    d.add(b.jitter);
    d.add(b.critical_instant);
    d.add(static_cast<std::int64_t>(b.schedulable) |
          static_cast<std::int64_t>(b.composed) << 1);
    for (const tfa::Duration p : b.prefix_responses) d.add(p);
  }
  d.add(static_cast<std::int64_t>(r.all_schedulable) |
        static_cast<std::int64_t>(r.converged) << 1);
  d.add(static_cast<std::int64_t>(r.smax_iterations));
  d.add(static_cast<std::int64_t>(r.split_count));
}

bool same_bound(const tfa::trajectory::FlowBound& x,
                const tfa::trajectory::FlowBound& y) {
  return x.flow == y.flow && x.response == y.response &&
         x.busy_period == y.busy_period && x.delta == y.delta &&
         x.jitter == y.jitter && x.critical_instant == y.critical_instant &&
         x.schedulable == y.schedulable && x.composed == y.composed &&
         x.prefix_responses == y.prefix_responses;
}

bool same_result(const tfa::trajectory::Result& a,
                 const tfa::trajectory::Result& b, std::string* why) {
  auto differ = [why](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.bounds.size() != b.bounds.size()) return differ("bound count");
  if (a.all_schedulable != b.all_schedulable) return differ("all_schedulable");
  if (a.converged != b.converged) return differ("converged");
  if (a.smax_iterations != b.smax_iterations) return differ("smax_iterations");
  if (a.split_count != b.split_count) return differ("split_count");
  for (std::size_t i = 0; i < a.bounds.size(); ++i)
    if (!same_bound(a.bounds[i], b.bounds[i]))
      return differ("bound " + std::to_string(i));
  return true;
}

void Report::fail(std::string message) {
  ++failure_count;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

void report_windows(Report& report, const std::vector<OpSample>& ops,
                    std::int64_t start_ns, std::size_t unit) {
  // Whole units only; too few of them for kMinWindows windows: single ops.
  if (ops.size() / unit < kMinWindows) unit = 1;
  const std::size_t units = ops.size() / unit;
  const auto headline = static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](const OpSample& o) { return o.headline; }));
  const std::size_t windows = std::max<std::size_t>(
      1, std::min(units, std::max(kMinWindows, headline / kTailSamples)));
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> tails;
  std::vector<double> pct;
  std::size_t samples = 0;
  std::string per = "windows:";
  std::int64_t from = start_ns;
  for (std::size_t i = 0; i < windows && units > 0; ++i) {
    const std::size_t first = units * i / windows * unit;
    const std::size_t last = units * (i + 1) / windows * unit;
    std::vector<double> lat;
    for (std::size_t k = first; k < last; ++k)
      if (ops[k].headline) lat.push_back(ops[k].latency_us);
    const double secs = static_cast<double>(ops[last - 1].done_ns - from) / 1e9;
    from = ops[last - 1].done_ns;
    rate.push_back(secs > 0 ? static_cast<double>(last - first) / secs : 0);
    p50.push_back(median(lat));
    const Tail t = tail(lat);
    tails.push_back(t.value);
    pct.push_back(t.percentile);
    samples += t.samples;
    char one[96];
    std::snprintf(one, sizeof one, " [%.2f/s p50 %.1fus tail %.1fus]",
                  rate.back(), p50.back(), tails.back());
    per += one;
  }
  report.notes.push_back(per);
  report.set("ops_per_s", median(rate), "1/s");
  report.set("lat_p50_us", median(p50), "us");
  report.set("lat_tail_us", median(tails), "us");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "lat_tail_us is the median over %zu windows of each window's "
                "tail: the p%.3f latency of ~%zu samples (ten beyond it)",
                windows, median(pct), samples / windows);
  report.notes.emplace_back(buf);
  if (samples / windows < 11)
    report.notes.emplace_back(
        "warning: fewer than 11 headline samples per window; the tail is "
        "the maximum");
}

void RssProbe::report(Report& report) const {
  if (mb_ >= 0) {
    report.set("rss_peak_mb", mb_, "MB");
    return;
  }
  report.set("rss_peak_mb", rss_peak_mb(), "MB");
  report.notes.push_back("rss_peak_mb read at the end of the timed phase: "
                         "it ended before " + std::to_string(at_) + " ops");
}

void check_paper_example(Report& report) {
  const tfa::model::FlowSet set = tfa::model::paper_example();
  tfa::trajectory::Config cfg;
  cfg.workers = 1;
  const tfa::trajectory::Result r = tfa::trajectory::analyze(set, cfg);
  bool ok = r.bounds.size() == tfa::model::kArrivalTrajectoryBounds.size();
  for (std::size_t i = 0; ok && i < r.bounds.size(); ++i)
    ok = r.bounds[i].response == tfa::model::kArrivalTrajectoryBounds[i] &&
         r.bounds[i].schedulable;
  if (!ok) report.fail("paper example does not give 31/37/47/47/40");
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"lat_p50_us", "us"},     {"lat_tail_us", "us"},
      {"rss_peak_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // analyze_dense
      {"trajectory.fixed_point_us", "us"},
      {"trajectory.extract_us", "us"},
      {"trajectory.rest_us", "us"},
      {"model.normalize_us", "us"},
      {"trajectory.smax_passes", "count"},
      {"trajectory.test_points", "count"},
      {"trajectory.busy_period_iterations", "count"},
      {"trajectory.points_per_bound", "ratio"},
      // admit_churn
      {"shard.admit_us", "us"},
      {"shard.add_us", "us"},
      {"shard.remove_us", "us"},
      {"shard.perturb_us", "us"},
      {"shard.settle_us", "us"},
      {"shard.result_us", "us"},
      {"shard.analyzed_flows_per_admit", "count"},
      {"shard.merges", "1/kop"},
      {"shard.splits", "1/kop"},
      {"shard.accept_ratio", "ratio"},
      {"batch.warm_share", "ratio"},
      {"batch.cache_hit_ratio", "ratio"},
      {"trajectory.smax_passes_per_admit", "count"},
      // serve_socket
      {"service.analyze_us", "us"},
      {"service.admit_us", "us"},
      {"service.add_flow_us", "us"},
      {"service.remove_flow_us", "us"},
      {"service.snapshot_us", "us"},
      {"service.provision_us", "us"},
      {"service.statsz_us", "us"},
      {"service.core_us", "us"},
      {"transport.overhead_us", "us"},
      {"provision.plan_us", "us"},
      {"model.parse_us", "us"},
      {"service.memo_hit_ratio", "ratio"},
      {"service.resp_bytes", "bytes"},
      // every workload
      {"bench.trace_overhead", "ratio"},
  };
  return defs;
}

}  // namespace perfbench

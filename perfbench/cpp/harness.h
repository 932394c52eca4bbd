// Shared plumbing of the end-to-end benchmark program: options, the
// benchmark-side span recorder, sample summaries, the run report and the
// result-line printer.  Every workload (analyze_dense.cpp,
// admit_churn.cpp, serve_socket.cpp) fills one Report; main.cpp prints
// it.  See perfbench/README.md for the metric definitions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trajectory/types.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  /// Fixed op count instead of a timed phase (0 = run for `seconds`).
  /// The exact-repeat self-test uses it: with a fixed count every
  /// counter and digest is a pure function of the seed.
  std::size_t ops = 0;
  /// Reduced input sizes (self-test and smoke runs).
  bool small = false;
  /// Where traced mode writes its spans (Chrome trace-event JSON).
  std::string trace_out;
  /// Unix-socket path of serve_socket's server (default: a file named
  /// after the process id in the working directory).
  std::string socket;
};

/// Setup repetitions per run; setup_s reports their median.
inline constexpr int kSetups = 5;

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Moves every thread of the process, together, round-robin over the
/// CPUs it may run on.  On a shared host the speed of one CPU changes
/// from one stretch of seconds to the next with the load other guests
/// put on its core; a run that stays on one CPU reports that CPU's
/// stretch, a run that visits every CPU every few hundred milliseconds
/// reports their average.  All threads share one CPU at a time, so a
/// request handed between threads (serve_socket) never waits for a
/// wake-up on another CPU.  Built once, by cpu_rotor(); with a single
/// allowed CPU, or where affinity cannot be set, it does nothing.
class CpuRotor {
 public:
  /// Time on one CPU before tick() moves on.
  static constexpr std::int64_t kPeriodNs = 100'000'000;

  CpuRotor();
  /// Moves to the next CPU once kPeriodNs passed since the last move.
  /// Called between ops, never inside a timed call.
  void tick() {
    if (cpus_.size() > 1 && now_ns() - moved_ns_ >= kPeriodNs) next();
  }
  /// Moves to the next CPU now.
  void next();

 private:
  void pin(int cpu);

  std::vector<int> cpus_;
  std::size_t at_ = 0;
  std::int64_t moved_ns_ = 0;
};

/// The process's rotor; the first call pins every thread to one CPU.
[[nodiscard]] CpuRotor& cpu_rotor();

/// Benchmark-side spans: name, start, end, parent and op id, recorded
/// around calls into one layer of the program.  Kept in memory; written
/// out once at exit.  A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< Index of the enclosing span, -1 = root.
    std::uint64_t op = 0;      ///< Op id shared by the spans of one op.
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  /// Opens the enclosing span of a timed phase ("bench.phase"): spans
  /// recorded until close() are its children, so its self time in the
  /// layer table is the benchmark's own time inside the phase.
  void open(std::string_view name);
  void close();

  /// Records a finished span under the open phase span, if any.
  void record(std::string_view name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t op);

  /// Durations of every span called `name`, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  /// Per span name: calls, total and self milliseconds (self = duration
  /// minus the time covered by child spans), median microseconds.
  void print_layer_table(std::FILE* out) const;

  /// Chrome trace-event JSON ("X" events; parent and op in args).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::uint32_t intern(std::string_view name);

  bool on_ = false;
  std::int32_t open_ = -1;  ///< Index of the open phase span, -1 = none.
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< In percent.
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double rss_peak_mb();

/// FNV-1a 64-bit digest, fed incrementally.
class Digest {
 public:
  void add(std::string_view bytes) noexcept;
  void add(std::int64_t v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Feeds every field of a trajectory result into `d`, bounds in the
/// order given.  Two results with the same digest are bit-identical
/// with overwhelming probability; the checks that need certainty use
/// same_result() instead.
void digest_result(Digest& d, const tfa::trajectory::Result& r);

/// Field-by-field equality of two flow bounds.
[[nodiscard]] bool same_bound(const tfa::trajectory::FlowBound& a,
                              const tfa::trajectory::FlowBound& b);

/// Field-by-field equality of two results (stats excluded: they carry
/// wall times).  On a mismatch `*why` names the first differing field.
[[nodiscard]] bool same_result(const tfa::trajectory::Result& a,
                               const tfa::trajectory::Result& b,
                               std::string* why);

/// One run's outcome.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few check failures.
  std::size_t failure_count = 0;      ///< All check failures.
  std::map<std::string, Metric> metrics;
  /// Exact counts and the output digest, printed on the `counts` line
  /// for the exact-repeat self-test.
  std::map<std::string, std::string> counts;
  std::vector<std::string> notes;  ///< Human-readable lines.

  /// A failed output check: counts against correctness and the exit code.
  void fail(std::string message);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  [[nodiscard]] bool correct() const noexcept { return failure_count == 0; }
};

/// One completed op of the untraced phase.
struct OpSample {
  std::int64_t done_ns = 0;  ///< Completion time (now_ns()).
  double latency_us = 0;
  bool headline = true;      ///< Counts toward lat_p50_us / lat_tail_us.
};

/// Windows the untraced phase is split into by report_windows(): at
/// least kMinWindows, and more while each still holds about
/// kTailSamples headline ops.
inline constexpr std::size_t kMinWindows = 5;
inline constexpr std::size_t kTailSamples = 200;

/// Sets ops_per_s, lat_p50_us and lat_tail_us from the ops of the
/// untraced phase, which started at `start_ns`.  The ops, in completion
/// order, are cut into whole units of `unit` ops (a workload's cycle of
/// inputs, so every window holds the same mix) and the units are split
/// into windows; each metric is the median over the windows of its
/// per-window value (ops per second from the previous window's last
/// completion to this window's; median and tail latency of the window's
/// headline ops), so a burst of host noise that spans fewer than half
/// the windows does not move it.  Windows of about kTailSamples headline
/// ops put each window's tail (ten samples beyond it) near p95, inside
/// the program's own spread of op costs; over thousands of samples the
/// ten slowest are the ops a host stall hit, and they measure the host.
/// Trailing ops short of a whole unit are left out.  A note names the
/// tail percentile and the per-window sample count.
void report_windows(Report& report, const std::vector<OpSample>& ops,
                    std::int64_t start_ns, std::size_t unit);

/// Reads rss_peak_mb once the untraced phase has completed `at` ops, so
/// the figure describes a fixed amount of work whatever the speed; a
/// phase that ends first reads it at its end and says so in a note.
class RssProbe {
 public:
  explicit RssProbe(std::uint64_t at) : at_(at) {}
  /// Call before op number `done` (0-based) of the untraced phase.
  void before_op(std::uint64_t done) {
    if (done == at_) mb_ = rss_peak_mb();
  }
  void report(Report& report) const;

 private:
  std::uint64_t at_;
  double mb_ = -1;
};

/// The paper's running example must give 31/37/47/47/40 on every run.
void check_paper_example(Report& report);

/// Every per-layer metric the benchmark defines, with its unit, in the
/// order BENCHMARK.json lists them.  A traced run reports all of them;
/// those its workload does not exercise read 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

}  // namespace perfbench

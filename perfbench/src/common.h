// Shared plumbing of the measured benchmark: host clock, the benchmark's own
// span recorder (traced mode), latency series, the result line, and the
// shared thread-pool set-up.
//
// Every span here is recorded from the benchmark's own code around a call
// into one of the repository's layers; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the host's monotonic clock since process start.
double now_s();
/// Nanoseconds on the host's monotonic clock since process start.
std::int64_t now_ns();

// ---------------------------------------------------------------------------
// Spans (traced mode only)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 = top level
  std::uint64_t op = 0;      // id of the top-level operation this span serves
};

/// In-memory span recorder. Disabled (the untraced mode) it records nothing
/// and every ScopedSpan costs one branch.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int64_t begin(const char* name);
  void end(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of spans called `name`, in seconds.
  double total_s(const std::string& name) const;
  /// Sum over spans called `name` of their duration less the time their
  /// direct children cover, in seconds.
  double self_s(const std::string& name) const;
  /// Wall time in [from_ns, to_ns) not covered by any top-level span.
  double unattributed_s(std::int64_t from_ns, std::int64_t to_ns) const;

  /// Writes the spans as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t op_counter_ = 0;
  std::uint64_t current_op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

SpanLog& spans();

/// RAII span around one call into a layer. Always measures its own duration
/// (stop()), records a span only when the log is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent) and returns its duration in seconds.
  double stop();

 private:
  std::int64_t index_ = -1;
  std::int64_t start_ns_ = 0;
  double seconds_ = -1;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Latency series in microseconds.
class Series {
 public:
  void add_s(double seconds) { values_.push_back(seconds * 1e6); }
  std::size_t size() const { return values_.size(); }
  /// Linearly interpolated percentile, p in [0, 100].
  double percentile(double p);
  double sum_us() const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

double median(std::vector<double> values);

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, printed to stderr
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Records a check: a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Prints the final JSON line on stdout: end-to-end metrics untraced,
/// per-layer metrics traced.
void print_result(const RunResult& result, bool traced);

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Installs the shared thread pool so that fan-outs run on nproc - 1
/// threads, the calling thread included (none below 3 CPUs), and returns
/// that thread count.
std::size_t install_pool();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_out";
};

}  // namespace perfbench

#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "crypto/sha256.h"
#include "parallel/thread_pool.h"

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              kProcessStart)
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// ------------------------------- SpanLog ----------------------------------

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  if (stack_.empty()) {
    current_op_ = ++op_counter_;  // a top-level span starts a new operation
  } else {
    span.parent = stack_.back();
  }
  span.op = current_op_;
  spans_.push_back(std::move(span));
  auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::end(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::self_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name) {
      ns -= s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::unattributed_s(std::int64_t from_ns, std::int64_t to_ns) const {
  // Top-level spans are recorded in start order and never overlap (one
  // thread), so the covered time is the sum of their clipped durations.
  std::int64_t covered = 0;
  for (const auto& s : spans_) {
    if (s.parent >= 0) continue;
    std::int64_t a = std::max(s.start_ns, from_ns);
    std::int64_t b = std::min(s.end_ns, to_ns);
    if (b > a) covered += b - a;
  }
  return static_cast<double>(to_ns - from_ns - covered) * 1e-9;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"clock\":\"host steady_clock, ns since process start\",\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%lld,\"end\":%lld,\"parent\":%lld,"
                      "\"op\":%llu}\n",
                 i == 0 ? "" : ",", i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (spans().enabled()) index_ = spans().begin(name);
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() { stop(); }

double ScopedSpan::stop() {
  if (seconds_ < 0) {
    seconds_ = static_cast<double>(now_ns() - start_ns_) * 1e-9;
    if (index_ >= 0) spans().end(index_);
  }
  return seconds_;
}

// ------------------------------- Results ----------------------------------

double Series::percentile(double p) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Series::sum_us() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

void print_result(const RunResult& result, bool traced) {
  for (const auto& e : result.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const auto& metrics = traced ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------- Process ----------------------------------

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t install_pool() {
  // What `nproc` reports: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t nproc = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    nproc = std::max(1, CPU_COUNT(&set));
  }
  // One CPU is left to the rest of the host: with every CPU in the pool, a
  // fan-out waits for its slowest worker, and on a shared host one stalled
  // CPU swung sync throughput by 2x between runs of the same code.
  std::size_t threads = nproc > 1 ? nproc - 1 : 1;
  if (threads > 1) icbtc::parallel::set_shared_pool(threads - 1);
  std::fprintf(stderr, "host: nproc %zu, pool threads %zu (caller included), sha256 %s\n", nproc,
               threads, icbtc::crypto::to_string(icbtc::crypto::sha256_active_impl()));
  return threads;
}

}  // namespace perfbench

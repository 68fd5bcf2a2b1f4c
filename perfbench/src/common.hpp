// Shared machinery of the whole-system benchmark: run options, timing and
// percentile helpers, the benchmark-side span recorder, correctness checks
// with a self-test hook, and the per-run result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rcdc/contract.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  /// Path of the dcv_worker binary (fleet-warm only).
  std::string worker_bin;
  /// Directory for the trace, reports and topology files of this run.
  std::string out_dir;
};

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Arithmetic mean of `values`; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);

/// A total order on violations, for comparing violation lists as sets.
[[nodiscard]] bool violation_less(const dcv::rcdc::Violation& a,
                                  const dcv::rcdc::Violation& b);

/// Current and peak resident set of this process, in bytes.
[[nodiscard]] std::uint64_t rss_bytes();
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Benchmark-side spans around calls into the program's layers. Disabled
/// (the untraced run) it records nothing and every call is a branch. A
/// span's parent is the innermost open span on the same thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer* tracer, std::string_view layer, std::string_view name);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Opens a span of `layer` (topology, routing, rcdc, gate, obs, secguru,
  /// dist, or bench for the benchmark's own work); it closes when the
  /// returned object is destroyed.
  [[nodiscard]] Span span(std::string_view layer, std::string_view name) {
    return Span(enabled_ ? this : nullptr, layer, name);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Chrome/Perfetto trace-event JSON of every recorded span.
  [[nodiscard]] std::string chrome_trace() const;
  /// Per-layer and per-span self time (duration minus the part covered by
  /// child spans), as a text table.
  [[nodiscard]] std::string self_time_table() const;

 private:
  struct Record {
    std::string layer;
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  std::size_t open(std::string_view layer, std::string_view name);
  void close(std::size_t index);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// Correctness checks. Each check is a predicate over an answer computed
/// by the program; `ok(answer)` must hold. In self-test mode the first
/// call of every named check also feeds the predicate a copy of the answer
/// corrupted by `corrupt` (a known-wrong answer made outside the program)
/// and records a self-test failure unless the predicate rejects it.
class Checks {
 public:
  explicit Checks(bool self_test) : self_test_(self_test) {}

  template <class T>
  void expect(const std::string& name, const T& answer,
              const std::function<bool(const std::type_identity_t<T>&)>& ok,
              const std::function<void(std::type_identity_t<T>&)>& corrupt) {
    const bool passed = ok(answer);
    std::lock_guard lock(mutex_);
    ++counts_[name];
    if (!passed) failures_.push_back(name);
    if (self_test_ && !self_tested_.count(name)) {
      self_tested_[name] = true;
      T wrong = answer;
      corrupt(wrong);
      self_test_results_.emplace_back(name, !ok(wrong));
    }
  }

  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counts() const {
    return counts_;
  }
  /// (check name, rejected the known-wrong answer) per self-tested check.
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>&
  self_test_results() const {
    return self_test_results_;
  }

 private:
  bool self_test_;
  std::mutex mutex_;
  std::map<std::string, std::uint64_t> counts_;
  std::vector<std::string> failures_;
  std::map<std::string, bool> self_tested_;
  std::vector<std::pair<std::string, bool>> self_test_results_;
};

/// What one run of one workload reports.
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (the untraced run's result line).
  std::map<std::string, double> e2e;
  /// Per-layer metrics (the traced run's result line).
  std::map<std::string, double> layer;
  /// The workload's own end-to-end figures under their descriptive names
  /// (validate_s, detect_ms_p90, nsg_ms_p50, ...) with units, printed to
  /// stderr for people; the result line carries the shared names.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> named;
  /// Free-form lines (ledgers, sample counts) printed to stderr.
  std::vector<std::string> notes;
};

void run_fabric_cold(const Options& options, Tracer& tracer, Checks& checks,
                     RunOutput& out);
void run_monitor_churn(const Options& options, Tracer& tracer, Checks& checks,
                       RunOutput& out);
void run_gate_mix(const Options& options, Tracer& tracer, Checks& checks,
                  RunOutput& out);
void run_fleet_warm(const Options& options, Tracer& tracer, Checks& checks,
                    RunOutput& out);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

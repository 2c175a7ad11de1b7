#pragma once

/// Shared pieces of the rrb_perfbench program: options, the run result that
/// becomes the final JSON line, a steady-clock stopwatch, the reader for
/// the benchmark's own telemetry spans, the traced run's Profiler, and the
/// workload entry points.
///
/// Every workload file exposes two entry points:
///   measure_<workload>  — untraced: repeats the workload for --seconds and
///                         sets the end-to-end metrics (medians);
///   profile_<workload>  — traced: repeats each public call it times inside
///                         a "bench" span (through a Profiler) and sets that
///                         workload's per-layer metrics from the medians.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rrb/telemetry/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;                ///< scratch space, created by run.py
  std::vector<std::string> spec_paths; ///< generated campaign specs
};

/// Everything one run reports. `check` counts operations (trials, or cells
/// for campaign_grid) and the ones whose correctness check failed.
class Result {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Adds `ops` attempted operations; all of them fail unless `ok`.
  void check(bool ok, std::uint64_t ops, std::string_view what);
  /// Adds `ops` attempted operations of which `failed` failed.
  void count(std::uint64_t ops, std::uint64_t failed, std::string_view what);

  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Steady-clock stopwatch with nanosecond reads, for the end-to-end
/// timings (the untraced run records no spans).
class Stopwatch {
 public:
  Stopwatch() : begin_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

/// Span category of every span the benchmark records.
inline constexpr const char* kCategory = "bench";

/// The benchmark's own spans, drained from rrb::telemetry. Events of other
/// categories (the library's internal spans) are dropped: they are part of
/// the traced run's cost, not of its numbers.
class SpanLog {
 public:
  /// Drains every buffered telemetry event and keeps the "bench" ones.
  static SpanLog drain();

  /// Durations, in seconds, of the complete spans named `name` in the
  /// order they started; throws when there is none (a layer the profile
  /// forgot to time).
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// The median of durations(name).
  [[nodiscard]] double median_seconds(const std::string& name) const;
  /// Timestamps (µs) of the instant events named `name`, ascending.
  [[nodiscard]] std::vector<std::int64_t> instants(
      const std::string& name) const;

 private:
  std::vector<rrb::telemetry::Event> events_;
};

[[nodiscard]] double median(std::vector<double> values);

/// Worker threads of every parallel call: the CPUs in the process's
/// affinity mask, read once.
[[nodiscard]] int worker_threads();

/// The traced run's timer. call() runs a public call with telemetry on
/// inside a "bench" span, from which the per-layer metrics are read back.
/// wall_call() is for the calls that make up a workload's standard
/// iteration: when the Profiler is `paired` (the workload named by
/// --workload), it runs the call a second time right away with telemetry
/// off, so telemetry.overhead_pct compares medians of traced and untraced
/// calls taken side by side. The calls must be repeatable.
class Profiler {
 public:
  explicit Profiler(bool paired) : paired_(paired) {}

  /// Runs `fn` traced; returns its wall time in seconds.
  template <class Fn>
  double call(std::string_view name, Fn&& fn) {
    rrb::telemetry::enable(true);
    const Stopwatch clock;
    {
      const rrb::telemetry::Span span(kCategory, name);
      fn();
    }
    return clock.seconds();
  }

  /// As call(), and keeps the traced and (when paired) untraced times.
  template <class Fn>
  double wall_call(std::string_view name, Fn&& fn) {
    const double traced_s = call(name, fn);
    if (paired_) {
      rrb::telemetry::enable(false);
      const Stopwatch clock;
      fn();
      untraced_[std::string(name)].push_back(clock.seconds());
      rrb::telemetry::enable(true);
      traced_[std::string(name)].push_back(traced_s);
    }
    return traced_s;
  }

  /// 100 · (traced / untraced − 1), each side the sum over the wall calls'
  /// names of the median call time. Requires a paired Profiler.
  [[nodiscard]] double overhead_pct() const;

 private:
  bool paired_;
  std::map<std::string, std::vector<double>> traced_, untraced_;
};

/// True when a measuring loop that started `elapsed_s` ago after `done`
/// iterations should run another one: until it has run `min_iterations`,
/// then while one more iteration of the mean length so far still ends
/// within --seconds.
[[nodiscard]] inline bool keep_going(const Options& opts, int done,
                                     int min_iterations, double elapsed_s) {
  return done < min_iterations ||
         elapsed_s + elapsed_s / done <= opts.seconds;
}

// ---- Workloads -------------------------------------------------------------

void measure_giant_cell(const Options& opts, Result& result);
void profile_giant_cell(const Options& opts, Profiler& profiler,
                        Result& result);

void measure_trial_sweep(const Options& opts, Result& result);
void profile_trial_sweep(const Options& opts, Profiler& profiler,
                         Result& result);

void measure_campaign_grid(const Options& opts, Result& result);
void profile_campaign_grid(const Options& opts, Profiler& profiler,
                           Result& result);

}  // namespace perfbench

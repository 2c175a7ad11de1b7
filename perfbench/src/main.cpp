/// rrb_perfbench — the repository benchmark program (see ../README.md).
///
///   rrb_perfbench --workload giant_cell|trial_sweep|campaign_grid
///                 --seed N --seconds S --trace 0|1
///                 --work-dir DIR [--spec FILE]...
///
/// --trace 0 measures the named workload with telemetry off and reports
/// the end-to-end metrics. --trace 1 profiles all three workloads layer by
/// layer with telemetry on and reports every per-layer metric; the named
/// workload's standard-iteration calls also run untraced, side by side,
/// for telemetry.overhead_pct. Parallel calls use one worker thread per
/// CPU of the process's affinity mask; nothing is pinned.
/// Either way the last stdout line is one JSON object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// and BENCH_perfbench_<workload>[_trace].json lands in
/// $RRB_BENCH_JSON_DIR in the BenchReport shape tools/bench-diff reads.
/// run.py builds this binary and generates its inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sched.h>

#include "bench_util.hpp"
#include "perfbench.hpp"

namespace perfbench {

void Result::check(bool ok, std::uint64_t ops, std::string_view what) {
  count(ops, ok ? 0 : ops, what);
}

void Result::count(std::uint64_t ops, std::uint64_t failed,
                   std::string_view what) {
  attempted_ += ops;
  failed_ += failed;
  if (failed != 0)
    std::cerr << "perfbench: FAILED " << failed << " of " << ops << " — "
              << what << "\n";
}

SpanLog SpanLog::drain() {
  SpanLog log;
  for (rrb::telemetry::Event& event : rrb::telemetry::drain())
    if (event.category == kCategory) log.events_.push_back(std::move(event));
  return log;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<std::pair<std::int64_t, double>> spans;
  for (const rrb::telemetry::Event& event : events_)
    if (event.phase == 'X' && event.name == name)
      spans.emplace_back(event.ts_us, static_cast<double>(event.dur_us) / 1e6);
  if (spans.empty()) throw std::logic_error("no bench span named " + name);
  std::sort(spans.begin(), spans.end());
  std::vector<double> seconds;
  for (const auto& span : spans) seconds.push_back(span.second);
  return seconds;
}

double SpanLog::median_seconds(const std::string& name) const {
  return median(durations(name));
}

std::vector<std::int64_t> SpanLog::instants(const std::string& name) const {
  std::vector<std::int64_t> ts;
  for (const rrb::telemetry::Event& event : events_)
    if (event.phase == 'i' && event.name == name) ts.push_back(event.ts_us);
  std::sort(ts.begin(), ts.end());
  return ts;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

int worker_threads() {
  static const int threads = [] {
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0)
      return std::max(1, CPU_COUNT(&mask));
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return threads;
}

double Profiler::overhead_pct() const {
  if (!paired_ || traced_.empty())
    throw std::logic_error("overhead_pct of an unpaired profile");
  double traced_s = 0.0, untraced_s = 0.0;
  for (const auto& [name, samples] : traced_) {
    traced_s += median(samples);
    untraced_s += median(untraced_.at(name));
  }
  return 100.0 * (traced_s / untraced_s - 1.0);
}

namespace {

struct Workload {
  const char* name;
  void (*measure)(const Options&, Result&);
  void (*profile)(const Options&, Profiler&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"giant_cell", measure_giant_cell, profile_giant_cell},
    {"trial_sweep", measure_trial_sweep, profile_trial_sweep},
    {"campaign_grid", measure_campaign_grid, profile_campaign_grid},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "rrb_perfbench: " << error
            << "\nusage: rrb_perfbench --workload giant_cell|trial_sweep|"
               "campaign_grid --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--spec FILE]...\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
      } else if (flag == "--spec") {
        opts.spec_paths.push_back(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opts.work_dir.empty()) usage("--work-dir is required");
  if (opts.spec_paths.empty()) usage("--spec is required");
  return opts;
}

std::string json_number(double value) {
  if (!std::isfinite(value))
    throw std::logic_error("metric is not a finite number");
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

int run(const Options& opts) {
  const Workload* named = nullptr;
  for (const Workload& w : kWorkloads)
    if (opts.workload == w.name) named = &w;
  if (named == nullptr) usage("unknown workload " + opts.workload);

  // Constructed first: its meta wall_ms spans the whole run.
  rrb::bench::BenchReport report("perfbench_" + opts.workload +
                                 (opts.trace ? "_trace" : ""));
  Result result;
  if (!opts.trace) {
    named->measure(opts, result);
    result.set("peak_rss_bytes",
               static_cast<double>(rrb::telemetry::peak_rss_bytes()), "bytes");
  } else {
    // Profiles in a fixed order, so each per-layer metric is measured in
    // the same process state whatever --workload says; giant_cell first,
    // in a fresh process, as its own untraced runs see it.
    for (const Workload& w : kWorkloads) {
      Profiler profiler(&w == named);
      w.profile(opts, profiler, result);
      if (&w == named)
        result.set("telemetry.overhead_pct", profiler.overhead_pct(), "%");
    }
    rrb::telemetry::enable(false);
  }

  const double error_rate =
      static_cast<double>(result.failed()) /
      static_cast<double>(std::max<std::uint64_t>(result.attempted(), 1));
  const char* unit_of_ops = opts.trace                         ? "operations"
                            : opts.workload == "campaign_grid" ? "cells"
                                                               : "trials";
  report.set("workload", opts.workload)
      .set("seed", opts.seed)
      .set("seconds", opts.seconds)
      .set("trace", opts.trace)
      .set("attempted", result.attempted())
      .set("failed", result.failed())
      .set("error_rate", error_rate);
  std::printf("%-44s %20s  %s\n", "metric", "value", "unit");
  for (const auto& [name, metric] : result.metrics()) {
    std::printf("%-44s %20.6g  %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    report.row()
        .set("name", name)
        .set("value", metric.value)
        .set("unit", metric.unit);
  }
  std::printf("%-44s %20.6g  (%llu of %llu %s failed)\n", "error_rate",
              error_rate, static_cast<unsigned long long>(result.failed()),
              static_cast<unsigned long long>(result.attempted()),
              unit_of_ops);
  std::fflush(stdout);
  report.write();

  std::ostringstream line;
  line << "{\"correct\": " << (result.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << result.attempted()
       << ", \"failed\": " << result.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics()) {
    line << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << json_number(metric.value) << ", \"unit\": \"" << metric.unit
         << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rrb_perfbench: " << e.what() << "\n";
    return 1;
  }
}

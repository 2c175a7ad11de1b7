/// campaign_grid — CampaignRunner::run() over the generated copies of the
/// e8_protocol_comparison and e13_churn specs (the paper's E8/E13 traffic),
/// writing artifacts to a fresh directory, then a second run() over the
/// same directory that must reuse every cell.
///
/// This is the real entry point: a fresh graph per trial, the virtual
/// make_scheme adapter, no batching, churn cells on the p2p
/// DynamicOverlay, and the journal written beside the resume read-back.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/exp/spec.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kMinIterations = 3;
// Set-up takes tens of microseconds and its speed swings with the load on
// the host, so each iteration adds this many extra samples: spread over
// the whole run, their median is steady.
constexpr int kSetupRepsPerIteration = 40;
// Fresh and resume runs per spec in the traced profile; cell, finalise and
// resume times are medians over them.
constexpr int kProfileIterations = 3;

rrb::exp::CampaignConfig config_for(const std::string& dir,
                                   const rrb::exp::CampaignSpec& spec) {
  rrb::exp::CampaignConfig config;
  config.runner.threads = worker_threads();
  config.out_dir = (fs::path(dir) / spec.name).string();
  return config;
}

/// Spec load and cell expansion: what has to happen before the first
/// trial can start.
std::vector<rrb::exp::CampaignRunner> set_up(const Options& opts,
                                             const std::string& dir) {
  std::vector<rrb::exp::CampaignRunner> runners;
  for (const std::string& path : opts.spec_paths) {
    rrb::exp::CampaignSpec spec = rrb::exp::load_spec(path);
    const rrb::exp::CampaignConfig config = config_for(dir, spec);
    runners.emplace_back(std::move(spec), config);
  }
  return runners;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Bytes of the deterministic artifacts (timing.jsonl is a wall-clock side
/// channel whose size varies, so it is left out).
std::uint64_t artifact_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const char* file :
       {"manifest.jsonl", "results.jsonl", "results.csv", "campaign.json"})
    bytes += fs::file_size(fs::path(dir) / file);
  return bytes;
}

/// One cell as the fresh run's progress callback saw it.
struct CellTick {
  double seconds = 0.0;      ///< since the previous callback or run() start
  double node_rounds = 0.0;  ///< rounds_mean · n · trials
  bool overlay = false;
};

struct FreshRun {
  std::uint64_t cells = 0;
  std::vector<CellTick> ticks;  ///< in cell order
  std::string results;          ///< results.jsonl
  std::uint64_t artifact_bytes = 0;
};

/// A fresh run() of `runner` into an emptied out_dir. Every cell is an
/// operation: the run must compute it. Instants (category "bench") mark
/// the start and end of run() and each progress callback for the traced
/// profile.
FreshRun fresh_run(rrb::exp::CampaignRunner& runner,
                   const rrb::exp::CampaignConfig& config, Result& result) {
  const rrb::exp::CampaignSpec& spec = runner.spec();
  fs::remove_all(config.out_dir);
  FreshRun out;
  const Stopwatch clock;
  double last_s = 0.0;
  const auto progress = [&](const rrb::exp::CellResult& cell) {
    rrb::telemetry::instant(kCategory, "exp.cell_done." + spec.name);
    const double now_s = clock.seconds();
    const double rounds = cell.record.find_number("rounds_mean").value_or(0);
    out.ticks.push_back({now_s - last_s, rounds * cell.cell.n * spec.trials,
                         cell.cell.overlay});
    last_s = now_s;
  };
  rrb::telemetry::instant(kCategory, "exp.run_begin." + spec.name);
  const rrb::exp::CampaignOutcome outcome = runner.run(progress);
  rrb::telemetry::instant(kCategory, "exp.run_end." + spec.name);
  out.cells = outcome.total_cells;
  result.check(outcome.computed == outcome.total_cells && outcome.reused == 0,
               outcome.total_cells,
               "campaign_grid: the fresh run must compute every cell");
  out.results = read_file(outcome.results_json_path);
  out.artifact_bytes = artifact_bytes(config.out_dir);
  return out;
}

/// A second run() over the fresh run's directory. Every cell is an
/// operation: the run must reuse it and leave results.jsonl byte-identical.
void resume_run(const rrb::exp::CampaignSpec& spec,
                const rrb::exp::CampaignConfig& config, const FreshRun& fresh,
                Result& result) {
  const rrb::exp::CampaignOutcome outcome =
      rrb::exp::CampaignRunner(spec, config).run();
  result.check(outcome.computed == 0 && outcome.reused == fresh.cells &&
                   read_file(outcome.results_json_path) == fresh.results,
               fresh.cells,
               "campaign_grid: the resume run must reuse every cell and "
               "rewrite results.jsonl byte-identically");
}

struct Iteration {
  double setup_s = 0.0;
  double post_setup_s = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t trials = 0;
  std::vector<CellTick> ticks;  ///< both specs, in cell order
};

/// Set-up, then per spec a fresh run() into `<dir>/<spec name>` and a
/// resume run() over it.
Iteration run_iteration(const Options& opts, const std::string& dir,
                        Result& result) {
  Iteration it;
  const Stopwatch wall;
  std::vector<rrb::exp::CampaignRunner> runners = set_up(opts, dir);
  it.setup_s = wall.seconds();

  const Stopwatch post_setup;
  for (rrb::exp::CampaignRunner& runner : runners) {
    const rrb::exp::CampaignConfig config = config_for(dir, runner.spec());
    const FreshRun fresh = fresh_run(runner, config, result);
    resume_run(runner.spec(), config, fresh, result);
    it.ticks.insert(it.ticks.end(), fresh.ticks.begin(), fresh.ticks.end());
    it.cells += fresh.cells;
    it.trials += fresh.cells * static_cast<std::uint64_t>(runner.spec().trials);
  }
  it.post_setup_s = post_setup.seconds();
  return it;
}

std::string iteration_dir(const Options& opts, int i) {
  return (fs::path(opts.work_dir) / ("campaign_grid_" + std::to_string(i)))
      .string();
}

}  // namespace

void measure_campaign_grid(const Options& opts, Result& result) {
  std::vector<double> setup;

  // Per cell, the median of its callback intervals over the iterations;
  // the rest of the post-setup time (finalisation, resume) likewise.
  std::vector<std::vector<double>> cell_s;
  std::vector<double> rest_s;
  Iteration it;
  const Stopwatch loop;
  for (int done = 0; keep_going(opts, done, kMinIterations, loop.seconds());
       ++done) {
    const std::string dir = iteration_dir(opts, done);
    it = run_iteration(opts, dir, result);
    fs::remove_all(dir);
    setup.push_back(it.setup_s);
    cell_s.resize(it.ticks.size());
    double rest = it.post_setup_s;
    for (std::size_t c = 0; c < it.ticks.size(); ++c) {
      cell_s[c].push_back(it.ticks[c].seconds);
      rest -= it.ticks[c].seconds;
    }
    rest_s.push_back(rest);
    for (int r = 0; r < kSetupRepsPerIteration; ++r) {
      const Stopwatch clock;
      (void)set_up(opts, opts.work_dir);
      setup.push_back(clock.seconds());
    }
  }
  double post_setup_s = median(rest_s);
  for (const std::vector<double>& samples : cell_s)
    post_setup_s += median(samples);
  result.set("wall_s", median(setup) + post_setup_s, "s");
  result.set("setup_s", median(setup), "s");
  result.set("trials_per_s", static_cast<double>(it.trials) / post_setup_s,
             "1/s");
  result.set("cells_per_s", static_cast<double>(it.cells) / post_setup_s,
             "1/s");
}

void profile_campaign_grid(const Options& opts, Profiler& profiler,
                           Result& result) {
  // The standard iteration, kProfileIterations times: set-up, then per
  // spec the fresh run and the resume run.
  std::vector<std::string> names;         ///< spec names
  std::vector<std::vector<CellTick>> ticks;  ///< per spec, the work per cell
  std::uint64_t bytes = 0;
  for (int i = 0; i < kProfileIterations; ++i) {
    const std::string dir = iteration_dir(opts, i);
    std::vector<rrb::exp::CampaignRunner> runners;
    profiler.wall_call("exp.set_up", [&] { runners = set_up(opts, dir); });
    names.clear();
    ticks.clear();
    bytes = 0;
    for (rrb::exp::CampaignRunner& runner : runners) {
      const rrb::exp::CampaignSpec& spec = runner.spec();
      const rrb::exp::CampaignConfig config = config_for(dir, spec);
      FreshRun fresh;
      profiler.wall_call("exp.run." + spec.name,
                         [&] { fresh = fresh_run(runner, config, result); });
      profiler.wall_call("exp.resume." + spec.name,
                         [&] { resume_run(spec, config, fresh, result); });
      names.push_back(spec.name);
      ticks.push_back(fresh.ticks);
      bytes += fresh.artifact_bytes;
    }
    fs::remove_all(dir);
  }
  const SpanLog log = SpanLog::drain();

  // Cell time = the interval between consecutive progress callbacks of a
  // traced run (the first one starts at run()); finalisation = the last
  // callback to the return of run(). Each is a median over the iterations.
  std::vector<double> cell_ms;
  double finalize_ms = 0.0, resume_ms = 0.0;
  double static_ns = 0.0, static_work = 0.0;
  double churn_ns = 0.0, churn_work = 0.0;
  for (std::size_t k = 0; k < names.size(); ++k) {
    const std::string& name = names[k];
    const std::size_t cells = ticks[k].size();
    const std::vector<std::int64_t> begin = log.instants("exp.run_begin." + name);
    const std::vector<std::int64_t> end = log.instants("exp.run_end." + name);
    const std::vector<std::int64_t> done =
        log.instants("exp.cell_done." + name);
    std::vector<std::vector<double>> per_cell_ms(cells);
    std::vector<double> spec_finalize_ms;
    for (std::size_t i = 0; i < begin.size(); ++i) {
      std::int64_t prev = begin[i];
      for (std::size_t c = 0; c < cells; ++c) {
        const std::int64_t at = done.at(i * cells + c);
        per_cell_ms[c].push_back(static_cast<double>(at - prev) / 1e3);
        prev = at;
      }
      spec_finalize_ms.push_back(static_cast<double>(end.at(i) - prev) / 1e3);
    }
    for (std::size_t c = 0; c < cells; ++c) {
      const double ms = median(per_cell_ms[c]);
      cell_ms.push_back(ms);
      const CellTick& tick = ticks[k][c];
      (tick.overlay ? churn_ns : static_ns) += ms * 1e6;
      (tick.overlay ? churn_work : static_work) += tick.node_rounds;
    }
    finalize_ms += median(spec_finalize_ms);
    resume_ms += log.median_seconds("exp.resume." + name) * 1e3;
  }
  result.set("exp.cell_ms_p50", median(cell_ms), "ms");
  result.set("exp.cell_ms_max",
             *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");
  result.set("exp.finalize_ms", finalize_ms, "ms");
  result.set("exp.resume_ms", resume_ms, "ms");
  result.set("exp.artifact_bytes", static_cast<double>(bytes), "bytes");
  result.set("phonecall.static_ns_per_node_round", static_ns / static_work,
             "ns");
  result.set("p2p.churn_ns_per_node_round", churn_ns / churn_work, "ns");
}

}  // namespace perfbench

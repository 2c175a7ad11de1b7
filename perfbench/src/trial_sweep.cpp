/// trial_sweep — all eight schemes of kAllSchemes, each run as one
/// broadcast_trials() sweep (threads = nproc, batch = 32) on one shared
/// random_regular_simple(2^14, 8).
///
/// The graph is built once in milliseconds, so the work sits in sim (the
/// ParallelRunner), the batched-engine rungs of phonecall and the protocols;
/// bigtopo and exp do none of it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/trial.hpp"

namespace perfbench {
namespace {

constexpr rrb::NodeId kN = rrb::NodeId{1} << 14;
constexpr rrb::NodeId kD = 8;
constexpr int kBatch = 32;
constexpr int kPrefix = 4;  // trials checked against the sequential reference
// Extra set-up samples per iteration. Build time depends on the seed (the
// number of switch-repair passes), so they build graphs of seeds derived
// from --seed; spread over the run, they also average over the load on
// the host.
constexpr int kSetupRepsPerIteration = 8;
constexpr int kMinIterations = 2;
// The fast schemes finish 128 trials in ~0.1 s, so each scheme's call is
// repeated until it has run this long (at least once); its time is the
// median call.
constexpr double kMinSchemeSeconds = 0.5;
// The traced profile calls each of its call sites until it has made this
// many calls or run this long (at least once), so that a site's median
// rests on enough calls to ignore one slow one.
constexpr int kSiteCalls = 5;
constexpr double kSiteSeconds = 1.5;
constexpr std::size_t kSchemes = rrb::kAllSchemes.size();
constexpr std::size_t kPushIndex = 0;
static_assert(rrb::kAllSchemes[kPushIndex] == rrb::BroadcastScheme::kPush);

/// Enough trials that every worker thread fills its batch lanes.
int sweep_trials() { return kBatch * std::max(worker_threads(), 4); }

/// Scheme name usable inside a metric name ('/' is not allowed there).
std::string metric_name(rrb::BroadcastScheme scheme) {
  std::string name = rrb::scheme_name(scheme);
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

bool oracle_terminated(rrb::BroadcastScheme scheme) {
  return scheme == rrb::BroadcastScheme::kPush ||
         scheme == rrb::BroadcastScheme::kPull ||
         scheme == rrb::BroadcastScheme::kPushPull;
}

bool same_run(const rrb::RunResult& a, const rrb::RunResult& b) {
  return a.n == b.n && a.alive_at_end == b.alive_at_end &&
         a.all_informed == b.all_informed && a.rounds == b.rounds &&
         a.completion_round == b.completion_round &&
         a.push_tx == b.push_tx && a.pull_tx == b.pull_tx &&
         a.channels_opened == b.channels_opened &&
         a.channels_failed == b.channels_failed &&
         a.final_informed == b.final_informed;
}

rrb::Graph build_graph(std::uint64_t seed) {
  rrb::Rng rng(rrb::derive_seed(seed, 0));
  return rrb::random_regular_simple(kN, kD, rng);
}

rrb::BroadcastOptions sweep_options(const Options& opts,
                                    rrb::BroadcastScheme scheme, int threads,
                                    int batch) {
  rrb::BroadcastOptions o;
  o.scheme = scheme;
  o.seed = rrb::derive_seed(opts.seed, 1);
  o.trials = sweep_trials();
  o.runner.threads = threads;
  o.runner.batch = batch;
  return o;
}

/// Each scheme's first kPrefix trials at threads = 1, batch = 0: the
/// sequential reference every timed call is checked against.
using Reference = std::vector<std::vector<rrb::RunResult>>;

Reference make_reference(const Options& opts, const rrb::Graph& graph) {
  Reference ref;
  for (const rrb::BroadcastScheme scheme : rrb::kAllSchemes) {
    rrb::BroadcastOptions o = sweep_options(opts, scheme, 1, 0);
    o.trials = kPrefix;
    ref.push_back(rrb::broadcast_trials(graph, o).runs);
  }
  return ref;
}

/// One broadcast_trials() call of scheme `s`. Every trial is an
/// operation: it fails when it differs from the sequential reference
/// (prefix trials) or, for an oracle-terminated scheme, when it did not
/// inform every node.
rrb::TrialOutcome sweep_call(const Options& opts, const rrb::Graph& graph,
                             const Reference& ref, std::size_t s, int threads,
                             int batch, Result& result) {
  const rrb::BroadcastScheme scheme = rrb::kAllSchemes[s];
  rrb::TrialOutcome out =
      rrb::broadcast_trials(graph, sweep_options(opts, scheme, threads, batch));
  std::uint64_t failed = 0;
  for (std::size_t t = 0; t < out.runs.size(); ++t) {
    const rrb::RunResult& run = out.runs[t];
    const bool ok = (t >= kPrefix || same_run(run, ref[s][t])) &&
                    (!oracle_terminated(scheme) || run.all_informed);
    failed += ok ? 0 : 1;
  }
  result.count(out.runs.size(), failed,
               "trial_sweep: " + metric_name(scheme) +
                   " differs from the sequential reference or is "
                   "incomplete");
  return out;
}

std::string span_name(rrb::BroadcastScheme scheme, int batch) {
  return "sim.broadcast_trials." + metric_name(scheme) + ".batch" +
         std::to_string(batch);
}

std::uint64_t setup_seed(const Options& opts, int iteration, int r) {
  return rrb::derive_seed(opts.seed,
                          100 + iteration * kSetupRepsPerIteration + r);
}

}  // namespace

void measure_trial_sweep(const Options& opts, Result& result) {
  std::vector<double> setup;
  rrb::Graph graph = build_graph(opts.seed);
  const Reference ref = make_reference(opts, graph);

  std::vector<std::vector<double>> per_scheme(kSchemes);
  const Stopwatch loop;
  for (int done = 0; keep_going(opts, done, kMinIterations, loop.seconds());
       ++done) {
    const Stopwatch clock;
    graph = build_graph(opts.seed);
    setup.push_back(clock.seconds());
    for (std::size_t s = 0; s < kSchemes; ++s)
      for (double spent = 0.0; spent == 0.0 || spent < kMinSchemeSeconds;) {
        const Stopwatch call;
        (void)sweep_call(opts, graph, ref, s, worker_threads(), kBatch,
                         result);
        per_scheme[s].push_back(call.seconds());
        spent += per_scheme[s].back();
      }
    for (int r = 0; r < kSetupRepsPerIteration; ++r) {
      const Stopwatch build;
      (void)build_graph(setup_seed(opts, done, r));
      setup.push_back(build.seconds());
    }
  }

  // One sweep's wall is set-up plus every scheme's median call. The
  // throughput is a geometric mean over schemes, so one scheme's speed-up
  // is not drowned by the slowest scheme's share of the sweep.
  double wall_s = median(setup);
  double log_sum = 0.0;
  for (const std::vector<double>& calls : per_scheme) {
    wall_s += median(calls);
    log_sum += std::log(sweep_trials() / median(calls));
  }
  result.set("wall_s", wall_s, "s");
  result.set("setup_s", median(setup), "s");
  result.set("trials_per_s", std::exp(log_sum / kSchemes), "1/s");
  result.set("cells_per_s", kSchemes / wall_s, "1/s");
}

void profile_trial_sweep(const Options& opts, Profiler& profiler,
                         Result& result) {
  const rrb::Graph graph = build_graph(opts.seed);
  const Reference ref = make_reference(opts, graph);
  const int threads = worker_threads();

  // The standard iteration: graph build (set-up samples as in measure)
  // and each scheme's call at the workload batch.
  for (int r = 0; r <= kSetupRepsPerIteration; ++r)
    profiler.wall_call("graph.random_regular_simple", [&] {
      (void)build_graph(r == 0 ? opts.seed : setup_seed(opts, 0, r - 1));
    });
  // The call sites: each scheme at the workload batch (the rest of the
  // standard iteration) and unbatched, for batch_speedup; push at one
  // thread, for thread_scaling_eff; and the factory path campaigns take,
  // run_trials over the virtual make_scheme adapter, against the facade's
  // batch-0 push.
  struct Site {
    std::string name;
    bool wall;  ///< part of the standard iteration
    std::function<void()> fn;
    int calls = 0;
    double spent_s = 0.0;
  };
  std::vector<Site> sites;
  rrb::TrialOutcome push;  // batch-0 push, for the adapter check
  for (std::size_t s = 0; s < kSchemes; ++s) {
    const rrb::BroadcastScheme scheme = rrb::kAllSchemes[s];
    sites.push_back({span_name(scheme, kBatch), true, [&, s] {
                       (void)sweep_call(opts, graph, ref, s, threads, kBatch,
                                        result);
                     }});
    sites.push_back({span_name(scheme, 0), false, [&, s] {
                       rrb::TrialOutcome out =
                           sweep_call(opts, graph, ref, s, threads, 0, result);
                       if (s == kPushIndex) push = std::move(out);
                     }});
  }
  sites.push_back({"sim.broadcast_trials.push.threads1", false, [&] {
                     (void)sweep_call(opts, graph, ref, kPushIndex, 1, kBatch,
                                      result);
                   }});

  const rrb::BroadcastOptions o =
      sweep_options(opts, rrb::BroadcastScheme::kPush, threads, 0);
  rrb::TrialConfig config;
  config.trials = o.trials;
  config.seed = o.seed;
  config.channel = rrb::make_scheme(graph, o).channel;
  config.limits.max_rounds = o.max_rounds;
  config.random_source = true;
  config.runner = o.runner;
  const rrb::ProtocolFactory factory = [&o](const rrb::Graph& g) {
    return rrb::make_scheme(g, o).protocol;
  };
  sites.push_back({"core.run_trials.make_scheme", false, [&] {
                     const rrb::TrialOutcome adapted =
                         rrb::run_trials(graph, factory, config);
                     std::uint64_t mismatched = 0;
                     for (std::size_t i = 0; i < adapted.runs.size(); ++i)
                       mismatched +=
                           same_run(adapted.runs[i], push.runs.at(i)) ? 0 : 1;
                     result.count(adapted.runs.size(), mismatched,
                                  "trial_sweep: make_scheme adapter differs "
                                  "from broadcast_trials");
                   }});

  // Round-robin: each round calls every site that has fewer than
  // kSiteCalls calls and has run less than kSiteSeconds. A site's calls
  // are spread over the profile, so a slow spell of a second or two on
  // the shared host (the VM briefly down to about one CPU) moves few of
  // the samples behind its median.
  for (bool more = true; more;) {
    more = false;
    for (Site& site : sites) {
      if (site.calls >= kSiteCalls || site.spent_s >= kSiteSeconds) continue;
      site.spent_s += site.wall ? profiler.wall_call(site.name, site.fn)
                                : profiler.call(site.name, site.fn);
      ++site.calls;
      more = true;
    }
  }

  const SpanLog log = SpanLog::drain();
  const double trials = sweep_trials();
  result.set("graph.ns_per_stub",
             log.median_seconds("graph.random_regular_simple") * 1e9 /
                 (static_cast<double>(kN) * kD),
             "ns");
  for (const rrb::BroadcastScheme scheme : rrb::kAllSchemes) {
    const double batched_s = log.median_seconds(span_name(scheme, kBatch));
    result.set("sim.trials_per_s." + metric_name(scheme), trials / batched_s,
               "1/s");
    result.set("phonecall.batch_speedup." + metric_name(scheme),
               log.median_seconds(span_name(scheme, 0)) / batched_s, "ratio");
  }
  const double push_s =
      log.median_seconds(span_name(rrb::BroadcastScheme::kPush, kBatch));
  result.set("sim.thread_scaling_eff",
             log.median_seconds("sim.broadcast_trials.push.threads1") /
                 (threads * push_s),
             "ratio");
  result.set("core.adapter_overhead",
             log.median_seconds("core.run_trials.make_scheme") /
                 log.median_seconds(
                     span_name(rrb::BroadcastScheme::kPush, 0)),
             "ratio");
}

}  // namespace perfbench

/// giant_cell — one push trial on a million-node chunked configuration
/// model (an E18 density-sweep grid point, n = 2^20, d = log2 n = 20).
///
/// With a single trial the thread pool and the batched engine have nothing
/// to schedule: the cell is chunked generation (bigtopo, the set-up) plus
/// one sequential broadcast() round loop (core → phonecall).

#include <cstdint>
#include <vector>

#include "perfbench.hpp"
#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/rng/rng.hpp"

namespace perfbench {
namespace {

constexpr rrb::NodeId kN = rrb::NodeId{1} << 20;
constexpr rrb::NodeId kD = 20;  // log2 n
constexpr std::uint64_t kStubs = std::uint64_t{kN} * kD;
// Generation takes ~3/4 of the cell, so each generated graph is broadcast
// on more than once to give the round loop more samples. Every graph and
// broadcast of a run has its own seed derived from --seed (the round count
// alone varies by ~8% between draws), so a run takes medians over draws
// instead of timing one draw again and again. The traced profile takes
// the same number of samples.
constexpr int kMinGenerations = 2;
constexpr int kBroadcastsPerGraph = 3;

rrb::bigtopo::ChunkedParams graph_params(std::uint64_t seed, int g) {
  rrb::bigtopo::ChunkedParams params;
  params.n = kN;
  params.d = kD;
  params.seed = rrb::derive_seed(seed, 2 * static_cast<std::uint64_t>(g));
  return params;
}

struct Broadcast {
  rrb::BroadcastOptions options;
  rrb::NodeId source = 0;
};

Broadcast broadcast_inputs(std::uint64_t seed, int g, int b) {
  const std::uint64_t base =
      rrb::derive_seed(seed, 2 * static_cast<std::uint64_t>(g) + 1);
  Broadcast in;
  in.options.scheme = rrb::BroadcastScheme::kPush;
  in.options.seed = rrb::derive_seed(base, 2 * static_cast<std::uint64_t>(b));
  in.source = static_cast<rrb::NodeId>(
      rrb::derive_seed(base, 2 * static_cast<std::uint64_t>(b) + 1) % kN);
  return in;
}

rrb::Graph generate(std::uint64_t seed, int g) {
  return rrb::bigtopo::chunked_configuration_model(graph_params(seed, g));
}

/// The degree sum must be n·d.
bool graph_ok(const rrb::Graph& graph) {
  std::uint64_t degree_sum = 0;
  for (rrb::NodeId v = 0; v < graph.num_nodes(); ++v)
    degree_sum += graph.degree(v);
  return graph.num_nodes() == kN && degree_sum == kStubs;
}

/// Broadcast `b` on graph `g` of the run: one operation, which fails
/// unless the graph is sound and every node ends up informed.
rrb::RunResult run_broadcast(const rrb::Graph& graph, bool sound,
                             std::uint64_t seed, int g, int b,
                             Result& result) {
  const Broadcast in = broadcast_inputs(seed, g, b);
  rrb::RunResult run = rrb::broadcast(graph, in.source, in.options);
  result.check(sound && run.all_informed && run.final_informed == kN, 1,
               "giant_cell: degree sum n*d and every node informed");
  return run;
}

}  // namespace

void measure_giant_cell(const Options& opts, Result& result) {
  std::vector<double> gen, engine;
  const Stopwatch loop;
  for (int g = 0; keep_going(opts, g, kMinGenerations, loop.seconds()); ++g) {
    const Stopwatch gen_clock;
    const rrb::Graph graph = generate(opts.seed, g);
    gen.push_back(gen_clock.seconds());
    const bool sound = graph_ok(graph);
    for (int b = 0; b < kBroadcastsPerGraph; ++b) {
      const Stopwatch engine_clock;
      (void)run_broadcast(graph, sound, opts.seed, g, b, result);
      engine.push_back(engine_clock.seconds());
    }
  }
  // One cell as a user runs it: set-up through the first result. The cell
  // is one trial, so a user gets one trial and one cell per wall_s. The
  // round loop's own speed is a per-layer metric (phonecall.engine_s):
  // memory-latency bound, it swings by up to a third with the host's
  // memory load over minutes, more than an end-to-end bound allows.
  const double wall_s = median(gen) + median(engine);
  result.set("wall_s", wall_s, "s");
  result.set("setup_s", median(gen), "s");
  result.set("trials_per_s", 1.0 / wall_s, "1/s");
  result.set("cells_per_s", 1.0 / wall_s, "1/s");
}

void profile_giant_cell(const Options& opts, Profiler& profiler,
                        Result& result) {
  std::uint64_t rss_after_gen = 0;
  std::vector<rrb::RunResult> runs;
  for (int g = 0; g < kMinGenerations; ++g) {
    rrb::Graph graph;
    profiler.wall_call("bigtopo.chunked_configuration_model", [&] {
      graph = rrb::Graph();  // frees the traced call's graph when paired
      graph = generate(opts.seed, g);
    });
    if (g == 0) rss_after_gen = rrb::telemetry::current_rss_bytes();
    const bool sound = graph_ok(graph);
    for (int b = 0; b < kBroadcastsPerGraph; ++b) {
      rrb::RunResult run;
      profiler.wall_call("core.broadcast", [&] {
        run = run_broadcast(graph, sound, opts.seed, g, b, result);
      });
      runs.push_back(run);
    }
  }
  const SpanLog log = SpanLog::drain();

  // Per broadcast, engine time over the n × rounds it advanced.
  const std::vector<double> engine_s = log.durations("core.broadcast");
  std::vector<double> ns_per_node_round;
  for (std::size_t i = 0; i < runs.size(); ++i)
    ns_per_node_round.push_back(
        engine_s.at(i) * 1e9 /
        (static_cast<double>(kN) * static_cast<double>(runs[i].rounds)));
  const double gen_s = log.median_seconds("bigtopo.chunked_configuration_model");
  result.set("bigtopo.gen_s", gen_s, "s");
  result.set("bigtopo.ns_per_stub", gen_s * 1e9 / static_cast<double>(kStubs),
             "ns");
  result.set("bigtopo.rss_after_gen_bytes", static_cast<double>(rss_after_gen),
             "bytes");
  result.set("phonecall.engine_s", median(engine_s), "s");
  result.set("phonecall.ns_per_node_round", median(ns_per_node_round), "ns");
  // Exact counts of the run's first broadcast.
  result.set("phonecall.rounds", runs.front().rounds, "count");
  result.set("phonecall.tx_per_node", runs.front().tx_per_node(), "tx/node");
}

}  // namespace perfbench

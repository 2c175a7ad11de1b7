#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/metrics/observer.hpp"
#include "rrb/parallel/runner.hpp"
#include "rrb/phonecall/batched_engine.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/phonecall/protocol.hpp"
#include "rrb/phonecall/result.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/aggregate.hpp"

/// \file trial.hpp
/// Repeated-trial experiment driver: runs a protocol from a random source,
/// trial after trial, and aggregates. The graph is either regenerated per
/// trial (the paper's "random graph, random algorithm" probability space)
/// or fixed for the whole sweep ("random algorithm" only).
///
/// Every overload below is the one executor, detail::execute_trials, with
/// a different graph source (a fixed Graph or a GraphFactory), protocol
/// source (a scheme through with_scheme, or a ProtocolFactory) and observer
/// factory (detail::NoMetrics for the bare overloads). Trials execute on
/// the deterministic parallel runner (rrb/parallel/runner.hpp): trial i draws
/// every random bit from Rng(seed).fork(i), writes only its own slot, and
/// the slots are reduced in trial order by detail::reduce_runs, so the
/// outcome is bit-identical for any RunnerConfig.
///
/// Only the fixed-graph overloads honour RunnerConfig::batch: lockstep
/// lanes need one shared topology, so a per-trial graph runs its trials one
/// at a time whatever batch says.
///
/// Every driver has an observer-aware overload: pass a factory building a
/// fresh MetricObserver per trial (rrb/metrics/observer.hpp) and get the
/// observers back *in trial order* next to the usual TrialOutcome.
/// Observers are read-only and draw nothing, so the instrumented overloads
/// return byte-identical TrialOutcomes to the bare ones — the observers are
/// pure extra columns (pinned in tests/test_metrics.cpp).

namespace rrb {

/// Builds a fresh graph for each trial. Receives the per-trial Rng.
/// Invoked concurrently from worker threads, one call per trial: the
/// callable must be reentrant (capture by value or reference state it only
/// reads), which every pure generator factory already is.
using GraphFactory = std::function<Graph(Rng&)>;

/// Builds a fresh protocol instance per trial (protocols are stateful).
/// Same reentrancy requirement as GraphFactory.
using ProtocolFactory =
    std::function<std::unique_ptr<BroadcastProtocol>(const Graph&)>;

struct TrialConfig {
  int trials = 5;
  std::uint64_t seed = 0x5eed;
  ChannelConfig channel;
  RunLimits limits;
  bool random_source = true;  ///< random source per trial; node 0 otherwise
  RunnerConfig runner;        ///< worker pool; never changes the output
};

/// Everything measured across the trials of one experiment cell.
struct TrialOutcome {
  std::vector<RunResult> runs;  ///< indexed by trial
  Summary rounds;            ///< rounds until the protocol stopped
  Summary completion_round;  ///< rounds until all nodes informed (only
                             ///< completed runs contribute)
  Summary total_tx;
  Summary tx_per_node;
  Summary push_tx;
  Summary pull_tx;
  Summary coverage;          ///< final_informed / n per run (< 1 when a
                             ///< self-terminating scheme leaves stragglers,
                             ///< e.g. under channel failures)
  double completion_rate = 0.0;  ///< fraction of runs informing everyone
};

/// Run `config.trials` independent trials, regenerating the random graph
/// per trial: trial i draws its graph, then its source (uniform when
/// config.random_source, else node 0), then the engine's round draws, all
/// from Rng(config.seed).fork(i). Ignores config.runner.batch.
[[nodiscard]] TrialOutcome run_trials(const GraphFactory& graph_factory,
                                      const ProtocolFactory& protocol_factory,
                                      const TrialConfig& config);

/// Fixed-graph trial sweep: every trial runs a fresh protocol instance on
/// the same immutable graph. Trial i draws its source, then the engine's
/// round draws, from Rng(config.seed).fork(i). config.runner.batch >= 1
/// advances that many trials at a time on BatchedPhoneCallEngine,
/// bit-identically to batch = 0 (pinned by tests/test_batched_engine.cpp).
[[nodiscard]] TrialOutcome run_trials(const Graph& graph,
                                      const ProtocolFactory& protocol_factory,
                                      const TrialConfig& config);

/// Repeat a broadcast() scheme options.trials times on a fixed graph,
/// scheduled by options.runner (batch included). Trial i runs a fresh
/// protocol instance seeded from (options.seed, i); `source` fixes the
/// originator, or pass kNoNode to draw a fresh uniform source per trial.
[[nodiscard]] TrialOutcome broadcast_trials(const Graph& graph,
                                            const BroadcastOptions& options,
                                            NodeId source = kNoNode);

/// Repeat a broadcast() scheme options.trials times, regenerating the graph
/// per trial: trial i builds its graph from Rng(options.seed).fork(i) and
/// runs the scheme as broadcast() would pair it on that graph. Draws, in
/// order: graph, source (when kNoNode), rounds. Ignores options.runner.batch.
[[nodiscard]] TrialOutcome broadcast_trials(const GraphFactory& graph_factory,
                                            const BroadcastOptions& options,
                                            NodeId source = kNoNode);

/// An instrumented trial sweep: the usual TrialOutcome (byte-identical to
/// the bare overload's) plus one observer per trial, in trial order — the
/// shape the seeding contract demands for any reduction over them.
template <MetricObserver Obs>
struct ObservedOutcome {
  TrialOutcome outcome;
  std::vector<Obs> observers;  ///< indexed by trial
};

namespace detail {

/// The settings every trial of a sweep shares. The graph and protocol
/// sources are the executor's other inputs.
struct TrialPlan {
  int trials = 1;
  std::uint64_t seed = 0;
  RunLimits limits;
  NodeId source = kNoNode;  ///< fixed originator; kNoNode = uniform draw
  RunnerConfig runner;
};

[[nodiscard]] TrialPlan plan_for(const TrialConfig& config);
[[nodiscard]] TrialPlan plan_for(const BroadcastOptions& options,
                                 NodeId source);

/// Reduce per-trial RunResults, in trial order, into a TrialOutcome: the
/// one reduction every driver applies, so each Summary sees its samples in
/// ascending trial order whatever the schedule was.
[[nodiscard]] TrialOutcome reduce_runs(std::vector<RunResult>&& runs);

/// Graph sources: every trial shares one fixed graph, or builds its own
/// from the first draws of its stream.
inline const Graph& trial_graph(const Graph& graph, Rng& /*rng*/,
                                std::optional<Graph>& /*built*/) {
  return graph;
}
inline const Graph& trial_graph(const GraphFactory& factory, Rng& rng,
                                std::optional<Graph>& built) {
  return built.emplace(factory(rng));
}

/// A ProtocolFactory and the channel its protocols run on.
struct FactoryProtocols {
  const ProtocolFactory& factory;
  const ChannelConfig& channel;
};

/// Protocol sources: call fn(protocols, channel) with `lanes` fresh
/// protocol instances (a span of pointers to one static type). A scheme is
/// statically dispatched through with_scheme, so the engine inlines the
/// concrete protocol; a factory hands out BroadcastProtocol instances.
template <typename Fn>
decltype(auto) with_lane_protocols(const BroadcastOptions& options,
                                   const Graph& graph, std::size_t lanes,
                                   Fn&& fn) {
  return with_scheme(
      graph, options, [&](auto proto, const ChannelConfig& channel) {
        using Proto = decltype(proto);
        std::vector<Proto> protos(lanes, proto);
        std::vector<Proto*> ptrs;
        for (Proto& p : protos) ptrs.push_back(&p);
        return fn(std::span<Proto* const>(ptrs), channel);
      });
}
template <typename Fn>
decltype(auto) with_lane_protocols(const FactoryProtocols& source,
                                   const Graph& graph, std::size_t lanes,
                                   Fn&& fn) {
  std::vector<std::unique_ptr<BroadcastProtocol>> owned;
  std::vector<BroadcastProtocol*> ptrs;
  for (std::size_t b = 0; b < lanes; ++b) {
    owned.push_back(source.factory(graph));
    RRB_REQUIRE(owned.back() != nullptr, "protocol factory returned null");
    ptrs.push_back(owned.back().get());
  }
  return fn(std::span<BroadcastProtocol* const>(ptrs), source.channel);
}

/// The trial executor behind every driver. Trials run in groups on the
/// pool: one trial per group, or — on a fixed graph with runner.batch >= 1
/// — `batch` lanes on BatchedPhoneCallEngine, which makes each lane's
/// sequential draws. Trial i draws from Rng(plan.seed).fork(i): its graph
/// (factory sources only), its source (unless plan.source fixes it), then
/// the round loop. It writes only runs[i], and record(i, observer) gets its
/// observer after the run, while the trial's graph is still alive. Returns
/// the runs in trial order.
template <typename GraphSource, typename ProtocolSource,
          typename MakeObserver, typename Record>
std::vector<RunResult> execute_trials(const TrialPlan& plan,
                                      const GraphSource& graphs,
                                      const ProtocolSource& protocols,
                                      const MakeObserver& make_observer,
                                      const Record& record) {
  using Obs = std::invoke_result_t<const MakeObserver&, const Graph&>;
  RRB_REQUIRE(plan.trials >= 1, "need at least one trial");
  const int batch =
      std::is_same_v<GraphSource, Graph> ? plan.runner.batch : 0;
  const int width = std::max(batch, 1);
  std::vector<RunResult> runs(static_cast<std::size_t>(plan.trials));

  ParallelRunner runner(plan.runner);
  runner.for_each_trial((plan.trials + width - 1) / width, [&](int group) {
    const int first = group * width;
    const auto lanes =
        static_cast<std::size_t>(std::min(width, plan.trials - first));
    std::vector<Rng> rngs;
    rngs.reserve(lanes);
    for (std::size_t b = 0; b < lanes; ++b)
      rngs.push_back(
          Rng(plan.seed).fork(static_cast<std::uint64_t>(first) + b));
    std::optional<Graph> built;
    const Graph& graph = trial_graph(graphs, rngs.front(), built);
    RRB_REQUIRE(graph.num_nodes() >= 2, "trial graph too small");

    std::vector<NodeId> sources(lanes, plan.source);
    std::vector<Obs> observers;
    observers.reserve(lanes);
    for (std::size_t b = 0; b < lanes; ++b) {
      if (plan.source == kNoNode)
        sources[b] =
            static_cast<NodeId>(rngs[b].uniform_u64(graph.num_nodes()));
      observers.push_back(make_observer(graph));
    }

    const auto out = std::span<RunResult>(runs).subspan(
        static_cast<std::size_t>(first), lanes);
    with_lane_protocols(
        protocols, graph, lanes,
        [&](auto lane_protocols, const ChannelConfig& channel) {
          GraphTopology topo(graph);
          if (batch >= 1) {
            BatchedPhoneCallEngine<GraphTopology> engine(topo, channel);
            std::vector<RunResult> results = engine.run(
                lane_protocols, std::span<const NodeId>(sources),
                std::span<Rng>(rngs), plan.limits, std::span<Obs>(observers));
            std::ranges::move(results, out.begin());
          } else {
            PhoneCallEngine<GraphTopology> engine(topo, channel, rngs.front());
            out.front() = engine.run(*lane_protocols.front(), sources.front(),
                                     plan.limits, observers.front());
          }
        });
    for (std::size_t b = 0; b < lanes; ++b)
      record(first + static_cast<int>(b), observers[b]);
  });
  return runs;
}

/// The executor with each trial's observer kept, in trial order.
template <typename GraphSource, typename ProtocolSource,
          typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
ObservedOutcome<Obs> observe_trials(const TrialPlan& plan,
                                    const GraphSource& graphs,
                                    const ProtocolSource& protocols,
                                    const MakeObserver& make_observer) {
  RRB_REQUIRE(plan.trials >= 1, "need at least one trial");
  std::vector<std::optional<Obs>> slots(static_cast<std::size_t>(plan.trials));
  ObservedOutcome<Obs> observed;
  observed.outcome = reduce_runs(execute_trials(
      plan, graphs, protocols, make_observer, [&](int trial, Obs& obs) {
        slots[static_cast<std::size_t>(trial)] = std::move(obs);
      }));
  observed.observers.reserve(slots.size());
  for (std::optional<Obs>& slot : slots)
    observed.observers.push_back(std::move(*slot));
  return observed;
}

}  // namespace detail

/// Observer-aware run_trials: `make_observer(graph)` builds the trial's
/// observer before the run; the engine fires its hooks from inside the
/// round loop. Randomness is untouched — trial i still draws exactly
/// Rng(config.seed).fork(i) in the bare overload's order.
template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> run_trials(
    const GraphFactory& graph_factory,
    const ProtocolFactory& protocol_factory, const TrialConfig& config,
    const MakeObserver& make_observer) {
  return detail::observe_trials(
      detail::plan_for(config), graph_factory,
      detail::FactoryProtocols{protocol_factory, config.channel},
      make_observer);
}

/// Observer-aware broadcast_trials on a fixed graph: same draw order and
/// static dispatch as the bare overload, batch included.
template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> broadcast_trials(
    const Graph& graph, const BroadcastOptions& options,
    const MakeObserver& make_observer, NodeId source = kNoNode) {
  return detail::observe_trials(detail::plan_for(options, source), graph,
                                options, make_observer);
}

/// Observer-aware broadcast_trials with a graph per trial.
template <typename MakeObserver,
          MetricObserver Obs =
              std::invoke_result_t<const MakeObserver&, const Graph&>>
[[nodiscard]] ObservedOutcome<Obs> broadcast_trials(
    const GraphFactory& graph_factory, const BroadcastOptions& options,
    const MakeObserver& make_observer, NodeId source = kNoNode) {
  return detail::observe_trials(detail::plan_for(options, source),
                                graph_factory, options, make_observer);
}

}  // namespace rrb

#include "rrb/sim/trace.hpp"

#include <memory>

#include "rrb/common/check.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/phonecall/edge_ids.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {

namespace {

/// Keeps a trial's edge-id map alive inside its observer stack. The map is
/// heap-held, so EdgeUsageObserver's pointer into it survives the stack
/// being moved.
struct EdgeIdHolder {
  std::unique_ptr<const EdgeIdMap> map;
  [[nodiscard]] const char* name() const { return "edge-ids"; }
};

/// Measurement is entirely observer-side (rrb/metrics/observers.hpp):
/// SetSizeObserver always, HSetObserver and EdgeUsageObserver each disabled
/// via null topology pointers when the config does not ask for it. The
/// observers' per-round series are zipped into SetTracePoints after the
/// run. Observers draw no randomness, so the trial's draw sequence — and
/// therefore every traced value — is bit-identical to the pre-observer
/// engine path (pinned in tests/test_metrics.cpp, TraceGolden).
using TraceObservers = ObserverSet<EdgeIdHolder, SetSizeObserver,
                                   HSetObserver, EdgeUsageObserver>;

TraceObservers trace_observers(const Graph& graph, const TraceConfig& config) {
  EdgeIdHolder edge_ids;
  if (config.track_edge_usage)
    edge_ids.map = std::make_unique<const EdgeIdMap>(build_edge_id_map(graph));
  const EdgeIdMap* map = edge_ids.map.get();
  return TraceObservers(
      std::move(edge_ids), SetSizeObserver{},
      HSetObserver(config.track_h_sets ? &graph : nullptr),
      EdgeUsageObserver(map != nullptr ? &graph : nullptr, map,
                        /*record_per_round=*/true));
}

/// One trial's raw per-round values (not yet averaged).
std::vector<SetTracePoint> trace_points(const TraceObservers& observers,
                                        const TraceConfig& config) {
  const auto& sizes = observers.get<SetSizeObserver>().points();
  const auto& hsets = observers.get<HSetObserver>().points();
  const auto& unused =
      observers.get<EdgeUsageObserver>().unused_edge_nodes_per_round();

  std::vector<SetTracePoint> local(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SetTracePoint& point = local[i];
    point.t = sizes[i].t;
    point.informed = static_cast<double>(sizes[i].informed);
    point.newly_informed = static_cast<double>(sizes[i].newly_informed);
    point.uninformed = static_cast<double>(sizes[i].uninformed);
    if (config.track_h_sets) {
      point.h1 = static_cast<double>(hsets[i].h1);
      point.h4 = static_cast<double>(hsets[i].h4);
      point.h5 = static_cast<double>(hsets[i].h5);
    }
    if (config.track_edge_usage)
      point.unused_edge_nodes = static_cast<double>(unused[i]);
  }
  return local;
}

}  // namespace

std::vector<SetTracePoint> trace_set_sizes(
    const GraphFactory& graph_factory, const ProtocolFactory& protocol_factory,
    const TraceConfig& config) {
  RRB_REQUIRE(config.trials >= 1, "need at least one trial");

  // Every trial runs through the trial executor, a uniform source drawn
  // after its graph, and fills its own slot with its per-round series.
  detail::TrialPlan plan;
  plan.trials = config.trials;
  plan.seed = config.seed;
  plan.limits = config.limits;
  plan.runner = config.runner;
  std::vector<std::vector<SetTracePoint>> per_trial(
      static_cast<std::size_t>(config.trials));
  (void)detail::execute_trials(
      plan, graph_factory,
      detail::FactoryProtocols{protocol_factory, config.channel},
      [&](const Graph& graph) { return trace_observers(graph, config); },
      [&](int trial, const TraceObservers& observers) {
        per_trial[static_cast<std::size_t>(trial)] =
            trace_points(observers, config);
      });

  // Sum in trial order — the same float addition order as a sequential
  // run, so the averaged trace is byte-identical for any thread count.
  std::vector<SetTracePoint> trace;
  std::vector<int> contributions;  // trials contributing to each round
  for (const std::vector<SetTracePoint>& local : per_trial) {
    if (trace.size() < local.size()) {
      trace.resize(local.size());
      contributions.resize(local.size(), 0);
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
      SetTracePoint& point = trace[i];
      point.t = local[i].t;
      point.informed += local[i].informed;
      point.newly_informed += local[i].newly_informed;
      point.uninformed += local[i].uninformed;
      point.h1 += local[i].h1;
      point.h4 += local[i].h4;
      point.h5 += local[i].h5;
      point.unused_edge_nodes += local[i].unused_edge_nodes;
      ++contributions[i];
    }
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    SetTracePoint& point = trace[i];
    const double scale =
        contributions[i] > 0 ? 1.0 / static_cast<double>(contributions[i])
                             : 1.0;
    point.informed *= scale;
    point.newly_informed *= scale;
    point.uninformed *= scale;
    point.h1 *= scale;
    point.h4 *= scale;
    point.h5 *= scale;
    point.unused_edge_nodes *= scale;
  }
  return trace;
}

}  // namespace rrb

#pragma once

#include <vector>

#include "rrb/common/runner_config.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/sim/trial.hpp"

/// \file trace.hpp
/// Per-round set-size traces averaged over trials: the raw material for the
/// phase-dynamics experiments (Lemmas 1–4, 8). For each round we record the
/// quantities the paper's analysis tracks: |I(t)|, |I+(t)|, h(t) = |H(t)|,
/// and h_i(t) = |{v in H(t) : v has >= i neighbours in H(t)}| for i = 1,4,5.
///
/// Measurement runs through the metric-observer pipeline
/// (SetSizeObserver / HSetObserver / EdgeUsageObserver in
/// rrb/metrics/observers.hpp) — this driver only schedules trials and
/// averages their per-round series. The observer migration is value-exact:
/// tests/test_metrics.cpp pins the traced numbers against values captured
/// from the pre-observer engine path.
///
/// Trials run on the trial executor of rrb/sim/trial.hpp, the same one
/// run_trials uses: each trial records its own per-round trace from
/// Rng(seed).fork(trial) (graph, then a uniform source, then the rounds),
/// and the traces are averaged in trial order afterwards, so the result is
/// bit-identical for any RunnerConfig.

namespace rrb {

/// One round's set sizes (averaged over trials as doubles).
struct SetTracePoint {
  Round t = 0;
  double informed = 0.0;        ///< |I(t)|
  double newly_informed = 0.0;  ///< |I+(t)|
  double uninformed = 0.0;      ///< h(t)
  double h1 = 0.0;              ///< nodes of H(t) with >= 1 neighbour in H(t)
  double h4 = 0.0;              ///< ... >= 4 neighbours in H(t)
  double h5 = 0.0;              ///< ... >= 5 neighbours in H(t)
  double unused_edge_nodes = 0.0;  ///< |U(t)| when edge tracking is on
};

struct TraceConfig {
  int trials = 3;
  std::uint64_t seed = 0x77ace;
  ChannelConfig channel;
  RunLimits limits;
  bool track_h_sets = true;      ///< compute h1/h4/h5 (O(m) per round)
  bool track_edge_usage = false; ///< compute |U(t)| (needs edge id map)
  RunnerConfig runner;           ///< worker pool; never changes the output
};

/// Run trials, each on a fresh graph from `graph_factory` (the same
/// probability space as run_trials), and average the per-round set sizes.
/// The trace length is the maximum round count across trials. Each round is
/// averaged over the trials that reached it: a trial that stopped earlier
/// contributes nothing to later rounds, so late rounds are means over the
/// surviving trials only.
[[nodiscard]] std::vector<SetTracePoint> trace_set_sizes(
    const GraphFactory& graph_factory, const ProtocolFactory& protocol_factory,
    const TraceConfig& config);

}  // namespace rrb

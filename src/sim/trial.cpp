#include "rrb/sim/trial.hpp"

#include "rrb/common/check.hpp"

namespace rrb {

namespace {

/// A bare sweep: the executor with the hook-free observer, whose absent
/// hooks compile away.
template <typename GraphSource, typename ProtocolSource>
TrialOutcome run_bare(const detail::TrialPlan& plan, const GraphSource& graphs,
                      const ProtocolSource& protocols) {
  return detail::reduce_runs(detail::execute_trials(
      plan, graphs, protocols, [](const Graph&) { return detail::NoMetrics{}; },
      [](int, detail::NoMetrics&) {}));
}

}  // namespace

namespace detail {

TrialPlan plan_for(const TrialConfig& config) {
  TrialPlan plan;
  plan.trials = config.trials;
  plan.seed = config.seed;
  plan.limits = config.limits;
  plan.source = config.random_source ? kNoNode : 0;
  plan.runner = config.runner;
  return plan;
}

TrialPlan plan_for(const BroadcastOptions& options, NodeId source) {
  TrialPlan plan;
  plan.trials = options.trials;
  plan.seed = options.seed;
  plan.limits.max_rounds = options.max_rounds;
  plan.limits.record_rounds = options.record_rounds;
  plan.source = source;
  plan.runner = options.runner;
  return plan;
}

TrialOutcome reduce_runs(std::vector<RunResult>&& runs) {
  SummaryAccumulator rounds;
  SummaryAccumulator completion;
  SummaryAccumulator total_tx;
  SummaryAccumulator tx_per_node;
  SummaryAccumulator push_tx;
  SummaryAccumulator pull_tx;
  SummaryAccumulator coverage;
  int completed = 0;
  for (const RunResult& run : runs) {
    rounds.add(static_cast<double>(run.rounds));
    total_tx.add(static_cast<double>(run.total_tx()));
    tx_per_node.add(run.tx_per_node());
    push_tx.add(static_cast<double>(run.push_tx));
    pull_tx.add(static_cast<double>(run.pull_tx));
    coverage.add(run.n == 0 ? 0.0
                            : static_cast<double>(run.final_informed) /
                                  static_cast<double>(run.n));
    if (run.all_informed) {
      ++completed;
      completion.add(static_cast<double>(run.completion_round));
    }
  }

  TrialOutcome outcome;
  outcome.rounds = rounds.finish();
  outcome.completion_round = completion.finish();
  outcome.total_tx = total_tx.finish();
  outcome.tx_per_node = tx_per_node.finish();
  outcome.push_tx = push_tx.finish();
  outcome.pull_tx = pull_tx.finish();
  outcome.coverage = coverage.finish();
  outcome.completion_rate =
      static_cast<double>(completed) / static_cast<double>(runs.size());
  outcome.runs = std::move(runs);
  return outcome;
}

}  // namespace detail

TrialOutcome run_trials(const GraphFactory& graph_factory,
                        const ProtocolFactory& protocol_factory,
                        const TrialConfig& config) {
  return run_bare(detail::plan_for(config), graph_factory,
                  detail::FactoryProtocols{protocol_factory, config.channel});
}

TrialOutcome run_trials(const Graph& graph,
                        const ProtocolFactory& protocol_factory,
                        const TrialConfig& config) {
  return run_bare(detail::plan_for(config), graph,
                  detail::FactoryProtocols{protocol_factory, config.channel});
}

TrialOutcome broadcast_trials(const Graph& graph,
                              const BroadcastOptions& options, NodeId source) {
  return run_bare(detail::plan_for(options, source), graph, options);
}

TrialOutcome broadcast_trials(const GraphFactory& graph_factory,
                              const BroadcastOptions& options, NodeId source) {
  return run_bare(detail::plan_for(options, source), graph_factory, options);
}

}  // namespace rrb

/// Protocol shootout: run every broadcast protocol in the library on the
/// same random regular network and print a comparison table — a compact
/// tour of the protocols/ and sim/ APIs (trial runner, summaries, tables).
///
/// Build & run:  ./build/examples/protocol_shootout

#include <iostream>

#include "rrb/common/table.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/parallel/runner.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/protocols/median_counter.hpp"
#include "rrb/protocols/sequentialised.hpp"
#include "rrb/sim/trial.hpp"

int main() {
  using namespace rrb;

  const NodeId n = 1 << 13;
  const NodeId d = 10;
  std::cout << "protocol shootout on G(n = " << n << ", d = " << d
            << "), 5 trials per protocol ("
            << ParallelRunner::resolve_threads(RunnerConfig{})
            << " worker threads; results are thread-count independent)\n\n";

  const GraphFactory graph = [=](Rng& rng) {
    return random_regular_simple(n, d, rng);
  };

  struct Contender {
    std::string name;
    ChannelConfig channel;
    ProtocolFactory factory;
  };

  ChannelConfig one_choice;
  ChannelConfig four_choices;
  four_choices.num_choices = 4;
  ChannelConfig memory3;
  memory3.num_choices = 1;
  memory3.memory = 3;

  std::vector<Contender> contenders;
  contenders.push_back({"push", one_choice, [](const Graph&) {
                          return make_protocol<PushProtocol>();
                        }});
  contenders.push_back({"pull", one_choice, [](const Graph&) {
                          return make_protocol<PullProtocol>();
                        }});
  contenders.push_back({"push&pull", one_choice, [](const Graph&) {
                          return make_protocol<PushPullProtocol>();
                        }});
  contenders.push_back({"median-counter", one_choice, [n](const Graph&) {
                          MedianCounterConfig cfg;
                          cfg.n_estimate = n;
                          return make_protocol<MedianCounterProtocol>(cfg);
                        }});
  contenders.push_back({"four-choice (Alg 1)", four_choices,
                        [n](const Graph&) {
                          FourChoiceConfig cfg;
                          cfg.n_estimate = n;
                          return make_protocol<FourChoiceBroadcast>(cfg);
                        }});
  contenders.push_back({"sequentialised (fn.2)", memory3, [n](const Graph&) {
                          FourChoiceConfig cfg;
                          cfg.n_estimate = n;
                          return make_protocol<SequentialisedFourChoice>(
                              cfg);
                        }});

  Table table({"protocol", "completed", "rounds to done", "tx per node",
               "channels/node/round"});
  for (const Contender& c : contenders) {
    TrialConfig cfg;
    cfg.trials = 5;
    cfg.seed = 7;
    cfg.channel = c.channel;
    const TrialOutcome out = run_trials(graph, c.factory, cfg);
    double channels_per = 0.0;
    for (const RunResult& r : out.runs)
      channels_per += static_cast<double>(r.channels_opened) /
                      static_cast<double>(r.n) /
                      static_cast<double>(r.rounds);
    channels_per /= static_cast<double>(out.runs.size());
    table.begin_row();
    table.add(c.name);
    table.add(out.completion_rate, 2);
    table.add(out.completion_round.mean, 1);
    table.add(out.tx_per_node.mean, 2);
    table.add(channels_per, 2);
  }
  std::cout << table
            << "\nReading guide: the four-choice algorithm trades a "
               "logarithmic round count\nfor doubly-logarithmic per-node "
               "message cost; the sequentialised variant\nmatches it using "
               "one channel per step with 3 steps of memory.\n";
  return 0;
}

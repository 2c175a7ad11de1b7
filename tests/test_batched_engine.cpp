/// Batched-vs-sequential bit-identity suite: the acceptance criterion of
/// the trial-batched engine. RunnerConfig::batch is pure scheduling —
/// every lane keeps its own Rng(seed).fork(i) stream and the lockstep loop
/// replays the sequential engine's per-lane draw order exactly — so for
/// all eight schemes, B in {1, 4, 32, 65} and worker threads 1/4, the
/// batched drivers must reproduce the sequential outputs (and observer
/// streams) to the bit. The sequential outputs themselves are frozen by
/// tests/test_golden_results.cpp, so equality here chains the batched path
/// to the recorded goldens.

#include "rrb/phonecall/batched_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/observers.hpp"
#include "rrb/protocols/baselines.hpp"
#include "rrb/protocols/four_choice.hpp"
#include "rrb/sim/trial.hpp"

namespace rrb {
namespace {

void expect_round_eq(const RoundStats& a, const RoundStats& b) {
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.transmitting_nodes, b.transmitting_nodes);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.newly_informed, b.newly_informed);
  EXPECT_EQ(a.informed, b.informed);
}

void expect_run_eq(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.final_informed, b.final_informed);
  EXPECT_EQ(a.alive_at_end, b.alive_at_end);
  EXPECT_EQ(a.all_informed, b.all_informed);
  ASSERT_EQ(a.per_round.size(), b.per_round.size());
  for (std::size_t i = 0; i < a.per_round.size(); ++i)
    expect_round_eq(a.per_round[i], b.per_round[i]);
}

void expect_summary_eq(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.count, b.count);
}

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    expect_run_eq(a.runs[i], b.runs[i]);
  }
  expect_summary_eq(a.rounds, b.rounds);
  expect_summary_eq(a.completion_round, b.completion_round);
  expect_summary_eq(a.total_tx, b.total_tx);
  expect_summary_eq(a.tx_per_node, b.tx_per_node);
  expect_summary_eq(a.push_tx, b.push_tx);
  expect_summary_eq(a.pull_tx, b.pull_tx);
  expect_summary_eq(a.coverage, b.coverage);
  EXPECT_EQ(a.completion_rate, b.completion_rate);
}

Graph test_graph() {
  Rng grng(0xba7c4);
  return random_regular_simple(256, 8, grng);
}

// ---- All schemes x B in {1, 4, 32} x threads {1, 4} ------------------------

TEST(BatchedBitIdentity, AllSchemesAllBatchesAllThreads) {
  const Graph g = test_graph();
  for (const BroadcastScheme scheme : kAllSchemes) {
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0xba7c401;
    // 70 trials: not a multiple of 4, 32 or 65, so every batch has a
    // partial group; at B = 65 the first group is wider than one 64-lane
    // mask word, which no lockstep kernel takes.
    opt.trials = 70;
    opt.runner.threads = 1;
    opt.runner.batch = 0;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    for (const int batch : {1, 4, 32, 65}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(scheme_name(scheme)) + " B=" +
                     std::to_string(batch) + " threads=" +
                     std::to_string(threads));
        BroadcastOptions batched = opt;
        batched.runner.batch = batch;
        batched.runner.threads = threads;
        expect_outcome_eq(broadcast_trials(g, batched), sequential);
      }
    }
  }
}

TEST(BatchedBitIdentity, GoldenFacadeConfigUnchanged) {
  // The exact broadcast_trials configuration of the golden suite
  // (tests/test_golden_results.cpp): batching it must land on the same
  // recorded numbers.
  Rng grng(0xfeed);
  const Graph g = random_regular_simple(512, 8, grng);
  for (const BroadcastScheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    BroadcastOptions opt;
    opt.scheme = scheme;
    opt.seed = 0x5eed02;
    opt.trials = 4;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    opt.runner.batch = 32;  // one group larger than the trial count
    expect_outcome_eq(broadcast_trials(g, opt), sequential);
  }
}

// ---- Channel-model variants the scheme sweep does not cover ----------------

TEST(BatchedBitIdentity, FailureQuasirandomAndMemoryVariants) {
  const Graph g = test_graph();
  struct Variant {
    const char* name;
    BroadcastScheme scheme;
    double failure_prob;
    bool quasirandom;
    int num_choices = 0;  // 0 = the scheme's default
  };
  const Variant variants[] = {
      // Per-channel failure bernoullis interleave with the partner draws.
      {"pushpull+failures", BroadcastScheme::kPushPull, 0.15, false},
      // Quasirandom cursors draw exactly once, on first use per node.
      {"push+quasirandom", BroadcastScheme::kPush, 0.0, true},
      // Memory rings feed the rejection-sampling loop; failed channels
      // still enter the ring (see engine.hpp), so failures cross-couple
      // with the memory draws.
      {"sequentialised+failures", BroadcastScheme::kSequentialised, 0.1,
       false},
      // A state-oblivious protocol with several reliable calls per round
      // runs on the bitmask kernel, not the classical one.
      {"push+4-choices", BroadcastScheme::kPush, 0.0, false, 4},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    BroadcastOptions opt;
    opt.scheme = variant.scheme;
    opt.seed = 0xba7c402;
    opt.trials = 11;
    opt.failure_prob = variant.failure_prob;
    opt.quasirandom = variant.quasirandom;
    opt.num_choices = variant.num_choices;
    const TrialOutcome sequential = broadcast_trials(g, opt);
    for (const int batch : {4, 32}) {
      SCOPED_TRACE(batch);
      BroadcastOptions batched = opt;
      batched.runner.batch = batch;
      batched.runner.threads = 4;
      expect_outcome_eq(broadcast_trials(g, batched), sequential);
    }
  }
}

TEST(BatchedBitIdentity, FixedSourceRecordRoundsAndTruncation) {
  const Graph g = test_graph();
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kFourChoice;
  opt.seed = 0xba7c403;
  opt.trials = 9;
  opt.record_rounds = true;  // per-round stats compared bit-for-bit
  opt.max_rounds = 3;        // every lane truncates at the horizon
  const TrialOutcome sequential = broadcast_trials(g, opt, NodeId{5});
  for (const RunResult& run : sequential.runs) {
    EXPECT_EQ(run.rounds, 3);
    EXPECT_FALSE(run.all_informed);
  }
  BroadcastOptions batched = opt;
  batched.runner.batch = 4;
  expect_outcome_eq(broadcast_trials(g, batched, NodeId{5}), sequential);
}

// ---- Observer streams ------------------------------------------------------

using FreeStack =
    ObserverSet<RunSummaryObserver, SetSizeObserver, TxHistogramObserver,
                InformedLatencyObserver>;

TEST(BatchedObservers, ObserverStreamsMatchSequential) {
  const Graph g = test_graph();
  BroadcastOptions opt;
  opt.scheme = BroadcastScheme::kPushPull;
  opt.seed = 0xba7c404;
  opt.trials = 13;
  opt.runner.threads = 1;
  const ObservedOutcome<FreeStack> sequential =
      broadcast_trials(g, opt, [](const Graph&) { return FreeStack{}; });
  for (const int batch : {1, 5}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("B=" + std::to_string(batch) + " threads=" +
                   std::to_string(threads));
      BroadcastOptions batched = opt;
      batched.runner.batch = batch;
      batched.runner.threads = threads;
      const ObservedOutcome<FreeStack> observed = broadcast_trials(
          g, batched, [](const Graph&) { return FreeStack{}; });
      expect_outcome_eq(observed.outcome, sequential.outcome);
      ASSERT_EQ(observed.observers.size(), sequential.observers.size());
      for (std::size_t i = 0; i < observed.observers.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        const FreeStack& got = observed.observers[i];
        const FreeStack& want = sequential.observers[i];
        // Hook-derived whole-run summary (on_run_begin/round_end/run_end).
        expect_run_eq(got.get<RunSummaryObserver>().result(),
                      want.get<RunSummaryObserver>().result());
        // Per-round informed_at scans.
        const auto& got_points = got.get<SetSizeObserver>().points();
        const auto& want_points = want.get<SetSizeObserver>().points();
        ASSERT_EQ(got_points.size(), want_points.size());
        for (std::size_t p = 0; p < got_points.size(); ++p) {
          EXPECT_EQ(got_points[p].t, want_points[p].t);
          EXPECT_EQ(got_points[p].informed, want_points[p].informed);
          EXPECT_EQ(got_points[p].newly_informed,
                    want_points[p].newly_informed);
          EXPECT_EQ(got_points[p].uninformed, want_points[p].uninformed);
        }
        // Per-transmission stream (on_transmission, per-node counters).
        EXPECT_EQ(got.get<TxHistogramObserver>().sends(),
                  want.get<TxHistogramObserver>().sends());
        // on_run_end latency digest.
        EXPECT_EQ(got.get<InformedLatencyObserver>().latencies(),
                  want.get<InformedLatencyObserver>().latencies());
      }
    }
  }
}

// ---- The fixed-graph run_trials overload -----------------------------------

TEST(BatchedRunTrials, FixedGraphOverloadMatchesSequential) {
  const Graph g = test_graph();
  const ProtocolFactory pf = [](const Graph& graph) {
    FourChoiceConfig cfg;
    cfg.n_estimate = graph.num_nodes();
    return make_protocol<FourChoiceBroadcast>(cfg);
  };
  for (const bool random_source : {true, false}) {
    SCOPED_TRACE(random_source ? "random-source" : "source-0");
    TrialConfig cfg;
    cfg.trials = 37;
    cfg.seed = 0xba7c405;
    cfg.channel.num_choices = 4;
    cfg.random_source = random_source;
    cfg.runner.threads = 1;
    const TrialOutcome sequential = run_trials(g, pf, cfg);
    for (const int batch : {1, 4, 32}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("B=" + std::to_string(batch) + " threads=" +
                     std::to_string(threads));
        TrialConfig batched = cfg;
        batched.runner.batch = batch;
        batched.runner.threads = threads;
        expect_outcome_eq(run_trials(g, pf, batched), sequential);
      }
    }
  }
}

TEST(BatchedRunTrials, TrialStreamsStayKeyedOnSeedAndIndex) {
  // Reconstruct trial 3 by hand from the seeding contract — fork(3), source
  // draw, then the engine — and compare against slot 3 of a batched sweep.
  // Batching (and its group scheduling) must be invisible to the stream.
  const Graph g = test_graph();
  const ProtocolFactory pf = [](const Graph&) {
    return make_protocol<PushProtocol>();
  };
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.seed = 0xba7c406;
  cfg.runner.batch = 4;  // trial 3 is the last lane of group 0
  cfg.runner.threads = 4;
  const TrialOutcome batched = run_trials(g, pf, cfg);

  Rng rng = Rng(cfg.seed).fork(3);
  auto protocol = pf(g);
  GraphTopology topo(g);
  PhoneCallEngine<GraphTopology> engine(topo, cfg.channel, rng);
  const NodeId source = static_cast<NodeId>(rng.uniform_u64(g.num_nodes()));
  const RunResult by_hand = engine.run(*protocol, source, RunLimits{});
  expect_run_eq(batched.runs[3], by_hand);
}

// ---- Driving the engine directly -------------------------------------------

TEST(BatchedEngine, SingleLaneMatchesSequentialEngine) {
  const Graph g = test_graph();
  const ChannelConfig channel;
  RunLimits limits;
  limits.record_rounds = true;

  Rng seq_rng = Rng(0xba7c407).fork(0);
  PushProtocol seq_proto;
  GraphTopology topo(g);
  PhoneCallEngine<GraphTopology> engine(topo, channel, seq_rng);
  const RunResult sequential = engine.run(seq_proto, NodeId{7}, limits);

  std::vector<Rng> rngs{Rng(0xba7c407).fork(0)};
  PushProtocol lane_proto;
  PushProtocol* protos[] = {&lane_proto};
  const NodeId sources[] = {NodeId{7}};
  BatchedPhoneCallEngine<GraphTopology> batched(topo, channel);
  const std::vector<RunResult> results =
      batched.run(std::span<PushProtocol* const>(protos),
                  std::span<const NodeId>(sources), std::span<Rng>(rngs),
                  limits);
  ASSERT_EQ(results.size(), 1U);
  expect_run_eq(results[0], sequential);
}

TEST(BatchedEngine, StateDependentHookFreeProtocolMatchesSequential) {
  // A hook-free protocol whose action reads the node's local state. It must
  // NOT declare kActionIgnoresState, so the kernel has to route it through
  // the generic per-(node, lane) action scan rather than the classical
  // broadcast-one-action path — this pins that branch now that all four
  // baselines take the classical one.
  struct TiredPush {
    Action action(NodeId /*v*/, const NodeLocalState& state, Round t) {
      // Push for the three rounds after becoming informed, then go quiet.
      return t - state.informed_at <= 3 ? Action::kPush : Action::kNone;
    }
    bool finished(Round /*t*/, Count informed, Count alive) const {
      return informed >= alive;
    }
    const char* name() const { return "tired-push"; }
  };

  const Graph g = test_graph();
  const ChannelConfig channel;
  GraphTopology topo(g);
  RunLimits limits;
  limits.max_rounds = 64;  // the protocol can stall short of completion
  limits.record_rounds = true;

  constexpr std::size_t kLanes = 5;
  std::vector<TiredPush> lane_protos(kLanes);
  std::vector<TiredPush*> protos;
  std::vector<NodeId> sources;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    protos.push_back(&lane_protos[i]);
    sources.push_back(static_cast<NodeId>(3 * i));
    rngs.push_back(Rng(0xba7c409).fork(i));
  }
  BatchedPhoneCallEngine<GraphTopology> batched(topo, channel);
  const std::vector<RunResult> results =
      batched.run(std::span<TiredPush* const>(protos),
                  std::span<const NodeId>(sources), std::span<Rng>(rngs),
                  limits);

  ASSERT_EQ(results.size(), kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    Rng rng = Rng(0xba7c409).fork(i);
    TiredPush proto;
    PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
    expect_run_eq(results[i],
                  engine.run(proto, static_cast<NodeId>(3 * i), limits));
  }
}

TEST(BatchedEngine, RejectsMismatchedLaneSpans) {
  const Graph g = test_graph();
  GraphTopology topo(g);
  BatchedPhoneCallEngine<GraphTopology> engine(topo, ChannelConfig{});
  PushProtocol p0;
  PushProtocol p1;
  PushProtocol* protos[] = {&p0, &p1};
  const NodeId one_source[] = {NodeId{0}};
  std::vector<Rng> rngs{Rng(1).fork(0), Rng(1).fork(1)};
  EXPECT_THROW(
      (void)engine.run(std::span<PushProtocol* const>(protos),
                       std::span<const NodeId>(one_source),
                       std::span<Rng>(rngs), RunLimits{}),
      std::logic_error);
}

TEST(BatchedEngine, RejectsNegativeBatchConfig) {
  RunnerConfig bad;
  bad.batch = -1;
  EXPECT_THROW(ParallelRunner{bad}, std::logic_error);
}

}  // namespace
}  // namespace rrb

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/p2p/churn.hpp"
#include "rrb/p2p/overlay.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/phonecall/failure_models.hpp"
#include "rrb/protocols/baselines.hpp"

/// The engine's silent-caller rule: in a round where no node pulls (and
/// there is no memory ring, no failure model and no dead slot), a caller
/// that does not push still makes its channel draws but never looks up
/// its partner. Draws are pinned, lookups are not.
///
/// The LeanRoundGolden values were captured from the engine before the
/// rule existed, one per edge case of its condition: per-round counters
/// with channel failures (push, fixed-horizon push, four-choice with its
/// mixed pull and push-only rounds), a failure model, and churned overlays
/// with dead slots. Like tests/test_golden_results.cpp, a mismatch means
/// the draw order or the round loop's arithmetic changed — fix the change,
/// never the goldens. The LeanRounds tests count partner lookups through
/// a wrapping topology to show the rule fires where it should and only
/// there.

namespace rrb {
namespace {

Graph golden_graph() {
  Rng grng(0xfeed);
  return random_regular_simple(512, 8, grng);
}

/// One round's counters: channels opened and failed, push and pull
/// transmissions, newly informed nodes.
struct RoundGolden {
  Count opened;
  Count failed;
  Count push;
  Count pull;
  Count newly;
};

void expect_rounds(const RunResult& r, std::span<const RoundGolden> golden) {
  ASSERT_EQ(r.per_round.size(), golden.size());
  EXPECT_EQ(r.rounds, golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    const RoundStats& s = r.per_round[i];
    EXPECT_EQ(s.channels_opened, golden[i].opened);
    EXPECT_EQ(s.channels_failed, golden[i].failed);
    EXPECT_EQ(s.push_tx, golden[i].push);
    EXPECT_EQ(s.pull_tx, golden[i].pull);
    EXPECT_EQ(s.newly_informed, golden[i].newly);
  }
}

RunResult facade_run(BroadcastScheme scheme) {
  BroadcastOptions opt;
  opt.scheme = scheme;
  opt.seed = 0x5eed01;
  opt.failure_prob = 0.1;
  opt.record_rounds = true;
  return broadcast(golden_graph(), 7, opt);
}

constexpr RoundGolden kPushRounds[] = {
    {512, 52, 1, 0, 1}, {512, 53, 1, 0, 1}, {512, 53, 3, 0, 3},
    {512, 40, 5, 0, 4}, {512, 55, 9, 0, 7}, {512, 67, 15, 0, 12},
    {512, 45, 29, 0, 15}, {512, 51, 40, 0, 28}, {512, 51, 66, 0, 40},
    {512, 49, 103, 0, 55}, {512, 50, 157, 0, 84}, {512, 57, 221, 0, 72},
    {512, 44, 294, 0, 73}, {512, 43, 364, 0, 53}, {512, 41, 413, 0, 32},
    {512, 45, 438, 0, 16}, {512, 42, 455, 0, 7}, {512, 51, 453, 0, 4},
    {512, 42, 467, 0, 3}, {512, 56, 455, 0, 1},
};
TEST(LeanRoundGolden, PushPerRoundWithChannelFailures) {
  const RunResult r = facade_run(BroadcastScheme::kPush);
  expect_rounds(r, kPushRounds);
  EXPECT_EQ(r.completion_round, 20U);
  EXPECT_EQ(r.final_informed, 512U);
}

constexpr RoundGolden kFixedHorizonRounds[] = {
    {512, 52, 1, 0, 1}, {512, 53, 1, 0, 1}, {512, 53, 3, 0, 3},
    {512, 40, 5, 0, 4}, {512, 55, 9, 0, 7}, {512, 67, 15, 0, 12},
    {512, 45, 29, 0, 15}, {512, 51, 40, 0, 28}, {512, 51, 66, 0, 40},
    {512, 49, 103, 0, 55}, {512, 50, 157, 0, 84}, {512, 57, 221, 0, 72},
    {512, 44, 294, 0, 73}, {512, 43, 364, 0, 53}, {512, 41, 413, 0, 32},
    {512, 45, 438, 0, 16}, {512, 42, 455, 0, 7}, {512, 51, 453, 0, 4},
    {512, 42, 467, 0, 3}, {512, 56, 455, 0, 1}, {512, 46, 466, 0, 0},
    {512, 44, 468, 0, 0}, {512, 42, 470, 0, 0}, {512, 48, 464, 0, 0},
    {512, 50, 462, 0, 0}, {512, 41, 471, 0, 0}, {512, 58, 454, 0, 0},
    {512, 58, 454, 0, 0}, {512, 52, 460, 0, 0}, {512, 52, 460, 0, 0},
    {512, 43, 469, 0, 0}, {512, 37, 475, 0, 0}, {512, 50, 462, 0, 0},
    {512, 60, 452, 0, 0},
};
TEST(LeanRoundGolden, FixedHorizonPushPerRoundWithChannelFailures) {
  const RunResult r = facade_run(BroadcastScheme::kFixedHorizonPush);
  expect_rounds(r, kFixedHorizonRounds);
  EXPECT_EQ(r.completion_round, 20U);
  EXPECT_EQ(r.final_informed, 512U);
}

// Four-choice alternates push-only rounds, silent rounds and its pull
// round (round 20), so the rule turns on and off within one run.
constexpr RoundGolden kFourChoiceRounds[] = {
    {2048, 192, 4, 0, 4}, {2048, 204, 13, 0, 11}, {2048, 201, 38, 0, 32},
    {2048, 191, 118, 0, 89}, {2048, 192, 322, 0, 183},
    {2048, 203, 663, 0, 149}, {2048, 191, 540, 0, 29},
    {2048, 212, 105, 0, 6}, {2048, 195, 22, 0, 0}, {2048, 242, 0, 0, 0},
    {2048, 186, 0, 0, 0}, {2048, 209, 0, 0, 0}, {2048, 206, 0, 0, 0},
    {2048, 226, 0, 0, 0}, {2048, 202, 1816, 0, 8}, {2048, 196, 1852, 0, 0},
    {2048, 216, 1832, 0, 0}, {2048, 217, 1831, 0, 0},
    {2048, 225, 1823, 0, 0}, {2048, 220, 0, 1828, 0}, {2048, 201, 0, 0, 0},
    {2048, 223, 0, 0, 0}, {2048, 198, 0, 0, 0}, {2048, 212, 0, 0, 0},
    {2048, 198, 0, 0, 0}, {2048, 201, 0, 0, 0}, {2048, 204, 0, 0, 0},
    {2048, 211, 0, 0, 0}, {2048, 221, 0, 0, 0}, {2048, 193, 0, 0, 0},
    {2048, 201, 0, 0, 0}, {2048, 194, 0, 0, 0}, {2048, 206, 0, 0, 0},
};
TEST(LeanRoundGolden, FourChoiceMixesPullAndSilentRounds) {
  const RunResult r = facade_run(BroadcastScheme::kFourChoice);
  expect_rounds(r, kFourChoiceRounds);
  EXPECT_EQ(r.completion_round, 15U);
  EXPECT_EQ(r.final_informed, 512U);
}

// A failure model needs every partner, so the rule stays off.
constexpr RoundGolden kBurstyPushRounds[] = {
    {512, 512, 0, 0, 0}, {512, 25, 1, 0, 1}, {512, 37, 2, 0, 2},
    {512, 24, 3, 0, 2}, {512, 512, 0, 0, 0}, {512, 24, 5, 0, 5},
    {512, 23, 11, 0, 9}, {512, 19, 20, 0, 16}, {512, 512, 0, 0, 0},
    {512, 31, 33, 0, 19}, {512, 31, 53, 0, 29}, {512, 25, 82, 0, 58},
    {512, 512, 0, 0, 0}, {512, 25, 135, 0, 71}, {512, 26, 207, 0, 89},
    {512, 33, 289, 0, 92}, {512, 512, 0, 0, 0}, {512, 24, 375, 0, 58},
    {512, 34, 426, 0, 32}, {512, 27, 457, 0, 15}, {512, 512, 0, 0, 0},
    {512, 27, 474, 0, 10}, {512, 13, 496, 0, 1}, {512, 27, 483, 0, 1},
    {512, 512, 0, 0, 0}, {512, 25, 486, 0, 0}, {512, 20, 491, 0, 1},
};
TEST(LeanRoundGolden, FailureModelKeepsEveryLookup) {
  const Graph g = golden_graph();
  Rng rng(0x5eed04);
  GraphTopology topo(g);
  ChannelConfig chan;
  chan.failure_prob = 0.05;
  PhoneCallEngine<GraphTopology> engine(topo, chan, rng);
  engine.set_failure_model(bursty_outage(4, 1));
  PushProtocol push;
  RunLimits limits;
  limits.record_rounds = true;
  const RunResult r = engine.run(push, NodeId{7}, limits);
  expect_rounds(r, kBurstyPushRounds);
  EXPECT_EQ(r.completion_round, 27U);
  EXPECT_EQ(r.final_informed, 512U);
}

RunResult churned_push(NodeId capacity) {
  Rng rng(0x5eed05);
  DynamicOverlay overlay(capacity, 1024, 8, rng);
  ChurnConfig churn;
  churn.joins_per_round = 2.0;
  churn.leaves_per_round = 2.0;
  churn.switches_per_round = 2;
  ChurnDriver driver(overlay, churn, rng);
  ChannelConfig chan;
  chan.failure_prob = 0.1;
  PhoneCallEngine<DynamicOverlay> engine(overlay, chan, rng);
  attach_churn(engine, driver);
  PushProtocol push;
  RunLimits limits;
  limits.record_rounds = true;
  limits.max_rounds = 60;
  return engine.run(push, NodeId{0}, limits);
}

// Dead slots (a callee may be stale) keep the rule off: with headroom the
// overlay always has them; at full capacity only the first round has none.
constexpr RoundGolden kOverlayHeadroomRounds[] = {
    {1024, 102, 0, 0, 0}, {1024, 110, 1, 0, 1}, {1024, 100, 1, 0, 1},
    {1024, 100, 3, 0, 2}, {1024, 109, 5, 0, 3}, {1024, 103, 6, 0, 4},
    {1024, 90, 11, 0, 6}, {1024, 101, 17, 0, 12}, {1024, 109, 26, 0, 21},
    {1024, 110, 47, 0, 34}, {1024, 98, 75, 0, 51}, {1024, 115, 126, 0, 78},
    {1024, 90, 201, 0, 121}, {1024, 105, 294, 0, 162},
    {1024, 94, 450, 0, 160}, {1024, 116, 579, 0, 139},
    {1024, 112, 702, 0, 110}, {1024, 99, 818, 0, 57},
    {1024, 89, 872, 0, 46}, {1024, 112, 887, 0, 13},
    {1024, 118, 891, 0, 11}, {1024, 109, 909, 0, 4}, {1024, 94, 926, 0, 2},
    {1024, 106, 915, 0, 2}, {1024, 92, 929, 0, 3}, {1024, 126, 895, 0, 3},
};
constexpr RoundGolden kOverlayFullRounds[] = {
    {1024, 102, 0, 0, 0}, {1022, 109, 1, 0, 1}, {1022, 104, 2, 0, 2},
    {1022, 105, 4, 0, 2}, {1022, 122, 5, 0, 3}, {1022, 98, 7, 0, 6},
    {1022, 98, 14, 0, 12}, {1022, 104, 22, 0, 15}, {1022, 108, 34, 0, 24},
    {1022, 89, 59, 0, 44}, {1022, 92, 100, 0, 68}, {1022, 115, 159, 0, 92},
    {1022, 100, 240, 0, 126}, {1022, 106, 343, 0, 164},
    {1022, 92, 504, 0, 156}, {1022, 118, 625, 0, 131},
    {1022, 113, 754, 0, 87}, {1022, 98, 832, 0, 58}, {1022, 97, 883, 0, 27},
    {1022, 113, 892, 0, 12}, {1022, 117, 897, 0, 7}, {1022, 110, 908, 0, 2},
    {1022, 92, 926, 0, 2}, {1022, 106, 912, 0, 3}, {1022, 81, 938, 0, 2},
    {1022, 117, 902, 0, 1}, {1022, 85, 933, 0, 3}, {1022, 105, 915, 0, 3},
};
TEST(LeanRoundGolden, ChurnedOverlayWithDeadSlots) {
  {
    SCOPED_TRACE("capacity 1200");
    const RunResult r = churned_push(1200);
    expect_rounds(r, kOverlayHeadroomRounds);
    EXPECT_EQ(r.final_informed, 1024U);
    EXPECT_EQ(r.alive_at_end, 1024U);
  }
  {
    SCOPED_TRACE("capacity 1024");
    const RunResult r = churned_push(1024);
    expect_rounds(r, kOverlayFullRounds);
    EXPECT_EQ(r.final_informed, 1022U);
    EXPECT_EQ(r.alive_at_end, 1022U);
  }
}

/// GraphTopology that counts the partner lookups the round loop makes
/// (the engine reads partners through neighbor_unchecked).
class CountingTopology {
 public:
  explicit CountingTopology(const Graph& g) : inner_(g) {}
  [[nodiscard]] NodeId num_slots() const { return inner_.num_slots(); }
  [[nodiscard]] Count num_alive() const { return inner_.num_alive(); }
  [[nodiscard]] bool is_alive(NodeId v) const { return inner_.is_alive(v); }
  [[nodiscard]] NodeId degree(NodeId v) const { return inner_.degree(v); }
  [[nodiscard]] NodeId neighbor(NodeId v, NodeId i) const {
    return inner_.neighbor(v, i);
  }
  [[nodiscard]] NodeId degree_unchecked(NodeId v) const {
    return inner_.degree_unchecked(v);
  }
  [[nodiscard]] NodeId neighbor_unchecked(NodeId v, NodeId i) const {
    ++lookups_;
    return inner_.neighbor_unchecked(v, i);
  }
  [[nodiscard]] Count lookups() const { return lookups_; }

 private:
  GraphTopology inner_;
  mutable Count lookups_ = 0;
};

/// Observer that splits the lookup count by round.
struct LookupsPerRound {
  const CountingTopology* topo = nullptr;
  Count seen = 0;
  std::vector<Count> lookups;

  void on_round_end(const RoundStats& /*stats*/,
                    std::span<const Round> /*informed_at*/) {
    lookups.push_back(topo->lookups() - seen);
    seen = topo->lookups();
  }
};

struct Counted {
  RunResult wrapped;
  RunResult plain;
  std::vector<Round> wrapped_informed_at;
  std::vector<Round> plain_informed_at;
  std::vector<Count> lookups;
};

/// Run `scheme` twice from node 7 on the same seed, once through the
/// counting wrapper and once on the bare GraphTopology.
Counted run_counted(const Graph& g, BroadcastScheme scheme,
                    double failure_prob = 0.0) {
  BroadcastOptions opt;
  opt.scheme = scheme;
  opt.failure_prob = failure_prob;
  return with_scheme(g, opt, [&](auto proto, const ChannelConfig& channel) {
    RunLimits limits;
    limits.record_rounds = true;
    Counted out;
    {
      CountingTopology topo(g);
      Rng rng(0x5eed06);
      PhoneCallEngine<CountingTopology> engine(topo, channel, rng);
      LookupsPerRound counter;
      counter.topo = &topo;
      auto copy = proto;
      out.wrapped = engine.run(copy, NodeId{7}, limits, counter);
      out.wrapped_informed_at.assign(engine.informed_at().begin(),
                                     engine.informed_at().end());
      out.lookups = counter.lookups;
    }
    {
      GraphTopology topo(g);
      Rng rng(0x5eed06);
      PhoneCallEngine<GraphTopology> engine(topo, channel, rng);
      out.plain = engine.run(proto, NodeId{7}, limits);
      out.plain_informed_at.assign(engine.informed_at().begin(),
                                   engine.informed_at().end());
    }
    return out;
  });
}

void expect_same_run(const Counted& c) {
  const RunResult& a = c.wrapped;
  const RunResult& b = c.plain;
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.push_tx, b.push_tx);
  EXPECT_EQ(a.pull_tx, b.pull_tx);
  EXPECT_EQ(a.channels_opened, b.channels_opened);
  EXPECT_EQ(a.channels_failed, b.channels_failed);
  EXPECT_EQ(a.final_informed, b.final_informed);
  ASSERT_EQ(a.per_round.size(), b.per_round.size());
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    EXPECT_EQ(a.per_round[i].channels_failed, b.per_round[i].channels_failed);
    EXPECT_EQ(a.per_round[i].push_tx, b.per_round[i].push_tx);
    EXPECT_EQ(a.per_round[i].pull_tx, b.per_round[i].pull_tx);
    EXPECT_EQ(a.per_round[i].newly_informed, b.per_round[i].newly_informed);
  }
  EXPECT_EQ(c.wrapped_informed_at, c.plain_informed_at);
}

TEST(LeanRounds, PushLooksUpOnlyThePushersPartners) {
  const Graph g = golden_graph();
  const Counted c = run_counted(g, BroadcastScheme::kPush);
  expect_same_run(c);
  ASSERT_EQ(c.lookups.size(), c.wrapped.per_round.size());
  EXPECT_EQ(c.lookups.front(), 1U);  // only the source's one channel
  // Every round, one lookup per node informed before it: the pushers.
  Count informed_before = 1;
  for (std::size_t i = 0; i < c.lookups.size(); ++i) {
    EXPECT_EQ(c.lookups[i], informed_before) << "round " << i + 1;
    informed_before = c.wrapped.per_round[i].informed;
  }
}

TEST(LeanRounds, ChannelFailuresStillSkipTheSilentCallers) {
  const Graph g = golden_graph();
  const Counted c = run_counted(g, BroadcastScheme::kPush, 0.1);
  expect_same_run(c);
  EXPECT_EQ(c.lookups.front(), 1U);
  EXPECT_GT(c.wrapped.channels_failed, 0U);
}

TEST(LeanRounds, PullAndPushPullLookUpEveryChannel) {
  const Graph g = golden_graph();
  for (const BroadcastScheme scheme :
       {BroadcastScheme::kPull, BroadcastScheme::kPushPull}) {
    SCOPED_TRACE(scheme_name(scheme));
    const Counted c = run_counted(g, scheme);
    expect_same_run(c);
    ASSERT_EQ(c.lookups.size(), c.wrapped.per_round.size());
    for (const Count lookups : c.lookups) EXPECT_EQ(lookups, 512U);
  }
}

TEST(LeanRounds, SequentialisedNeverSkips) {
  // The memory ring records every partner, so every channel is looked up
  // (and the rejection sampler looks up more).
  const Graph g = golden_graph();
  const Counted c = run_counted(g, BroadcastScheme::kSequentialised);
  expect_same_run(c);
  ASSERT_EQ(c.lookups.size(), c.wrapped.per_round.size());
  for (std::size_t i = 0; i < c.lookups.size(); ++i)
    EXPECT_GE(c.lookups[i], c.wrapped.per_round[i].channels_opened)
        << "round " << i + 1;
}

TEST(LeanRounds, WrappedRunsMatchUnwrappedForEveryScheme) {
  const Graph g = golden_graph();
  for (const BroadcastScheme scheme : kAllSchemes)
    for (const double failure_prob : {0.0, 0.1}) {
      SCOPED_TRACE(std::string(scheme_name(scheme)) +
                   " fp=" + std::to_string(failure_prob));
      const Counted c = run_counted(g, scheme, failure_prob);
      expect_same_run(c);
      Count opened = 0;
      Count lookups = 0;
      for (std::size_t i = 0; i < c.lookups.size(); ++i) {
        opened += c.wrapped.per_round[i].channels_opened;
        lookups += c.lookups[i];
      }
      if (scheme != BroadcastScheme::kSequentialised) {
        EXPECT_LE(lookups, opened);
      }
    }
}

}  // namespace
}  // namespace rrb

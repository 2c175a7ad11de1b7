#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/common/types.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/phonecall/protocol.hpp"
#include "rrb/phonecall/result.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/telemetry/telemetry.hpp"

/// \file batched_engine.hpp
/// Trial-batched execution: advance B independent trials ("lanes") over ONE
/// shared, immutable topology.
///
/// PhoneCallEngine walks the topology's CSR once per trial; a trial sweep
/// over a fixed graph therefore re-streams the same adjacency arrays from
/// memory once per trial. BatchedPhoneCallEngine::run() picks the fastest
/// kernel that models the lane group:
///  - the classical kernel (state-oblivious protocols, one reliable call per
///    round): per-lane transposed informed bitmaps small enough for L1;
///  - the bitmask kernel (every other hook-free protocol and observer,
///    uniform sampling, a fully-alive topology, <= 64 lanes): per-node lane
///    masks, one action scan and one sampling loop per round serving every
///    lane, whatever the number of calls or the channel failure rate;
///  - otherwise the sequential fallback: the lanes run one at a time on
///    PhoneCallEngine, each on its own Rng. Hooked protocols, observers with
///    hooks, quasirandom cursors, memory rings and lane groups wider than a
///    mask word all land here; no lockstep layout for them has been measured
///    to beat the sequential engine.
/// Each kernel body opens one telemetry span (batched:classic,
/// batched:bitmask, batched:sequential) with the lane count and n as args,
/// so a trace shows which rung ran.
///
/// Determinism: batching is scheduling, never semantics. Lane i runs on its
/// own Rng — the caller derives it as Rng(seed).fork(i) per the seeding
/// contract — and every kernel makes exactly the draws the sequential
/// engine makes, in the same per-lane order (rounds ascending, nodes
/// ascending within a round, channels in choice order within a node).
/// Because no lane ever observes another lane's stream, interleaving the
/// lanes is invisible: every RunResult and every observer is bit-identical
/// to a PhoneCallEngine run of the same trial (ROADMAP.md draw-order
/// invariant; pinned for all eight schemes by tests/test_batched_engine.cpp).
///
/// Scope: the topology must not change during a run — there is no round
/// hook and no churn path here (lanes advance through different logical
/// "times" of their own trials, so a shared mutating topology cannot be
/// meaningful). Structured failure models are likewise out of scope; the
/// i.i.d. ChannelConfig::failure_prob channel failures are supported and
/// drawn per lane exactly as the sequential engine draws them. Anything
/// needing hooks or failure models runs on PhoneCallEngine.

namespace rrb {

namespace detail {

/// True when the protocol type implements none of the optional per-round /
/// per-delivery hooks (on_round_start, stamp, on_receive). Such protocols
/// interact with the engine only through action() and finished(), which is
/// what lets the lockstep kernel below keep per-lane state as bitmasks
/// instead of firing per-event callbacks. Mirrors the `requires` checks in
/// PhoneCallEngine::run — a hook the sequential engine would not call is
/// also one the kernel may skip.
template <typename P>
inline constexpr bool kLaneHookFreeProtocol =
    !requires(P& p, Round t) { p.on_round_start(t); } &&
    !requires(P& p, NodeId v, Round t) { p.stamp(v, t); } &&
    !requires(P& p, NodeId v, const MessageMeta& m, Round t) {
      p.on_receive(v, m, t, true);
    };

/// True when the protocol *declares* (via a `static constexpr bool
/// kActionIgnoresState = true;` member) that action(v, state, t) depends
/// only on the round number — never on the node id or its local state.
/// All four classical baselines qualify: push/pull/push&pull answer a
/// constant, fixed-horizon push answers a function of t. With one reliable
/// call per round such protocols run on the classical kernel, which asks
/// action() once per lane per round instead of walking every (node, lane)
/// pair — the declaration is a contract, and a protocol that declares it
/// untruthfully fails the batched-vs-sequential bit-identity suite.
template <typename P>
inline constexpr bool kStateObliviousAction = requires {
  requires P::kActionIgnoresState;
};

/// True when the observer type implements none of the observer hooks the
/// engines fire (the bare NoMetrics observer, notably). The lockstep
/// kernels fire no observer hooks, so they take only such observers.
template <typename O>
inline constexpr bool kLaneHookFreeObserver =
    !requires(O& o, NodeId n, std::span<const NodeId> s) {
      o.on_run_begin(n, s);
    } && !requires(O& o, Round t) { o.on_round_begin(t); } &&
    !requires(O& o, const TransmissionEvent& e) { o.on_transmission(e); } &&
    !requires(O& o, NodeId v, Round t) { o.on_node_informed(v, t); } &&
    !requires(O& o, const RoundStats& r, std::span<const Round> ia) {
      o.on_round_end(r, ia);
    } && !requires(O& o, const RunResult& r, std::span<const Round> ia) {
      o.on_run_end(r, ia);
    };

}  // namespace detail

template <Topology TopologyT>
class BatchedPhoneCallEngine {
 public:
  /// The topology is shared by every lane and must stay immutable for the
  /// lifetime of each run(). The config applies to all lanes (a batch is a
  /// sweep of one experiment cell, which fixes the channel model).
  BatchedPhoneCallEngine(const TopologyT& topo, ChannelConfig config)
      : topo_(&topo), config_(config) {
    RRB_REQUIRE(config_.num_choices >= 1, "need at least one choice");
    RRB_REQUIRE(config_.num_choices <= 64, "choices capped at 64");
    RRB_REQUIRE(config_.memory >= 0, "memory must be >= 0");
    RRB_REQUIRE(config_.failure_prob >= 0.0 && config_.failure_prob <= 1.0,
                "failure_prob out of [0,1]");
    RRB_REQUIRE(!(config_.quasirandom && config_.memory > 0),
                "quasirandom and memory are mutually exclusive");
  }

  /// Run lane b = 0..B-1 from sources[b] with *protocols[b] on rngs[b]
  /// until every lane has terminated (per-lane protocol termination /
  /// oracle completion) or limits.max_rounds elapse. Returns the per-lane
  /// RunResults in lane order, each bit-identical to a PhoneCallEngine run
  /// of that lane.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> run(std::span<ProtocolT* const> protocols,
                             std::span<const NodeId> sources,
                             std::span<Rng> rngs, const RunLimits& limits) {
    std::vector<detail::NoMetrics> none(protocols.size());
    return run(protocols, sources, rngs, limits,
               std::span<detail::NoMetrics>(none));
  }

  /// Instrumented lanes: observers[b] receives lane b's hooks with the
  /// exact arguments the sequential engine would fire for that trial. A
  /// lane group no lockstep kernel accepts (see the file comment) runs
  /// lane by lane on PhoneCallEngine.
  template <ProtocolImpl ProtocolT, typename ObserverT>
  std::vector<RunResult> run(std::span<ProtocolT* const> protocols,
                             std::span<const NodeId> sources,
                             std::span<Rng> rngs, const RunLimits& limits,
                             std::span<ObserverT> observers);

 private:
  /// Per-node lane masks, bit b = lane b. The pull/informed pair is what a
  /// partner lookup reads (and the informed bit is what a delivery writes):
  /// packed as one 16-byte, 16-byte-aligned pair it can never straddle a
  /// cache line, so the per-channel cost of "is w pulling / is w already
  /// informed in lane b" is a single line fetch for *all* lanes — the
  /// sequential engine pays two scattered loads per channel per trial for
  /// the same questions. The push word lives in its own densely-streamed
  /// array (push_words_): the delivery sweep reads it for every node, not
  /// just call targets.
  struct alignas(16) PullInformed {
    std::uint64_t pull = 0;
    std::uint64_t informed = 0;
  };
  static_assert(sizeof(PullInformed) == 16);

  /// The lockstep fast path: hook-free protocol/observer lanes, uniform
  /// sampling (no quasirandom cursors, no memory rings), <= 64 lanes, and a
  /// fully-alive topology. Draw-for-draw identical to the sequential
  /// engine — the per-node sample loop is ChannelSampler::choose's
  /// sample_distinct_small branch inlined verbatim (any drift breaks the
  /// batched-vs-sequential bit-identity suite) — it only replaces per-lane
  /// control flow with the PullInformed/push-word bit algebra above. Lane
  /// groups the classical kernel models are handed to it first.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> run_lockstep_uniform(
      std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
      std::span<Rng> rngs, const RunLimits& limits);

  /// The classical-scheme kernel: state-oblivious protocols (push / pull /
  /// push&pull / fixed-horizon) with one reliable call per round. Lane
  /// state is a transposed bitmap — lane b's informed set is W = ceil(n/64)
  /// words, bit v = node v — so the per-delivery "is the partner informed"
  /// test and update touch a 2KB L1-resident strip instead of a node-major
  /// array scaled by the batch width, a push-only round walks exactly the
  /// informed nodes by word-skipping, and there is no per-node action scan
  /// at all (one action() call per lane fixes the round). Draw-for-draw
  /// identical to the sequential engine, like run_lockstep_uniform.
  template <ProtocolImpl ProtocolT>
  std::vector<RunResult> run_lockstep_classic(
      std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
      std::span<Rng> rngs, const RunLimits& limits);

  const TopologyT* topo_;
  ChannelConfig config_;

  // Bitmask kernel: stamp_[v * B + b] is lane b's informed round for node v
  // (kNever = uninformed), node-major so the random partner access (index
  // w) lands every lane's entry on the same cache line(s).
  std::vector<Round> stamp_;

  std::vector<std::uint64_t> push_words_;  // bitmask kernel only
  std::vector<PullInformed> pi_;           // bitmask kernel only

  // Classic kernel only: concatenated per-lane informed bitmaps
  // (live_bits_[b * W + v/64] bit v%64) and the round-start snapshot of the
  // lane currently being advanced.
  std::vector<std::uint64_t> live_bits_;
  std::vector<std::uint64_t> start_bits_;

  std::vector<Count> informed_alive_;     // per lane, incremental
  std::vector<Count> informed_;           // per lane, total ever informed
  std::vector<Count> newly_count_;        // per lane, reset each round
  std::vector<std::size_t> active_;       // lanes still running, ascending

  std::vector<NodeId> choice_buf_;  // classic kernel: per-node callee draws
};

template <Topology TopologyT>
template <ProtocolImpl ProtocolT, typename ObserverT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::run(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
    std::span<Rng> rngs, const RunLimits& limits,
    std::span<ObserverT> observers) {
  const NodeId n = topo_->num_slots();
  const std::size_t lanes = protocols.size();
  RRB_REQUIRE(n >= 1, "empty topology");
  RRB_REQUIRE(lanes >= 1, "need at least one lane");
  RRB_REQUIRE(sources.size() == lanes && rngs.size() == lanes &&
                  observers.size() == lanes,
              "per-lane spans must all have one entry per lane");

  // Hook-free lanes over a fully-alive topology with the plain uniform
  // sampler run on the lockstep kernels (same draws, bitmask state). The
  // conditions are exactly the features the kernels do not model: hooks,
  // quasirandom cursors, memory rings, dead nodes, and more lanes than a
  // mask word holds.
  if constexpr (detail::kLaneHookFreeProtocol<ProtocolT> &&
                detail::kLaneHookFreeObserver<ObserverT>) {
    if (!config_.quasirandom && config_.memory == 0 && lanes <= 64 &&
        topo_->num_alive() == n)
      return run_lockstep_uniform(protocols, sources, rngs, limits);
  }

  // Sequential fallback: each lane is one PhoneCallEngine run on its own
  // stream — the reference every kernel is pinned against.
  telemetry::Span kernel_span("batched", "batched:sequential");
  if (kernel_span.active())
    kernel_span.set_args("{\"lanes\":" + std::to_string(lanes) +
                         ",\"n\":" + std::to_string(n) + "}");
  std::vector<RunResult> results;
  results.reserve(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    RRB_REQUIRE(protocols[b] != nullptr, "null protocol lane");
    PhoneCallEngine<const TopologyT> engine(*topo_, config_, rngs[b]);
    results.push_back(
        engine.run(*protocols[b], sources[b], limits, observers[b]));
  }
  return results;
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::run_lockstep_uniform(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
    std::span<Rng> rngs, const RunLimits& limits) {
  if constexpr (detail::kStateObliviousAction<ProtocolT>) {
    if (config_.num_choices == 1 && !(config_.failure_prob > 0.0))
      return run_lockstep_classic(protocols, sources, rngs, limits);
  }

  const NodeId n = topo_->num_slots();
  const std::size_t lanes = protocols.size();

  telemetry::Span kernel_span("batched", "batched:bitmask");
  if (kernel_span.active())
    kernel_span.set_args("{\"lanes\":" + std::to_string(lanes) +
                         ",\"n\":" + std::to_string(n) + "}");

  stamp_.assign(static_cast<std::size_t>(n) * lanes, kNever);
  push_words_.assign(n, 0);
  pi_.assign(n, PullInformed{});
  informed_.assign(lanes, 0);
  informed_alive_.assign(lanes, 0);
  newly_count_.assign(lanes, 0);

  std::vector<RunResult> results(lanes);
  std::vector<RoundStats> round_stats(lanes);

  // Lanes still running, as a bitmask (eligibility capped lanes at 64).
  std::uint64_t live =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;

  for (std::size_t b = 0; b < lanes; ++b) {
    RRB_REQUIRE(protocols[b] != nullptr, "null protocol lane");
    ProtocolT& proto = *protocols[b];
    if constexpr (requires { proto.reset(n); }) proto.reset(n);
    const NodeId s = sources[b];
    RRB_REQUIRE(s < n, "source out of range");
    RRB_REQUIRE(topo_->is_alive(s), "source must be alive");
    stamp_[static_cast<std::size_t>(s) * lanes + b] = 0;
    pi_[s].informed |= std::uint64_t{1} << b;
    informed_[b] = 1;
    informed_alive_[b] = 1;
    results[b].n = n;
  }

  const auto k = static_cast<std::size_t>(config_.num_choices);
  const bool has_failure = config_.failure_prob > 0.0;
  const double fp = config_.failure_prob;
  const Count alive = topo_->num_alive();  // == n; immutable during the run

  // Every alive node opens min(k, degree) channels every round, so the
  // per-round channels_opened count is a run constant on an immutable
  // topology — computing it once removes a counter update from the hot
  // loop. (channels_failed still counts per draw.)
  Count channels_per_round = 0;
  for (NodeId v = 0; v < n; ++v)
    channels_per_round += static_cast<Count>(
        std::min<std::size_t>(k, detail::topo_degree(*topo_, v)));

  // The live lanes as a compact ascending index list: the draw loop walks
  // it without the serial ctz chain a bitmask iteration would cost per
  // lane.
  active_.resize(lanes);
  for (std::size_t b = 0; b < lanes; ++b) active_[b] = b;

  // informed_alive_[b] is maintained on exactly the increments the
  // sequential engine makes, and with every node alive it equals the stamp
  // scan its run end performs — so the result fields come out identical.
  const auto finalize = [&](std::size_t b, Round rounds) {
    RunResult& result = results[b];
    result.rounds = rounds;
    result.alive_at_end = alive;
    result.final_informed = informed_alive_[b];
    result.all_informed = alive > 0 && result.final_informed >= alive;
  };

  NodeId choices[64];  // num_choices is capped at 64 by the constructor

  Round t = 0;
  while (live != 0 && t < limits.max_rounds) {
    ++t;
    for (std::uint64_t rem = live; rem != 0; rem &= rem - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rem));
      round_stats[b] = RoundStats{};
      round_stats[b].t = t;
      newly_count_[b] = 0;
    }

    // Phase A: per-lane actions, folded into per-node push/pull masks. Only
    // lanes in which v is informed can act, so a single word test skips the
    // (initially vast) uninformed majority outright.
    std::uint64_t any_pull = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t im = pi_[v].informed & live;
      std::uint64_t push_bits = 0;
      std::uint64_t pull_bits = 0;
      if (im != 0) {
        const std::size_t base = static_cast<std::size_t>(v) * lanes;
        for (std::uint64_t rem = im; rem != 0; rem &= rem - 1) {
          const auto b = static_cast<std::size_t>(std::countr_zero(rem));
          NodeLocalState state;
          state.informed_at = stamp_[base + b];
          state.is_source = state.informed_at == 0;
          const Action a = protocols[b]->action(v, state, t);
          if (a != Action::kNone) ++round_stats[b].transmitting_nodes;
          if (does_push(a)) push_bits |= std::uint64_t{1} << b;
          if (does_pull(a)) pull_bits |= std::uint64_t{1} << b;
        }
      }
      push_words_[v] = push_bits;
      pi_[v].pull = pull_bits;
      any_pull |= pull_bits;
    }

    // Phase B: per lane, the exact per-node draw sequence of
    // ChannelSampler::choose's uniform branch (sample_distinct_small), then
    // the per-channel failure draw and delivery. A lane that neither pushes
    // from v nor pulls anywhere this round still makes all its draws — the
    // stream must advance — but skips the partner lookup entirely. Each
    // delivered channel mirrors the sequential deliver() pair: push v->w
    // first, then w's pull answer.
    const auto inform = [&](NodeId u, std::size_t b, std::uint64_t bit) {
      PullInformed& mu = pi_[u];
      if ((mu.informed & bit) != 0) return;
      mu.informed |= bit;
      stamp_[static_cast<std::size_t>(u) * lanes + b] = t;
      ++informed_alive_[b];
      ++newly_count_[b];
    };
    for (NodeId v = 0; v < n; ++v) {
      const NodeId d = detail::topo_degree(*topo_, v);
      if (d == 0) continue;  // choose() draws nothing for isolated nodes
      const std::size_t take = std::min<std::size_t>(k, d);
      const std::uint64_t push_v = push_words_[v];
      for (const std::size_t b : active_) {
        const std::uint64_t bit = std::uint64_t{1} << b;
        Rng& rng = rngs[b];
        // Inlined Rng::sample_distinct_small(d, take): rejection against
        // the already-chosen prefix, in draw order.
        for (std::size_t i = 0; i < take; ++i) {
          NodeId candidate;
          bool fresh;
          do {
            candidate = static_cast<NodeId>(rng.uniform_u64(d));
            fresh = true;
            for (std::size_t j = 0; j < i; ++j) {
              if (choices[j] == candidate) {
                fresh = false;
                break;
              }
            }
          } while (!fresh);
          choices[i] = candidate;
        }
        RoundStats& round = round_stats[b];
        const bool push_here = (push_v & bit) != 0;
        const bool lane_pulls = (any_pull & bit) != 0;
        if (!has_failure && !push_here && !lane_pulls)
          continue;  // no failure draws to make, nothing to deliver
        for (std::size_t i = 0; i < take; ++i) {
          if (has_failure && rng.bernoulli(fp)) {
            ++round.channels_failed;
            continue;
          }
          if (!push_here && !lane_pulls) continue;
          const NodeId w = detail::topo_neighbor(*topo_, v, choices[i]);
          if (push_here) {
            ++round.push_tx;
            inform(w, b, bit);
          }
          if ((pi_[w].pull & bit) != 0) {
            ++round.pull_tx;
            inform(v, b, bit);
          }
        }
      }
    }

    // Round end: identical bookkeeping and termination to the sequential
    // engine, with the active list kept as mask + index list in tandem.
    std::uint64_t next_live = live;
    std::size_t keep = 0;
    for (std::size_t bi = 0; bi < active_.size(); ++bi) {
      const std::size_t b = active_[bi];
      RoundStats& round = round_stats[b];
      RunResult& result = results[b];
      round.channels_opened = channels_per_round;
      informed_[b] += newly_count_[b];
      round.newly_informed = newly_count_[b];
      round.informed = informed_[b];
      result.push_tx += round.push_tx;
      result.pull_tx += round.pull_tx;
      result.channels_opened += round.channels_opened;
      result.channels_failed += round.channels_failed;
      if (limits.record_rounds) result.per_round.push_back(round);

      const Count informed_alive = informed_alive_[b];
      if (result.completion_round == kNever && alive > 0 &&
          informed_alive >= alive)
        result.completion_round = t;

      const bool proto_done = protocols[b]->finished(t, informed_alive, alive);
      const bool oracle_done =
          limits.stop_when_all_informed && informed_alive >= alive;
      if (proto_done || oracle_done) {
        finalize(b, t);
        next_live &= ~(std::uint64_t{1} << b);
      } else {
        active_[keep++] = b;
      }
    }
    active_.resize(keep);
    live = next_live;
  }

  for (const std::size_t b : active_) finalize(b, t);
  active_.clear();

  return results;
}

template <Topology TopologyT>
template <ProtocolImpl ProtocolT>
std::vector<RunResult> BatchedPhoneCallEngine<TopologyT>::run_lockstep_classic(
    std::span<ProtocolT* const> protocols, std::span<const NodeId> sources,
    std::span<Rng> rngs, const RunLimits& limits) {
  static_assert(detail::kStateObliviousAction<ProtocolT>);

  const NodeId n = topo_->num_slots();
  const std::size_t lanes = protocols.size();
  const std::size_t W = (static_cast<std::size_t>(n) + 63) / 64;

  telemetry::Span kernel_span("batched", "batched:classic");
  if (kernel_span.active())
    kernel_span.set_args("{\"lanes\":" + std::to_string(lanes) +
                         ",\"n\":" + std::to_string(n) + "}");

  live_bits_.assign(lanes * W, 0);
  start_bits_.assign(W, 0);
  informed_.assign(lanes, 0);
  informed_alive_.assign(lanes, 0);
  newly_count_.assign(lanes, 0);

  std::vector<RunResult> results(lanes);
  std::vector<RoundStats> round_stats(lanes);

  std::uint64_t live =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;

  for (std::size_t b = 0; b < lanes; ++b) {
    RRB_REQUIRE(protocols[b] != nullptr, "null protocol lane");
    ProtocolT& proto = *protocols[b];
    if constexpr (requires { proto.reset(n); }) proto.reset(n);
    const NodeId s = sources[b];
    RRB_REQUIRE(s < n, "source out of range");
    RRB_REQUIRE(topo_->is_alive(s), "source must be alive");
    live_bits_[b * W + (s >> 6)] |= std::uint64_t{1} << (s & 63);
    informed_[b] = 1;
    informed_alive_[b] = 1;
    results[b].n = n;
  }

  const Count alive = topo_->num_alive();  // == n; immutable during the run

  // One reliable call per alive node per round (k == 1 here), so the
  // channels_opened count is the number of non-isolated nodes — a run
  // constant on an immutable topology.
  Count channels_per_round = 0;
  for (NodeId v = 0; v < n; ++v)
    if (detail::topo_degree(*topo_, v) != 0) ++channels_per_round;

  active_.resize(lanes);
  for (std::size_t b = 0; b < lanes; ++b) active_[b] = b;

  const auto finalize = [&](std::size_t b, Round rounds) {
    RunResult& result = results[b];
    result.rounds = rounds;
    result.alive_at_end = alive;
    result.final_informed = informed_alive_[b];
    result.all_informed = alive > 0 && result.final_informed >= alive;
  };

  choice_buf_.resize(n);

  Round t = 0;
  while (live != 0 && t < limits.max_rounds) {
    ++t;
    for (const std::size_t b : active_) {
      round_stats[b] = RoundStats{};
      round_stats[b].t = t;
      newly_count_[b] = 0;
    }

    for (const std::size_t b : active_) {
      // One action() call fixes the whole round (declared contract); every
      // informed node transmits iff it is not kNone.
      NodeLocalState state;  // ignored by contract
      state.informed_at = 0;
      state.is_source = true;
      const Action a = protocols[b]->action(NodeId{0}, state, t);
      if (a != Action::kNone)
        round_stats[b].transmitting_nodes = informed_alive_[b];
      const bool pushes = does_push(a);
      const bool pulls = does_pull(a);

      // Draw sweep: every node with a neighbour draws its callee exactly as
      // ChannelSampler::choose would, whether or not anything is delivered
      // this round — the stream must advance identically.
      Rng& rng = rngs[b];
      for (NodeId v = 0; v < n; ++v) {
        const NodeId d = detail::topo_degree(*topo_, v);
        if (d == 0) continue;  // choose() draws nothing for isolated nodes
        choice_buf_[v] = static_cast<NodeId>(rng.uniform_u64(d));
      }
      if (!pushes && !pulls) continue;  // e.g. fixed-horizon past its horizon

      std::uint64_t* const lane_bits = live_bits_.data() + b * W;
      // Transmissions read the round-start informed set: a node informed
      // mid-round neither pushes nor answers pulls until the next round.
      std::copy(lane_bits, lane_bits + W, start_bits_.begin());
      RoundStats& round = round_stats[b];

      const auto inform = [&](NodeId u) {
        std::uint64_t& word = lane_bits[u >> 6];
        const std::uint64_t ubit = std::uint64_t{1} << (u & 63);
        if ((word & ubit) == 0) {
          word |= ubit;
          ++informed_alive_[b];
          ++newly_count_[b];
        }
      };

      if (pushes && !pulls) {
        // Deliveries originate only at informed nodes: walk the set bits of
        // the snapshot (node-ascending), skipping empty 64-node words —
        // early rounds touch a handful of nodes instead of all n.
        for (std::size_t wi = 0; wi < W; ++wi) {
          for (std::uint64_t rem = start_bits_[wi]; rem != 0;
               rem &= rem - 1) {
            const auto v = static_cast<NodeId>(
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(rem)));
            const NodeId d = detail::topo_degree(*topo_, v);
            if (d == 0) continue;  // opened no channel
            const NodeId w = detail::topo_neighbor(*topo_, v, choice_buf_[v]);
            ++round.push_tx;
            inform(w);
          }
        }
      } else {
        // A pulling lane delivers on every opened channel whose partner is
        // informed, so every non-isolated node's call matters.
        for (NodeId v = 0; v < n; ++v) {
          const NodeId d = detail::topo_degree(*topo_, v);
          if (d == 0) continue;  // opened no channel
          const NodeId w = detail::topo_neighbor(*topo_, v, choice_buf_[v]);
          if (pushes &&
              (start_bits_[v >> 6] >> (v & 63) & std::uint64_t{1}) != 0) {
            ++round.push_tx;
            inform(w);
          }
          if ((start_bits_[w >> 6] >> (w & 63) & std::uint64_t{1}) != 0) {
            ++round.pull_tx;
            inform(v);
          }
        }
      }
    }

    // Round end: identical bookkeeping and termination to the sequential
    // engine.
    std::uint64_t next_live = live;
    std::size_t keep = 0;
    for (std::size_t bi = 0; bi < active_.size(); ++bi) {
      const std::size_t b = active_[bi];
      RoundStats& round = round_stats[b];
      RunResult& result = results[b];
      round.channels_opened = channels_per_round;
      informed_[b] += newly_count_[b];
      round.newly_informed = newly_count_[b];
      round.informed = informed_[b];
      result.push_tx += round.push_tx;
      result.pull_tx += round.pull_tx;
      result.channels_opened += round.channels_opened;
      result.channels_failed += round.channels_failed;
      if (limits.record_rounds) result.per_round.push_back(round);

      const Count informed_alive = informed_alive_[b];
      if (result.completion_round == kNever && alive > 0 &&
          informed_alive >= alive)
        result.completion_round = t;

      const bool proto_done = protocols[b]->finished(t, informed_alive, alive);
      const bool oracle_done =
          limits.stop_when_all_informed && informed_alive >= alive;
      if (proto_done || oracle_done) {
        finalize(b, t);
        next_live &= ~(std::uint64_t{1} << b);
      } else {
        active_[keep++] = b;
      }
    }
    active_.resize(keep);
    live = next_live;
  }

  for (const std::size_t b : active_) finalize(b, t);
  active_.clear();

  return results;
}

}  // namespace rrb

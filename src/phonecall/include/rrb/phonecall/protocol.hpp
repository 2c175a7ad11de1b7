#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>

#include "rrb/common/types.hpp"

/// \file protocol.hpp
/// The address-oblivious protocol interface of the random phone call model.
///
/// A protocol decides, per informed node and per round, whether to transmit
/// over outgoing channels (push), incoming channels (pull), both, or stay
/// quiet. Address-obliviousness (§1.2) is enforced *structurally*: the
/// engine exposes no partner identities to any callback, only the node's
/// own local state (when it was informed, the current round, and whatever
/// per-node counters the protocol maintains from received message
/// metadata). The paper's "strictly oblivious" model — decisions depend
/// only on the time the node received the message — corresponds to
/// implementing action() as a pure function of (informed_at, t).
///
/// Dispatch is static: the engine's run() is a template over the
/// ProtocolImpl *concept* (any class with the non-virtual interface below),
/// so concrete protocols (PushProtocol, FourChoiceBroadcast, ...) have their
/// per-node action() calls inlined into the round loop. Every library entry
/// point reaches a concrete type this way, through with_scheme()
/// (rrb/core/scheme_dispatch.hpp). The BroadcastProtocol *virtual base*
/// plus ProtocolAdapter<P> is a type-erased convenience for callers who
/// select protocols at run time themselves (ProtocolFactory, SchemeParts);
/// BroadcastProtocol satisfies ProtocolImpl, so the same engine template
/// serves it at one virtual hop per callback.

namespace rrb {

/// What an informed node does with its channels this round.
enum class Action : std::uint8_t {
  kNone = 0,      ///< open channels but stay silent
  kPush = 1,      ///< transmit over all outgoing channels
  kPull = 2,      ///< transmit over all incoming channels
  kPushPull = 3,  ///< both directions
};

[[nodiscard]] constexpr bool does_push(Action a) {
  return a == Action::kPush || a == Action::kPushPull;
}
[[nodiscard]] constexpr bool does_pull(Action a) {
  return a == Action::kPull || a == Action::kPushPull;
}

/// Metadata attached to each transmitted copy of the message. `hops` mirrors
/// the message age bookkeeping of Karp et al.; `counter` carries the
/// median-counter state of that termination mechanism. Both are visible to
/// the receiving node only — never the sender identity.
struct MessageMeta {
  std::int32_t hops = 0;
  std::int32_t counter = 0;
};

/// Local, address-oblivious view of one node.
struct NodeLocalState {
  Round informed_at = kNever;  ///< round the node first received M (0 = source)
  bool is_source = false;
};

/// The statically-dispatched protocol interface the engine's round loop is
/// templated over. Mandatory: action(), finished(), name(). Optional hooks
/// — reset(n), on_round_start(t), stamp(v, t), on_receive(v, meta, t,
/// first) — are detected per protocol with `requires` and cost nothing when
/// absent.
template <typename P>
concept ProtocolImpl =
    requires(P& p, const P& cp, NodeId v, const NodeLocalState& s, Round t,
             Count c) {
      { p.action(v, s, t) } -> std::same_as<Action>;
      { cp.finished(t, c, c) } -> std::convertible_to<bool>;
      { cp.name() } -> std::convertible_to<const char*>;
    };

/// Base class for broadcast protocols driven by PhoneCallEngine.
///
/// Lifecycle per run: reset(n) once, then for each round t = 1, 2, ...:
/// on_round_start(t); action(v, ...) for every informed alive node;
/// stamp(v, t) whenever v transmits; on_receive(w, ...) for every delivered
/// copy; finished(...) once at the end of the round.
class BroadcastProtocol {
 public:
  virtual ~BroadcastProtocol();

  BroadcastProtocol() = default;
  BroadcastProtocol(const BroadcastProtocol&) = delete;
  BroadcastProtocol& operator=(const BroadcastProtocol&) = delete;

  /// Prepare per-node state for a run over n node slots.
  virtual void reset(NodeId n);

  /// Called once at the beginning of each round.
  virtual void on_round_start(Round t);

  /// Decide what node v does this round. Called only for informed, alive
  /// nodes. Must not depend on anything but v's local state.
  [[nodiscard]] virtual Action action(NodeId v, const NodeLocalState& state,
                                      Round t) = 0;

  /// Metadata the sender attaches to each copy it transmits this round.
  [[nodiscard]] virtual MessageMeta stamp(NodeId v, Round t);

  /// Called for every copy delivered to node v (duplicates included).
  /// first_time is true for the first copy an uninformed node receives.
  virtual void on_receive(NodeId v, const MessageMeta& meta, Round t,
                          bool first_time);

  /// Whether the protocol's own termination condition has triggered. The
  /// engine stops after the first round for which this returns true.
  [[nodiscard]] virtual bool finished(Round t, Count informed,
                                      Count alive) const = 0;

  /// Human-readable protocol name for reports.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Thin virtual adapter: presents a statically-dispatched protocol P as a
/// BroadcastProtocol for type-erased users (factories, SchemeParts). The
/// cost is one virtual hop per callback — exactly what the engine's
/// templated run() avoids when handed the concrete P directly.
template <ProtocolImpl P>
class ProtocolAdapter final : public BroadcastProtocol {
 public:
  template <typename... Args>
    requires std::constructible_from<P, Args...>
  explicit ProtocolAdapter(Args&&... args)
      : inner_(std::forward<Args>(args)...) {}

  void reset(NodeId n) override {
    if constexpr (requires { inner_.reset(n); }) inner_.reset(n);
  }
  void on_round_start(Round t) override {
    if constexpr (requires { inner_.on_round_start(t); })
      inner_.on_round_start(t);
  }
  [[nodiscard]] Action action(NodeId v, const NodeLocalState& state,
                              Round t) override {
    return inner_.action(v, state, t);
  }
  [[nodiscard]] MessageMeta stamp(NodeId v, Round t) override {
    if constexpr (requires { inner_.stamp(v, t); })
      return inner_.stamp(v, t);
    else
      return MessageMeta{};
  }
  void on_receive(NodeId v, const MessageMeta& meta, Round t,
                  bool first_time) override {
    if constexpr (requires { inner_.on_receive(v, meta, t, first_time); })
      inner_.on_receive(v, meta, t, first_time);
  }
  [[nodiscard]] bool finished(Round t, Count informed,
                              Count alive) const override {
    return inner_.finished(t, informed, alive);
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  [[nodiscard]] P& inner() { return inner_; }
  [[nodiscard]] const P& inner() const { return inner_; }

 private:
  P inner_;
};

/// Build an adapted protocol as a type-erased handle:
/// `make_protocol<PushProtocol>()`, `make_protocol<FourChoiceBroadcast>(cfg)`.
template <typename P, typename... Args>
[[nodiscard]] std::unique_ptr<BroadcastProtocol> make_protocol(
    Args&&... args) {
  return std::make_unique<ProtocolAdapter<P>>(std::forward<Args>(args)...);
}

}  // namespace rrb

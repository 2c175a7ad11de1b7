#pragma once

#include <cstdint>

/// \file types.hpp
/// Fundamental value types shared by every rrbcast module.

namespace rrb {

/// Index of a vertex in a graph or overlay. 32 bits is enough for the
/// laptop-scale instances this library targets (n <= 2^31).
using NodeId = std::uint32_t;

/// Largest node count any graph, generator or spec accepts (n <= 2^31).
inline constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 31;

/// A synchronous round of the phone call model. Rounds start at 1 to match
/// the paper's convention that the message is created at time step 0.
using Round = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Sentinel round for "never happened / not yet".
inline constexpr Round kNever = -1;

/// Count of events (transmissions, channels, ...).
using Count = std::uint64_t;

}  // namespace rrb

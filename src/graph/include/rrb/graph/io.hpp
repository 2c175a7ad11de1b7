#pragma once

#include <iosfwd>
#include <string>

#include "rrb/graph/graph.hpp"

/// \file io.hpp
/// Plain-text edge-list serialisation, so experiment topologies can be
/// saved, diffed and re-loaded (e.g. to replay a broadcast on the exact
/// graph a failure was observed on).
///
/// Format:
///   # comments and blank lines are ignored
///   n <num_nodes>    decimal, at most kMaxNodes (2^31)
///   <u> <v>          one edge per line; duplicates = parallel edges,
///                    u == v = self-loop
/// Node count must precede edges; endpoints must be < n.

namespace rrb {

/// Serialise a graph to the stream. Writes a canonical edge list
/// (u <= v, sorted), so equal graphs serialise identically.
void write_edge_list(std::ostream& os, const Graph& g);

/// Parse a graph from the stream. Throws std::runtime_error on malformed
/// input (missing header, a node count that is not a decimal at most
/// kMaxNodes, out-of-range endpoints, trailing garbage).
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Convenience round-trips through std::string.
[[nodiscard]] std::string to_edge_list_string(const Graph& g);
[[nodiscard]] Graph from_edge_list_string(const std::string& text);

}  // namespace rrb

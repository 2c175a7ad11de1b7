#include "rrb/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace rrb {

namespace {

/// Pack an unordered node pair into a 64-bit key (canonical order).
[[nodiscard]] std::uint64_t pair_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Node counts combine in 64-bit and must land back in the NodeId range
/// (n <= 2^31, types.hpp) before a GraphBuilder is sized with them.
[[nodiscard]] NodeId checked_node_count(std::uint64_t n, const char* what) {
  RRB_REQUIRE(n <= kMaxNodes,
              std::string(what) + ": node count exceeds NodeId range");
  return static_cast<NodeId>(n);
}

}  // namespace

Graph configuration_model(NodeId n, NodeId d, Rng& rng) {
  RRB_REQUIRE(n >= 2, "configuration_model: n >= 2");
  RRB_REQUIRE(d >= 1, "configuration_model: d >= 1");
  RRB_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0,
              "configuration_model: n*d must be even");

  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;
  std::vector<NodeId> stubs(num_stubs);
  for (std::uint64_t s = 0; s < num_stubs; ++s)
    stubs[s] = static_cast<NodeId>(s / d);
  rng.shuffle(std::span<NodeId>(stubs));

  std::vector<Edge> edges;
  edges.reserve(num_stubs / 2);
  for (std::uint64_t s = 0; s + 1 < num_stubs; s += 2)
    edges.push_back(Edge{stubs[s], stubs[s + 1]});
  return Graph::from_edges(n, edges);
}

Graph random_regular_simple(NodeId n, NodeId d, Rng& rng) {
  RRB_REQUIRE(n >= d + 1, "random_regular_simple: need n >= d+1");
  RRB_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0,
              "random_regular_simple: n*d must be even");

  constexpr int kMaxRestarts = 64;
  for (int restart = 0; restart < kMaxRestarts; ++restart) {
    // Draw a configuration-model multigraph, then repair defects by random
    // edge switches.
    const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;
    std::vector<NodeId> stubs(num_stubs);
    for (std::uint64_t s = 0; s < num_stubs; ++s)
      stubs[s] = static_cast<NodeId>(s / d);
    rng.shuffle(std::span<NodeId>(stubs));

    std::vector<Edge> edges(num_stubs / 2);
    std::unordered_map<std::uint64_t, NodeId> multiplicity;
    multiplicity.reserve(edges.size() * 2);
    for (std::uint64_t s = 0; s + 1 < num_stubs; s += 2) {
      edges[s / 2] = Edge{stubs[s], stubs[s + 1]};
      ++multiplicity[pair_key(stubs[s], stubs[s + 1])];
    }

    auto is_defective = [&](const Edge& e) {
      return e.u == e.v || multiplicity[pair_key(e.u, e.v)] > 1;
    };

    // Iterate until defect-free. Each pass scans for defective edges and
    // attempts random switches; the expected number of defects is O(d^2),
    // so this terminates almost immediately for all practical parameters.
    const std::uint64_t max_switch_attempts = 200 * (num_stubs + 64);
    std::uint64_t attempts = 0;
    bool clean = false;
    while (attempts < max_switch_attempts) {
      std::vector<std::size_t> defects;
      for (std::size_t i = 0; i < edges.size(); ++i)
        if (is_defective(edges[i])) defects.push_back(i);
      if (defects.empty()) {
        clean = true;
        break;
      }
      for (const std::size_t i : defects) {
        if (!is_defective(edges[i])) continue;  // fixed by an earlier switch
        bool fixed = false;
        for (int tries = 0; tries < 64 && !fixed; ++tries) {
          ++attempts;
          const std::size_t j =
              static_cast<std::size_t>(rng.uniform_u64(edges.size()));
          if (j == i) continue;
          Edge a = edges[i];
          Edge b = edges[j];
          // Random orientation of the 2-switch.
          if (rng.bernoulli(0.5)) std::swap(b.u, b.v);
          const Edge na{a.u, b.u};
          const Edge nb{a.v, b.v};
          if (na.u == na.v || nb.u == nb.v) continue;
          const auto key_na = pair_key(na.u, na.v);
          const auto key_nb = pair_key(nb.u, nb.v);
          if (multiplicity[key_na] > 0 || multiplicity[key_nb] > 0) continue;
          if (key_na == key_nb) continue;  // would create a parallel pair
          // Commit the switch.
          auto drop = [&](const Edge& e) {
            auto it = multiplicity.find(pair_key(e.u, e.v));
            RRB_ASSERT(it != multiplicity.end() && it->second > 0,
                       "switch bookkeeping");
            --it->second;
          };
          drop(edges[i]);
          drop(edges[j]);
          ++multiplicity[key_na];
          ++multiplicity[key_nb];
          edges[i] = na;
          edges[j] = nb;
          fixed = true;
        }
        if (!fixed) break;  // rescan and retry from a fresh defect list
      }
    }
    if (clean) {
      Graph g = Graph::from_edges(n, edges);
      RRB_ASSERT(g.is_simple(), "repair left a non-simple graph");
      RRB_ASSERT(g.regular_degree() == d, "repair broke regularity");
      return g;
    }
  }
  throw std::runtime_error(
      "random_regular_simple: switching repair failed; parameters too tight");
}

Graph gnp(NodeId n, double p, Rng& rng) {
  RRB_REQUIRE(p >= 0.0 && p <= 1.0, "gnp: p out of [0,1]");
  GraphBuilder builder(n);
  if (p <= 0.0 || n < 2) return builder.build();
  if (p >= 1.0) return complete(n);

  // Geometric skipping over the n*(n-1)/2 potential edges in row-major
  // order of pairs (u < v).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = 0;
  auto pair_of = [n](std::uint64_t k) {
    // Invert k = u*n - u*(u+1)/2 + (v - u - 1). Linear scan per row is too
    // slow; use the closed form via quadratic formula.
    const double nn = static_cast<double>(n);
    double uf = std::floor(
        ((2.0 * nn - 1.0) -
         std::sqrt((2.0 * nn - 1.0) * (2.0 * nn - 1.0) - 8.0 * static_cast<double>(k))) /
        2.0);
    auto u = static_cast<std::uint64_t>(uf);
    // Guard against floating point edge error.
    auto row_start = [n](std::uint64_t r) {
      return r * n - r * (r + 1) / 2;
    };
    while (u > 0 && row_start(u) > k) --u;
    while (row_start(u + 1) <= k) ++u;
    const std::uint64_t v = u + 1 + (k - row_start(u));
    return Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)};
  };
  while (true) {
    // Geometric(p) skip: floor(log(1-r)/log(1-p)) potential edges are absent
    // before the next present one.
    const double r = rng.uniform_double();
    const double s = std::floor(std::log(1.0 - r) / log1mp);
    idx += static_cast<std::uint64_t>(s);
    if (idx >= total) break;
    const Edge e = pair_of(idx);
    builder.add_edge(e.u, e.v);
    ++idx;
  }
  return builder.build();
}

Graph complete(NodeId n) {
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) builder.add_edge(u, v);
  return builder.build();
}

Graph complete_bipartite(NodeId a, NodeId b) {
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(a) + b, "complete_bipartite"));
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) builder.add_edge(u, a + v);
  return builder.build();
}

Graph cycle(NodeId n) {
  RRB_REQUIRE(n >= 3, "cycle: n >= 3");
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) builder.add_edge(v, (v + 1) % n);
  return builder.build();
}

Graph path(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

Graph star(NodeId n) {
  RRB_REQUIRE(n >= 1, "star: n >= 1");
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.add_edge(0, v);
  return builder.build();
}

Graph hypercube(int dim) {
  RRB_REQUIRE(dim >= 0 && dim < 31, "hypercube: 0 <= dim < 31");
  const NodeId n = static_cast<NodeId>(1) << dim;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v)
    for (int b = 0; b < dim; ++b) {
      const NodeId w = v ^ (static_cast<NodeId>(1) << b);
      if (v < w) builder.add_edge(v, w);
    }
  return builder.build();
}

Graph torus(NodeId rows, NodeId cols) {
  RRB_REQUIRE(rows >= 3 && cols >= 3, "torus: dims >= 3");
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(rows) * cols, "torus"));
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r)
    for (NodeId c = 0; c < cols; ++c) {
      builder.add_edge(id(r, c), id(r, (c + 1) % cols));
      builder.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  return builder.build();
}

Graph cartesian_product(const Graph& g, const Graph& h) {
  const NodeId gn = g.num_nodes();
  const NodeId hn = h.num_nodes();
  RRB_REQUIRE(gn > 0 && hn > 0, "cartesian_product: empty factor");
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(gn) * hn, "cartesian_product"));
  auto id = [hn](NodeId u, NodeId i) { return u * hn + i; };
  for (const Edge& e : g.edge_list())
    for (NodeId i = 0; i < hn; ++i) builder.add_edge(id(e.u, i), id(e.v, i));
  for (const Edge& e : h.edge_list())
    for (NodeId u = 0; u < gn; ++u) builder.add_edge(id(u, e.u), id(u, e.v));
  return builder.build();
}

Graph disjoint_union(const Graph& g, const Graph& h) {
  const NodeId gn = g.num_nodes();
  GraphBuilder builder(checked_node_count(
      static_cast<std::uint64_t>(gn) + h.num_nodes(), "disjoint_union"));
  for (const Edge& e : g.edge_list()) builder.add_edge(e.u, e.v);
  for (const Edge& e : h.edge_list()) builder.add_edge(gn + e.u, gn + e.v);
  return builder.build();
}

Graph preferential_attachment(NodeId n, NodeId m, Rng& rng) {
  RRB_REQUIRE(m >= 1, "preferential_attachment: m >= 1");
  RRB_REQUIRE(n >= m + 1, "preferential_attachment: n >= m+1");

  // Flat endpoint list: every edge contributes both endpoints, so sampling
  // a uniform entry is degree-proportional sampling.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (static_cast<std::size_t>(n) * m));
  GraphBuilder builder(n);

  // Seed clique on m+1 nodes.
  for (NodeId u = 0; u <= m; ++u)
    for (NodeId v = u + 1; v <= m; ++v) {
      builder.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }

  std::vector<NodeId> targets;
  targets.reserve(m);
  for (NodeId v = m + 1; v < n; ++v) {
    // Choose m distinct degree-proportional targets by rejection.
    targets.clear();
    int guard = 0;
    while (targets.size() < m && guard < 200) {
      ++guard;
      const NodeId pick = endpoints[static_cast<std::size_t>(
          rng.uniform_u64(endpoints.size()))];
      bool duplicate = false;
      for (const NodeId t : targets)
        if (t == pick) duplicate = true;
      if (!duplicate) targets.push_back(pick);
    }
    // Pathological duplication (possible only for tiny graphs): fall back
    // to uniform distinct targets.
    while (targets.size() < m) {
      const auto pick = static_cast<NodeId>(rng.uniform_u64(v));
      bool duplicate = false;
      for (const NodeId t : targets)
        if (t == pick) duplicate = true;
      if (!duplicate) targets.push_back(pick);
    }
    for (const NodeId t : targets) {
      builder.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return builder.build();
}

}  // namespace rrb

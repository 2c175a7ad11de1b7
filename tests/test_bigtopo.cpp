#include "rrb/bigtopo/bigtopo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rrb/core/broadcast.hpp"
#include "rrb/graph/graph.hpp"
#include "rrb/parallel/runner.hpp"
#include "rrb/rng/rng.hpp"

namespace rrb::bigtopo {
namespace {

/// FNV-1a over the full CSR (node count, then each node's degree and
/// sorted neighbour list). Two graphs with equal digests here are
/// byte-identical for every consumer in the library — Graph exposes no
/// state beyond what this walks.
std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    mix(g.degree(v));
    for (const NodeId w : g.neighbors(v)) mix(w);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Canonical chunk grid
// ---------------------------------------------------------------------------

TEST(BigtopoChunks, CanonicalGridCoversNodeRange) {
  EXPECT_EQ(num_canonical_chunks(2), 1U);
  EXPECT_EQ(num_canonical_chunks(kChunkNodes), 1U);
  EXPECT_EQ(num_canonical_chunks(kChunkNodes + 1), 2U);
  EXPECT_EQ(num_canonical_chunks(3 * kChunkNodes), 3U);

  const NodeId n = 2 * kChunkNodes + 123;
  ASSERT_EQ(num_canonical_chunks(n), 3U);
  NodeId covered = 0;
  for (NodeId c = 0; c < 3; ++c) {
    const ChunkRange range = canonical_chunk_range(n, c);
    EXPECT_EQ(range.begin, covered);
    EXPECT_LE(range.end, n);
    covered = range.end;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(canonical_chunk_range(n, 2).end - canonical_chunk_range(n, 2).begin,
            123U);
  EXPECT_THROW((void)canonical_chunk_range(n, 3), std::logic_error);
}

// Chunk-seed goldens, test_rng.cpp style: the chunk contract is
// chunk_seed == derive_seed, and the literal values are pinned so a silent
// change to derive_seed (which would invalidate every chunked graph) fails
// loudly here rather than only in downstream digests.
TEST(BigtopoChunks, ChunkSeedGoldenValues) {
  EXPECT_EQ(chunk_seed(0x5eed, 0), 0xbfd2167601e91816ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 1), 0x61e8b5651d7d8438ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 2), 0x634daa10c43a7c34ULL);
  EXPECT_EQ(chunk_seed(0x5eed, 17), 0x63ed03ebb89139c1ULL);
  EXPECT_EQ(chunk_seed(0, 0), 0x68bcc37221b020bbULL);

  for (std::uint64_t c : {0ULL, 1ULL, 5ULL, 1000ULL})
    EXPECT_EQ(chunk_seed(0xabcdef, c), derive_seed(0xabcdef, c));
}

// ---------------------------------------------------------------------------
// StubPermutation
// ---------------------------------------------------------------------------

TEST(BigtopoPermutation, BijectiveOnAssortedDomains) {
  for (const std::uint64_t domain :
       {2ULL, 3ULL, 10ULL, 97ULL, 1024ULL, 1000ULL, 16389ULL}) {
    for (const std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL}) {
      const StubPermutation perm(seed, domain);
      EXPECT_EQ(perm.domain(), domain);
      std::set<std::uint64_t> images;
      for (std::uint64_t x = 0; x < domain; ++x) {
        const std::uint64_t y = perm.forward(x);
        ASSERT_LT(y, domain);
        images.insert(y);
        ASSERT_EQ(perm.inverse(y), x);
      }
      EXPECT_EQ(images.size(), domain);  // injective + total = bijective
    }
  }
}

// inverse_range walks many positions in interleaved lanes; every value
// must be exactly inverse()'s, across tile boundaries and partial lanes.
TEST(BigtopoPermutation, InverseRangeMatchesInverse) {
  for (const std::uint64_t domain : {2ULL, 3ULL, 97ULL, 1000ULL, 16389ULL}) {
    const StubPermutation perm(0x5eed, domain);
    for (const std::uint64_t first :
         {std::uint64_t{0}, std::uint64_t{1}, domain / 3}) {
      std::vector<std::uint64_t> out(domain - first);
      perm.inverse_range(first, out);
      for (std::uint64_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], perm.inverse(first + i)) << domain << " " << first;
    }
    std::vector<std::uint64_t> none;
    perm.inverse_range(domain, none);  // an empty range at the end is fine
    std::vector<std::uint64_t> past(2);
    EXPECT_THROW(perm.inverse_range(domain - 1, past), std::logic_error);
  }
}

TEST(BigtopoPermutation, SeedChangesThePermutation) {
  const StubPermutation a(1, 4096);
  const StubPermutation b(2, 4096);
  int differing = 0;
  for (std::uint64_t x = 0; x < 4096; ++x)
    if (a.forward(x) != b.forward(x)) ++differing;
  EXPECT_GT(differing, 4096 / 2);
}

TEST(BigtopoPermutation, RejectsOutOfDomainAndTrivialDomains) {
  EXPECT_THROW(StubPermutation(7, 0), std::logic_error);
  EXPECT_THROW(StubPermutation(7, 1), std::logic_error);
  const StubPermutation perm(7, 100);
  EXPECT_THROW((void)perm.forward(100), std::logic_error);
  EXPECT_THROW((void)perm.inverse(100), std::logic_error);
}

// ---------------------------------------------------------------------------
// chunked_configuration_model
// ---------------------------------------------------------------------------

TEST(BigtopoConfigModel, ExactRegularMultigraphSemantics) {
  const Graph g = chunked_configuration_model({.n = 2048, .d = 4, .seed = 9});
  EXPECT_EQ(g.num_nodes(), 2048U);
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 4U);
  EXPECT_EQ(g.num_edges(), 2048U * 4 / 2);
}

// The compact slot-addressed build must equal the reference edge-list path:
// pair the stubs with the same PRP, round-trip through from_edges, and
// compare bytes. This chains the chunked generator to the library's
// canonical CSR construction.
TEST(BigtopoConfigModel, MatchesEdgeListPairingReference) {
  const ChunkedParams params{.n = 64, .d = 3, .seed = 0x5eed};
  const std::uint64_t stubs =
      static_cast<std::uint64_t>(params.n) * params.d;
  const StubPermutation perm(
      derive_seed(params.seed, hash_string("bigtopo/pairing")), stubs);

  std::vector<Edge> edges;
  for (std::uint64_t s = 0; s < stubs; ++s) {
    const std::uint64_t partner = perm.inverse(perm.forward(s) ^ 1);
    if (s < partner)
      edges.push_back({static_cast<NodeId>(s / params.d),
                       static_cast<NodeId>(partner / params.d)});
  }
  ASSERT_EQ(edges.size(), stubs / 2);

  const Graph reference = Graph::from_edges(params.n, edges);
  const Graph chunked = chunked_configuration_model(params);
  EXPECT_EQ(graph_digest(chunked), graph_digest(reference));
  EXPECT_EQ(chunked.num_self_loops(), reference.num_self_loops());
  EXPECT_EQ(chunked.num_parallel_extra(), reference.num_parallel_extra());
}

// Golden digest: the full CSR of a fixed (n, d, seed) is pinned. Any change
// to the PRP, the chunk grid, or the pairing rule shows up here.
constexpr ChunkedParams kConfigGolden{.n = 4096, .d = 6, .seed = 0xb16};
constexpr std::uint64_t kConfigGoldenDigest = 0x98a5bd1ec21e18c5ULL;

TEST(BigtopoConfigModel, GoldenDigest) {
  const Graph g = chunked_configuration_model(kConfigGolden);
  EXPECT_EQ(graph_digest(g), kConfigGoldenDigest);
}

TEST(BigtopoConfigModel, RejectsInvalidParameters) {
  EXPECT_THROW((void)chunked_configuration_model({.n = 0, .d = 2, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_configuration_model({.n = 1, .d = 2, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_configuration_model({.n = 16, .d = 0, .seed = 1}),
               std::logic_error);
  // n*d odd: no perfect matching on the stubs.
  EXPECT_THROW((void)chunked_configuration_model({.n = 15, .d = 3, .seed = 1}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// chunked_random_out
// ---------------------------------------------------------------------------

TEST(BigtopoRandomOut, DegreeAndLoopInvariants) {
  const Graph g = chunked_random_out({.n = 2048, .d = 3, .seed = 11});
  EXPECT_EQ(g.num_nodes(), 2048U);
  EXPECT_EQ(g.num_self_loops(), 0U);   // partner draw excludes self
  EXPECT_GE(g.min_degree(), 3U);       // d out-links + in-degree
  EXPECT_EQ(g.num_edges(), 2048U * 3); // one edge per out-link
}

TEST(BigtopoRandomOut, ByteIdenticalForEveryChunkCountAndOrder) {
  const ChunkedParams params{.n = 2 * kChunkNodes + 123, .d = 3,
                             .seed = 0xb17};
  const std::uint64_t reference = graph_digest(chunked_random_out(params));
  std::vector<NodeId> order(num_canonical_chunks(params.n));
  std::iota(order.begin(), order.end(), NodeId{0});
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(graph_digest(chunked_random_out(params, order)), reference);
}

// Chain the two-pass in-place build to the reference edge-list path: replay
// the same per-chunk Rng streams into from_edges and compare bytes.
TEST(BigtopoRandomOut, MatchesChunkStreamReference) {
  const ChunkedParams params{.n = kChunkNodes + 100, .d = 2, .seed = 0x77};
  std::vector<Edge> edges;
  for (NodeId c = 0; c < num_canonical_chunks(params.n); ++c) {
    const ChunkRange range = canonical_chunk_range(params.n, c);
    Rng rng(chunk_seed(params.seed, c));
    for (NodeId v = range.begin; v < range.end; ++v)
      for (NodeId j = 0; j < params.d; ++j) {
        auto t = static_cast<NodeId>(rng.uniform_u64(params.n - 1));
        if (t >= v) ++t;
        edges.push_back({v, t});
      }
  }
  const Graph reference = Graph::from_edges(params.n, edges);
  EXPECT_EQ(graph_digest(chunked_random_out(params)),
            graph_digest(reference));
}

constexpr ChunkedParams kOutGolden{.n = 4096, .d = 5, .seed = 0xb17};
constexpr std::uint64_t kOutGoldenDigest = 0x6d50e6b9b2497932ULL;

TEST(BigtopoRandomOut, GoldenDigest) {
  const Graph g = chunked_random_out(kOutGolden);
  EXPECT_EQ(graph_digest(g), kOutGoldenDigest);
}

TEST(BigtopoRandomOut, RejectsInvalidParameters) {
  EXPECT_THROW((void)chunked_random_out({.n = 16, .d = 16, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_random_out({.n = 0, .d = 1, .seed = 1}),
               std::logic_error);
  EXPECT_THROW((void)chunked_random_out({.n = 16, .d = 0, .seed = 1}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Thread axis: the worker count is scheduling, never semantics
// ---------------------------------------------------------------------------

/// `params` at `threads` workers.
ChunkedParams at_threads(ChunkedParams params, int threads) {
  params.threads = threads;
  return params;
}

// The golden graphs fit in one fill block and one chunk, so the axis also
// runs on graphs of several fill blocks, sort blocks and chunks. Their
// digests were captured from the sequential per-stub fill
// (inverse(forward(s) ^ 1)) that the position walk replaced.
constexpr ChunkedParams kConfigBlocks{.n = 3 * kChunkNodes + 7, .d = 6,
                                      .seed = 0xb16};
constexpr std::uint64_t kConfigBlocksDigest = 0xf756d67d5ac65512ULL;
constexpr ChunkedParams kOutChunks{.n = 3 * kChunkNodes + 7, .d = 3,
                                   .seed = 0xb17};
constexpr std::uint64_t kOutChunksDigest = 0x9bc5cf59db9a06f9ULL;

TEST(BigtopoThreads, ConfigModelGoldenForEveryThreadCount) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(graph_digest(chunked_configuration_model(
                  at_threads(kConfigGolden, threads))),
              kConfigGoldenDigest);
    EXPECT_EQ(graph_digest(chunked_configuration_model(
                  at_threads(kConfigBlocks, threads))),
              kConfigBlocksDigest);
  }
}

TEST(BigtopoThreads, RandomOutGoldenForEveryThreadCountAndOrder) {
  std::vector<NodeId> reversed(num_canonical_chunks(kOutChunks.n));
  std::iota(reversed.begin(), reversed.end(), NodeId{0});
  std::reverse(reversed.begin(), reversed.end());
  // A deterministic shuffle (Rng, not std::shuffle — platform-pinned).
  std::vector<NodeId> shuffled = reversed;
  Rng rng(42);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(i)]);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(graph_digest(chunked_random_out(at_threads(kOutGolden, threads))),
              kOutGoldenDigest);
    const ChunkedParams params = at_threads(kOutChunks, threads);
    EXPECT_EQ(graph_digest(chunked_random_out(params)), kOutChunksDigest);
    EXPECT_EQ(graph_digest(chunked_random_out(params, reversed)),
              kOutChunksDigest);
    EXPECT_EQ(graph_digest(chunked_random_out(params, shuffled)),
              kOutChunksDigest);
  }
}

TEST(BigtopoThreads, RejectsNegativeThreads) {
  EXPECT_THROW((void)chunked_configuration_model(at_threads(kConfigGolden, -1)),
               std::logic_error);
  EXPECT_THROW((void)chunked_random_out(at_threads(kOutGolden, -1)),
               std::logic_error);
}

// A generator called from a parallel trial must not start a pool of its
// own: for_each_trial inside a pool worker runs inline on that worker, so
// four workers each generating with threads = 4 still run at most four
// bodies at a time.
TEST(BigtopoThreads, NestedPoolRunsInlineOnItsWorker) {
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<int> inner_calls{0};
  const ParallelRunner outer(RunnerConfig{.threads = 4});
  outer.for_each_trial(8, [&](int) {
    const ParallelRunner inner(RunnerConfig{.threads = 4});
    EXPECT_EQ(inner.workers_for(16), 1);
    inner.for_each_trial(16, [&](int) {
      const int now = active.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      active.fetch_sub(1);
      inner_calls.fetch_add(1);
    });
    // The generators take the same path: a nested call is byte-identical.
    EXPECT_EQ(graph_digest(chunked_configuration_model(
                  at_threads(kConfigGolden, 4))),
              kConfigGoldenDigest);
  });
  EXPECT_EQ(inner_calls.load(), 8 * 16);
  EXPECT_LE(peak.load(), 4);
  EXPECT_GE(peak.load(), 1);
}

// ---------------------------------------------------------------------------
// Memory estimates and budget enforcement
// ---------------------------------------------------------------------------

TEST(BigtopoBudget, EstimatesAreTheCsrFootprint) {
  // offsets: 8*(n+1) bytes; adjacency: 4 bytes per entry.
  EXPECT_EQ(estimate_configuration_model_bytes(1000, 4),
            8 * 1001ULL + 4 * 4000ULL);
  EXPECT_EQ(estimate_random_out_bytes(1000, 4), 8 * 1001ULL + 4 * 8000ULL);
}

TEST(BigtopoBudget, GuardsNodeIdRangeAtLargeN) {
  // 2^31 nodes is the supported ceiling (NodeId addressing); one past it
  // must be refused before any allocation happens.
  const auto too_many = static_cast<NodeId>((std::uint64_t{1} << 31) + 1);
  EXPECT_THROW((void)estimate_configuration_model_bytes(too_many, 3),
               std::logic_error);
  EXPECT_THROW((void)estimate_random_out_bytes(too_many, 3),
               std::logic_error);
  EXPECT_NO_THROW(
      (void)estimate_configuration_model_bytes(1 << 20, 8));
}

TEST(BigtopoBudget, RefusesGenerationOverBudget) {
  ChunkedParams params{.n = 4096, .d = 8, .seed = 3};
  params.memory_budget_bytes = 1;  // nothing fits in one byte
  EXPECT_THROW((void)chunked_configuration_model(params), std::logic_error);
  EXPECT_THROW((void)chunked_random_out(params), std::logic_error);

  params.memory_budget_bytes =
      estimate_random_out_bytes(params.n, params.d);
  EXPECT_NO_THROW((void)chunked_random_out(params));
  params.memory_budget_bytes = 0;  // 0 disables the check
  EXPECT_NO_THROW((void)chunked_configuration_model(params));
}

// ---------------------------------------------------------------------------
// End-to-end: chunked graphs are plain Graphs for every broadcast scheme
// ---------------------------------------------------------------------------

TEST(BigtopoBroadcast, AllSchemesCompleteOnChunkedGraph) {
  const Graph g =
      chunked_configuration_model({.n = 1024, .d = 8, .seed = 0xabc});
  for (const BroadcastScheme scheme : kAllSchemes) {
    BroadcastOptions options;
    options.scheme = scheme;
    options.seed = 0x5eed;
    const RunResult result = broadcast(g, 0, options);
    EXPECT_EQ(result.final_informed, g.num_nodes())
        << scheme_name(scheme);
    EXPECT_GT(result.rounds, 0U) << scheme_name(scheme);
  }
}

// ---------------------------------------------------------------------------
// Million-node invariants (slow label)
// ---------------------------------------------------------------------------

TEST(BigtopoSlow, MillionNodeConfigurationModelInvariants) {
  const NodeId n = 1'000'000;
  const Graph g = chunked_configuration_model({.n = n, .d = 8, .seed = 0xe18});
  ASSERT_TRUE(g.regular_degree().has_value());
  EXPECT_EQ(*g.regular_degree(), 8U);
  EXPECT_EQ(g.num_edges(), static_cast<Count>(n) * 8 / 2);
  // The configuration model keeps self-loops and parallel edges, but at
  // n = 10^6 they are O(d^2) in expectation — a vanishing fraction.
  EXPECT_LT(g.num_self_loops(), 1000U);
  EXPECT_LT(g.num_parallel_extra(), 1000U);
}

TEST(BigtopoSlow, MillionNodeRandomOutInvariants) {
  const NodeId n = 1'000'000;
  const Graph g = chunked_random_out({.n = n, .d = 3, .seed = 0xe18});
  EXPECT_EQ(g.num_self_loops(), 0U);
  EXPECT_GE(g.min_degree(), 3U);
  EXPECT_EQ(g.num_edges(), static_cast<Count>(n) * 3);
}

}  // namespace
}  // namespace rrb::bigtopo

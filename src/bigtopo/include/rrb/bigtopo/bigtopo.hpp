#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "rrb/common/types.hpp"
#include "rrb/graph/graph.hpp"

/// \file bigtopo.hpp
/// Chunked million-node topology generation with a compact CSR build.
///
/// Every generator in rrb/graph/generators.hpp materialises an intermediate
/// `std::vector<Edge>` (12+ bytes per edge plus builder overhead) before the
/// CSR is assembled, which caps experiments around n ≈ 10^5–10^6. This
/// module targets the n = 10^7–10^8 regime of the "density does not matter"
/// prediction (Fountoulakis–Huber–Panagiotou, arXiv:0904.4851) by emitting
/// adjacency entries straight into their final CSR slots: peak memory is
/// one CSR (8(n+1) bytes of offsets + 4 bytes per adjacency entry) plus
/// O(1) scratch.
///
/// Chunking contract
/// -----------------
/// Each generator's output is a pure function of (n, d, seed). How the work
/// is scheduled — the thread count, which block or chunk runs when — is
/// execution policy, like the memory budget, and never changes a byte.
///
///  - chunked_configuration_model: the paper's §1.2 pairing model, exact
///    d-regular multigraph semantics (self-loops and parallel edges kept).
///    A sequential RNG stream cannot produce a *global* uniform stub
///    pairing without a global shuffle (which is exactly the O(n·d)
///    scratch this module exists to avoid), so the pairing is realised as a
///    seed-keyed pseudorandom permutation over stub indices
///    (StubPermutation): the stubs at permuted positions 2q and 2q+1 are
///    partners. Every adjacency slot is then a pure function of (seed,
///    slot). The fill walks the pair index q in fixed blocks on the worker
///    pool (one permutation inverse per stub, disjoint writes), and the
///    per-node sort runs in fixed node blocks the same way.
///  - chunked_random_out: the node range is partitioned into *canonical*
///    chunks of kChunkNodes nodes — a fixed grid that is part of the
///    output's identity, NOT a tuning knob. Chunk c's randomness derives as
///
///        Rng(chunk_seed(seed, c))     with  chunk_seed = derive_seed
///
///    — the same discipline as the trial contract (trial i runs on
///    Rng(seed).fork(i)), golden-pinned in tests/test_bigtopo.cpp. Each
///    node draws d out-partners from its chunk's stream; the undirected
///    union has irregular degrees, so the CSR is assembled by the classical
///    two-pass build (count-degrees pass, then in-place bucket fill over
///    the offset array used as cursors) with no edge list and no cursor
///    array. The two passes replay the chunks in order on the calling
///    thread (relaxed atomic counts and cursors on the pool measured
///    slower than that: the passes are bound by the draws and by locked
///    increments on cache-missing lines); the per-bucket sort runs on the
///    pool and canonicalises the bytes, so the output is identical for
///    every chunk execution order (pinned through the `chunk_order`
///    overload) and every thread count.
///
/// Telemetry: both generators wrap their phases in rrb::telemetry spans
/// (category "bigtopo") and sample current/peak RSS into the span args; the
/// fill, count and sort phases add `threads` (the workers that ran) and
/// `stubs` (n·d), so ns/stub reads straight off a trace. Side channel
/// only — the produced graph bytes never depend on telemetry (ROADMAP
/// telemetry invariant).

namespace rrb::bigtopo {

/// Canonical chunk width in nodes. Fixed: the chunk grid is part of the
/// random-out graph's identity (chunk c covers nodes [c*kChunkNodes,
/// (c+1)*kChunkNodes) ∩ [0, n)), so outputs never depend on how the
/// chunks are scheduled.
inline constexpr NodeId kChunkNodes = NodeId{1} << 14;

/// Seed of canonical chunk `chunk_id` under `seed`: derive_seed(seed,
/// chunk_id) — the chunk-level twin of the trial contract. Golden-pinned
/// in tests/test_bigtopo.cpp; changing it invalidates every random-out
/// graph.
[[nodiscard]] std::uint64_t chunk_seed(std::uint64_t seed,
                                       std::uint64_t chunk_id);

/// Number of canonical chunks covering [0, n): ceil(n / kChunkNodes).
[[nodiscard]] NodeId num_canonical_chunks(NodeId n);

/// Half-open node range of canonical chunk `chunk_id`.
struct ChunkRange {
  NodeId begin = 0;
  NodeId end = 0;
};
[[nodiscard]] ChunkRange canonical_chunk_range(NodeId n, NodeId chunk_id);

/// Seed-keyed pseudorandom permutation of [0, domain): a balanced Feistel
/// network over the enclosing power-of-two domain with cycle-walking back
/// into [0, domain). Stateless and O(1) per evaluation in both directions —
/// the primitive that lets the configuration-model pairing be computed
/// slot-by-slot instead of via a global shuffle. Deterministic and
/// platform-independent (pure 64-bit integer mixing).
class StubPermutation {
 public:
  /// domain must be >= 2.
  StubPermutation(std::uint64_t seed, std::uint64_t domain);

  [[nodiscard]] std::uint64_t domain() const { return domain_; }

  /// The image of x (x < domain()).
  [[nodiscard]] std::uint64_t forward(std::uint64_t x) const;

  /// The preimage of y (y < domain()): inverse(forward(x)) == x.
  [[nodiscard]] std::uint64_t inverse(std::uint64_t y) const;

  /// out[i] = inverse(first + i) for every i (first + out.size() <=
  /// domain()). The cycle-walks of neighbouring positions run side by side
  /// in lanes, so their Feistel chains overlap instead of waiting on each
  /// other: the same values at several times the throughput of one
  /// inverse() per position.
  void inverse_range(std::uint64_t first, std::span<std::uint64_t> out) const;

 private:
  [[nodiscard]] std::uint64_t encrypt_once(std::uint64_t x) const;
  /// One decryption of each of the kLanes values at v, rounds interleaved.
  template <int kLanes>
  void decrypt_lanes(std::uint64_t* v) const;

  static constexpr int kRounds = 8;
  std::uint64_t domain_ = 0;
  int half_bits_ = 0;            ///< width of each Feistel half
  std::uint64_t half_mask_ = 0;  ///< (1 << half_bits_) - 1
  std::array<std::uint64_t, kRounds> keys_{};
};

/// Parameters of a chunked generation run. `n`, `d` and `seed` are the
/// output's identity; `memory_budget_bytes` and `threads` are execution
/// policy and change no byte of the result (neither reaches a describe(),
/// a cell key or a fingerprint).
struct ChunkedParams {
  NodeId n = 0;  ///< nodes
  NodeId d = 0;  ///< configuration-model degree / out-links per node
  std::uint64_t seed = 0;

  /// Refuse (RRB_REQUIRE) to generate when the estimated peak exceeds this
  /// many bytes; 0 disables the check.
  std::uint64_t memory_budget_bytes = 0;

  /// Worker threads: 0 = ParallelRunner::resolve_threads (RRB_THREADS, else
  /// one per core); 1 = inline. A call from inside a pool worker (a
  /// parallel trial) runs inline on that worker. Must be >= 0.
  int threads = 0;
};

/// Estimated peak bytes of chunked_configuration_model(n, d): one CSR of
/// n·d adjacency entries. Guards 64-bit products (throws on NodeId-range
/// overflow).
[[nodiscard]] std::uint64_t estimate_configuration_model_bytes(NodeId n,
                                                               NodeId d);

/// Estimated peak bytes of chunked_random_out(n, d): one CSR of 2·n·d
/// adjacency entries.
[[nodiscard]] std::uint64_t estimate_random_out_bytes(NodeId n, NodeId d);

/// Random d-regular multigraph from the configuration model (§1.2 of the
/// paper): the n·d stubs are paired by a seed-keyed pseudorandom
/// permutation (adjacent positions in the permuted order are partners).
/// Exactly the multigraph semantics of configuration_model() — self-loops
/// and parallel edges kept, degree(v) == d for every v — with a different
/// (stateless) randomness source. Requires n >= 2, d >= 1, n·d even.
/// Output is a plain rrb::Graph: GraphTopology, with_scheme() and every
/// broadcast scheme run on it unchanged.
[[nodiscard]] Graph chunked_configuration_model(const ChunkedParams& params);

/// Random "d-out" overlay graph: every node draws d out-partners (uniform
/// over the other n-1 nodes; repeats allowed, self excluded) from its
/// canonical chunk's Rng(chunk_seed(seed, c)) stream, and the undirected
/// union of all out-links is returned (degree(v) = d + in-degree(v)).
/// This is the generator that genuinely exercises the two-pass CSR build:
/// degrees are irregular, so a count pass over the chunk streams sizes the
/// buckets and a replay pass fills them in place. Requires n >= 2, d >= 1,
/// d < n.
[[nodiscard]] Graph chunked_random_out(const ChunkedParams& params);

/// As above with an explicit canonical-chunk execution order (a
/// permutation of [0, num_canonical_chunks(n))); byte-identical output for
/// every order — exposed so tests can pin that.
[[nodiscard]] Graph chunked_random_out(const ChunkedParams& params,
                                       std::span<const NodeId> chunk_order);

}  // namespace rrb::bigtopo

#include "rrb/bigtopo/bigtopo.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <vector>

#include "rrb/common/check.hpp"
#include "rrb/parallel/runner.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb::bigtopo {

namespace {

/// splitmix64 finalising mix — the diffusion step of the Feistel round
/// function. Matches the mixer inside derive_seed, so the permutation's
/// quality rests on the same primitive as the seeding contract.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Stub count n·d as a guarded 64-bit product (the satellite overflow
/// rule: degree/offset arithmetic at large n always runs in 64 bits, with
/// explicit RRB_REQUIRE guards where a product could leave the supported
/// range).
[[nodiscard]] std::uint64_t stub_count(NodeId n, NodeId d) {
  RRB_REQUIRE(n >= 2, "bigtopo: n must be >= 2");
  RRB_REQUIRE(d >= 1, "bigtopo: d must be >= 1");
  RRB_REQUIRE(static_cast<std::uint64_t>(n) <= kMaxNodes,
              "bigtopo: n exceeds the NodeId range");
  const std::uint64_t stubs =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(d);
  RRB_REQUIRE(stubs / d == n, "bigtopo: n*d overflows 64 bits");
  return stubs;
}

/// One CSR: 8-byte offsets (n+1) plus 4-byte adjacency entries.
[[nodiscard]] std::uint64_t csr_bytes(NodeId n, std::uint64_t entries) {
  return (static_cast<std::uint64_t>(n) + 1) * sizeof(Count) +
         entries * sizeof(NodeId);
}

void enforce_budget(const ChunkedParams& params, std::uint64_t estimate,
                    const char* generator) {
  if (params.memory_budget_bytes == 0) return;
  RRB_REQUIRE(estimate <= params.memory_budget_bytes,
              std::string(generator) + ": estimated peak " +
                  std::to_string(estimate) + " bytes exceeds memory budget " +
                  std::to_string(params.memory_budget_bytes) + " bytes");
}

/// Identity execution order over the canonical chunks.
[[nodiscard]] std::vector<NodeId> identity_order(NodeId n) {
  std::vector<NodeId> order(num_canonical_chunks(n));
  for (NodeId c = 0; c < order.size(); ++c) order[c] = c;
  return order;
}

void validate_order(NodeId n, std::span<const NodeId> order) {
  const NodeId chunks = num_canonical_chunks(n);
  RRB_REQUIRE(order.size() == chunks,
              "bigtopo: chunk order must cover every canonical chunk");
  std::vector<bool> seen(chunks, false);
  for (const NodeId c : order) {
    RRB_REQUIRE(c < chunks, "bigtopo: chunk order index out of range");
    RRB_REQUIRE(!seen[c], "bigtopo: duplicate chunk in execution order");
    seen[c] = true;
  }
}

/// RSS sample attached to a span's args, plus the phase's worker count and
/// stub count when `workers` is positive (so ns/stub and the thread count
/// read straight off a trace) — telemetry side channel only.
void sample_rss(telemetry::Span& span, int workers = 0,
                std::uint64_t stubs = 0) {
  if (!span.active()) return;
  std::string args =
      "{\"current_rss_bytes\":" +
      std::to_string(telemetry::current_rss_bytes()) +
      ",\"peak_rss_bytes\":" + std::to_string(telemetry::peak_rss_bytes());
  if (workers > 0)
    args += ",\"threads\":" + std::to_string(workers) +
            ",\"stubs\":" + std::to_string(stubs);
  span.set_args(args + "}");
}

/// Pairs per block of the configuration-model fill and nodes per block of
/// the per-node sort. The block grid is fixed (never derived from the
/// thread count); every block writes only its own slots.
constexpr std::uint64_t kFillBlockPairs = std::uint64_t{1} << 16;
constexpr std::uint64_t kSortBlockNodes = kChunkNodes;
/// Pairs whose stubs one inverse_range call walks at a time.
constexpr std::uint64_t kWalkPairs = 128;

/// fn(begin, end) over [0, count) in fixed blocks of `block`, on the pool.
/// Returns the number of workers that ran.
template <class Fn>
int for_each_block(const ParallelRunner& pool, std::uint64_t count,
                   std::uint64_t block, const Fn& fn) {
  const std::uint64_t blocks = (count + block - 1) / block;
  RRB_REQUIRE(blocks <= static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max()),
              "bigtopo: too many blocks for the worker pool");
  const auto num_blocks = static_cast<int>(blocks);
  pool.for_each_trial(num_blocks, [&](int b) {
    const std::uint64_t begin = static_cast<std::uint64_t>(b) * block;
    fn(begin, std::min(begin + block, count));
  });
  return pool.workers_for(num_blocks);
}

/// Sorts every node's adjacency bucket (Graph guarantees sorted lists: the
/// canonical per-node order) in node blocks on the pool. Returns the
/// number of workers that ran.
int sort_buckets(const ParallelRunner& pool, const std::vector<Count>& offsets,
                 std::vector<NodeId>& adjacency) {
  const std::uint64_t n = offsets.size() - 1;
  return for_each_block(
      pool, n, kSortBlockNodes, [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v)
          std::sort(
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
      });
}

}  // namespace

std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t chunk_id) {
  return derive_seed(seed, chunk_id);
}

NodeId num_canonical_chunks(NodeId n) {
  return static_cast<NodeId>(
      (static_cast<std::uint64_t>(n) + kChunkNodes - 1) / kChunkNodes);
}

ChunkRange canonical_chunk_range(NodeId n, NodeId chunk_id) {
  RRB_REQUIRE(chunk_id < num_canonical_chunks(n),
              "canonical_chunk_range: chunk out of range");
  const std::uint64_t begin =
      static_cast<std::uint64_t>(chunk_id) * kChunkNodes;
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + kChunkNodes, n);
  return ChunkRange{static_cast<NodeId>(begin), static_cast<NodeId>(end)};
}

StubPermutation::StubPermutation(std::uint64_t seed, std::uint64_t domain)
    : domain_(domain) {
  RRB_REQUIRE(domain >= 2, "StubPermutation: domain must be >= 2");
  // Enclosing power-of-two domain 2^(2*half_bits_): the Feistel network
  // permutes it exactly; cycle-walking projects back into [0, domain).
  int bits = 1;
  while (bits < 64 && (std::uint64_t{1} << bits) < domain) ++bits;
  half_bits_ = (bits + 1) / 2;
  half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
  // Round keys from the named-sub-stream discipline, so two permutations
  // with different seeds (or one seed in different roles) never share a
  // key schedule.
  const std::uint64_t base =
      derive_seed(seed, hash_string("bigtopo/stub-permutation"));
  for (int r = 0; r < kRounds; ++r)
    keys_[static_cast<std::size_t>(r)] =
        derive_seed(base, static_cast<std::uint64_t>(r));
}

std::uint64_t StubPermutation::encrypt_once(std::uint64_t x) const {
  std::uint64_t left = x >> half_bits_;
  std::uint64_t right = x & half_mask_;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t f =
        mix64(right + keys_[static_cast<std::size_t>(r)]) & half_mask_;
    const std::uint64_t next_right = left ^ f;
    left = right;
    right = next_right;
  }
  return (left << half_bits_) | right;
}

template <int kLanes>
void StubPermutation::decrypt_lanes(std::uint64_t* v) const {
  std::array<std::uint64_t, kLanes> left{};
  std::array<std::uint64_t, kLanes> right{};
  for (int j = 0; j < kLanes; ++j) {
    left[j] = v[j] >> half_bits_;
    right[j] = v[j] & half_mask_;
  }
  for (int r = kRounds - 1; r >= 0; --r) {
    const std::uint64_t key = keys_[static_cast<std::size_t>(r)];
    for (int j = 0; j < kLanes; ++j) {
      const std::uint64_t prev_left =
          right[j] ^ (mix64(left[j] + key) & half_mask_);
      right[j] = left[j];
      left[j] = prev_left;
    }
  }
  for (int j = 0; j < kLanes; ++j) v[j] = (left[j] << half_bits_) | right[j];
}

std::uint64_t StubPermutation::forward(std::uint64_t x) const {
  RRB_REQUIRE(x < domain_, "StubPermutation::forward: out of domain");
  std::uint64_t y = encrypt_once(x);
  while (y >= domain_) y = encrypt_once(y);  // cycle-walk back into range
  return y;
}

std::uint64_t StubPermutation::inverse(std::uint64_t y) const {
  RRB_REQUIRE(y < domain_, "StubPermutation::inverse: out of domain");
  std::uint64_t x = y;
  do {
    decrypt_lanes<1>(&x);
  } while (x >= domain_);
  return x;
}

void StubPermutation::inverse_range(std::uint64_t first,
                                    std::span<std::uint64_t> out) const {
  RRB_REQUIRE(first <= domain_ && out.size() <= domain_ - first,
              "StubPermutation::inverse_range: out of domain");
  // Tiles of positions: every still-walking value takes one decryption per
  // sweep, eight lanes at a time, and is written to its slot; the values
  // that left the domain stay on the worklist. A slot's last write is its
  // in-domain preimage, exactly what inverse() returns. Lanes past
  // `pending` in a sweep's last group decrypt stale entries nobody reads.
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kTile = 256;
  static_assert(kTile % kLanes == 0);
  std::array<std::uint64_t, kTile> walk{};
  std::array<std::uint32_t, kTile> slot{};
  for (std::size_t base = 0; base < out.size(); base += kTile) {
    const std::size_t count = std::min(kTile, out.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      walk[i] = first + base + i;
      slot[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t pending = count; pending > 0;) {
      for (std::size_t j = 0; j < pending; j += kLanes)
        decrypt_lanes<kLanes>(walk.data() + j);
      std::size_t next = 0;
      for (std::size_t j = 0; j < pending; ++j) {
        const std::uint64_t x = walk[j];
        out[base + slot[j]] = x;
        walk[next] = x;
        slot[next] = slot[j];
        next += x >= domain_ ? 1 : 0;
      }
      pending = next;
    }
  }
}

std::uint64_t estimate_configuration_model_bytes(NodeId n, NodeId d) {
  return csr_bytes(n, stub_count(n, d));
}

std::uint64_t estimate_random_out_bytes(NodeId n, NodeId d) {
  return csr_bytes(n, 2 * stub_count(n, d));
}

Graph chunked_configuration_model(const ChunkedParams& params) {
  const NodeId n = params.n;
  const NodeId d = params.d;
  const std::uint64_t stubs = stub_count(n, d);
  RRB_REQUIRE(stubs % 2 == 0, "chunked_configuration_model: n*d must be even");
  enforce_budget(params, estimate_configuration_model_bytes(n, d),
                 "chunked_configuration_model");
  const ParallelRunner pool(RunnerConfig{.threads = params.threads});

  telemetry::Span total_span("bigtopo", "config-model");

  // The pairing: the stubs at permuted positions 2q and 2q+1 are partners.
  // Stub s of node v (s = v*d + j) lands at CSR index s, so every slot is a
  // pure function of (seed, slot) and the thread count cannot change a
  // byte.
  const StubPermutation perm(
      derive_seed(params.seed, hash_string("bigtopo/pairing")), stubs);

  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[v] + static_cast<Count>(d);
  std::vector<NodeId> adjacency(stubs);

  {
    // Walk the permuted positions, one inverse per stub: pair q's stubs
    // are the preimages of 2q and 2q+1, taken kWalkPairs pairs at a time
    // through inverse_range. Pairs write disjoint slots.
    telemetry::Span fill_span("bigtopo", "config-model/fill");
    const int workers = for_each_block(
        pool, stubs / 2, kFillBlockPairs,
        [&](std::uint64_t begin, std::uint64_t end) {
          std::array<std::uint64_t, 2 * kWalkPairs> walked{};
          for (std::uint64_t q0 = begin; q0 < end; q0 += kWalkPairs) {
            const std::uint64_t pairs = std::min(kWalkPairs, end - q0);
            const std::span<std::uint64_t> stub_at(walked.data(), 2 * pairs);
            perm.inverse_range(2 * q0, stub_at);
            for (std::uint64_t k = 0; k < 2 * pairs; k += 2) {
              adjacency[stub_at[k]] = static_cast<NodeId>(stub_at[k + 1] / d);
              adjacency[stub_at[k + 1]] = static_cast<NodeId>(stub_at[k] / d);
            }
          }
        });
    sample_rss(fill_span, workers, stubs);
  }

  {
    telemetry::Span sort_span("bigtopo", "config-model/sort");
    const int workers = sort_buckets(pool, offsets, adjacency);
    sample_rss(sort_span, workers, stubs);
  }

  Graph graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  sample_rss(total_span);
  return graph;
}

Graph chunked_random_out(const ChunkedParams& params) {
  const std::vector<NodeId> order = identity_order(params.n);
  return chunked_random_out(params, order);
}

Graph chunked_random_out(const ChunkedParams& params,
                         std::span<const NodeId> chunk_order) {
  const NodeId n = params.n;
  const NodeId d = params.d;
  const std::uint64_t stubs = stub_count(n, d);
  RRB_REQUIRE(d < n, "chunked_random_out: need d < n");
  validate_order(n, chunk_order);
  enforce_budget(params, estimate_random_out_bytes(n, d),
                 "chunked_random_out");
  const ParallelRunner pool(RunnerConfig{.threads = params.threads});

  telemetry::Span total_span("bigtopo", "random-out");

  // One uniform partner in [0, n) \ {v}, drawn from the chunk stream. The
  // count pass and the fill pass replay the same stream, so both see the
  // same draws without ever storing an edge.
  const auto draw_partner = [n](Rng& rng, NodeId v) {
    auto t = static_cast<NodeId>(rng.uniform_u64(n - 1));
    return t >= v ? t + 1 : t;
  };

  // Pass 1 — count degrees into offsets[v+1]. Increments commute, so the
  // counts are independent of chunk execution order.
  std::vector<Count> offsets(static_cast<std::size_t>(n) + 1, 0);
  {
    telemetry::Span count_span("bigtopo", "random-out/count");
    for (const NodeId c : chunk_order) {
      const ChunkRange range = canonical_chunk_range(n, c);
      Rng rng(chunk_seed(params.seed, c));
      for (NodeId v = range.begin; v < range.end; ++v)
        for (NodeId j = 0; j < d; ++j) {
          const NodeId t = draw_partner(rng, v);
          ++offsets[static_cast<std::size_t>(v) + 1];
          ++offsets[static_cast<std::size_t>(t) + 1];
        }
    }
    for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    RRB_ASSERT(offsets[n] == 2 * stubs, "random-out: stub conservation");
    sample_rss(count_span, 1, stubs);
  }

  // Pass 2 — in-place bucket fill: offsets[v] doubles as v's write cursor
  // (no separate cursor array). After the pass offsets[v] has advanced to
  // the old offsets[v+1], so one right-shift restores the offset array.
  std::vector<NodeId> adjacency(2 * stubs);
  {
    telemetry::Span fill_span("bigtopo", "random-out/fill");
    for (const NodeId c : chunk_order) {
      const ChunkRange range = canonical_chunk_range(n, c);
      Rng rng(chunk_seed(params.seed, c));
      for (NodeId v = range.begin; v < range.end; ++v)
        for (NodeId j = 0; j < d; ++j) {
          const NodeId t = draw_partner(rng, v);
          adjacency[offsets[v]++] = t;
          adjacency[offsets[t]++] = v;
        }
    }
    for (NodeId v = n; v > 0; --v) offsets[v] = offsets[v - 1];
    offsets[0] = 0;
    sample_rss(fill_span, 1, stubs);
  }

  {
    // Bucket order depends on the chunk execution order; sorting each
    // bucket canonicalises the bytes (and satisfies Graph's sorted-list
    // invariant), making the output order-independent.
    telemetry::Span sort_span("bigtopo", "random-out/sort");
    const int workers = sort_buckets(pool, offsets, adjacency);
    sample_rss(sort_span, workers, stubs);
  }

  Graph graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  sample_rss(total_span);
  return graph;
}

}  // namespace rrb::bigtopo

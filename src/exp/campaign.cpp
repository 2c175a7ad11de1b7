#include "rrb/exp/campaign.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "rrb/bigtopo/bigtopo.hpp"
#include "rrb/core/scheme_dispatch.hpp"
#include "rrb/exp/journal.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/metrics/registry.hpp"
#include "rrb/p2p/churn.hpp"
#include "rrb/p2p/overlay.hpp"
#include "rrb/parallel/runner.hpp"
#include "rrb/phonecall/engine.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/aggregate.hpp"
#include "rrb/sim/trial.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace rrb::exp {

namespace {

/// The facade options a cell translates to. The per-run seed fields are
/// irrelevant here: trial randomness comes from Rng(cell.seed).fork(trial).
[[nodiscard]] BroadcastOptions options_for(const CampaignSpec& spec,
                                           const CampaignCell& cell) {
  BroadcastOptions options;
  options.scheme = cell.scheme;
  options.n_estimate = cell.n;
  options.alpha = cell.alpha;
  options.failure_prob = cell.failure;
  options.quasirandom = cell.quasirandom;
  options.num_choices = cell.choices;  // 0 = scheme canonical
  options.memory = cell.memory;        // -1 = scheme canonical
  options.max_rounds = spec.max_rounds;
  return options;
}

// Cells reaching the runner come from expand_cells, which has already
// normalised cell.d to the family's effective degree (hypercube dim,
// complete n-1) — so cell.d IS the degree the topology will have, and
// there is exactly one place that derives it (spec.cpp).

[[nodiscard]] SchemeShape shape_for(const CampaignCell& cell) {
  SchemeShape shape;
  shape.n = cell.n;
  shape.degree = cell.d;
  shape.mean_degree = static_cast<double>(cell.d);
  return shape;
}

/// `threads` caps the chunked generator's pool like the cell's trial runner
/// (inside a parallel trial the generator runs inline on its worker).
[[nodiscard]] GraphFactory graph_factory_for(const CampaignCell& cell,
                                             int threads) {
  const NodeId n = cell.n;
  const NodeId d = cell.d;
  switch (cell.graph) {
    case GraphFamily::kRegular:
      return [n, d](Rng& rng) { return random_regular_simple(n, d, rng); };
    case GraphFamily::kConfigModel:
      return [n, d](Rng& rng) { return configuration_model(n, d, rng); };
    case GraphFamily::kGnp: {
      const double p =
          std::min(1.0, static_cast<double>(d) / static_cast<double>(n - 1));
      return [n, p](Rng& rng) { return gnp(n, p, rng); };
    }
    case GraphFamily::kHypercube: {
      const NodeId dim = cell.d;  // normalised by expand_cells
      return [dim](Rng&) { return hypercube(static_cast<int>(dim)); };
    }
    case GraphFamily::kComplete:
      return [n](Rng&) { return complete(n); };
    case GraphFamily::kChunked: {
      // The chunked generator is seeded from the trial stream (one draw),
      // so its per-trial identity follows the same (cell_seed, trial)
      // contract as every stateful generator.
      return [n, d, threads](Rng& rng) {
        bigtopo::ChunkedParams params;
        params.n = n;
        params.d = d;
        params.seed = rng.next_u64();
        params.threads = threads;
        return bigtopo::chunked_configuration_model(params);
      };
    }
    case GraphFamily::kProductK5:
      // The E10 construction: a random (d-4)-regular base on n/5 nodes,
      // each node blown up into a K_5 (cartesian product), giving a
      // d-regular product graph (expand_cells validated divisibility).
      return [n, d](Rng& rng) {
        return cartesian_product(random_regular_simple(n / 5, d - 4, rng),
                                 complete(5));
      };
  }
  throw std::runtime_error("unknown graph family");
}

/// Axis echo shared by every record, so each JSONL line is self-describing
/// and the CSV carries the full grid coordinates.
void set_axis_fields(JsonObject& record, const CampaignSpec& spec,
                     const CampaignCell& cell) {
  record.set("key", cell.key)
      .set("scheme", scheme_name(cell.scheme))
      .set("quasirandom", cell.quasirandom)
      .set("graph", graph_family_name(cell.graph))
      .set("n", static_cast<std::uint64_t>(cell.n))
      .set("d", static_cast<std::uint64_t>(cell.d))
      .set("alpha", cell.alpha)
      .set("failure", cell.failure)
      .set("churn", cell.churn)
      .set("overlay", cell.overlay)
      .set("trials", spec.trials)
      .set("cell_seed", to_hex(cell.seed));
}

/// Registry-metric columns: the digest means over trials via the shared
/// metric_summary_mean reduction (trial order, so the columns are
/// byte-identical for any schedule). Only the *selected* metrics emit
/// columns (the stack collects all of them in one engine pass; unselected
/// digests are simply not rendered).
void set_metric_columns(JsonObject& record, const CampaignSpec& spec,
                        const std::vector<MetricStack>& per_trial) {
  for (const MetricKind kind : spec.metrics) {
    const QuantileSummary mean = metric_summary_mean(per_trial, kind);
    const std::string prefix = metric_column_prefix(kind);
    record.set(prefix + "_p50_mean", mean.p50)
        .set(prefix + "_p90_mean", mean.p90)
        .set(prefix + "_p99_mean", mean.p99)
        .set(prefix + "_max_mean", mean.max);
  }
}

void set_static_columns(JsonObject& record, const TrialOutcome& out) {
  record.set("rounds_mean", out.rounds.mean)
      .set("rounds_min", out.rounds.min)
      .set("rounds_max", out.rounds.max)
      .set("completion_mean", out.completion_round.mean)
      .set("completion_rate", out.completion_rate)
      .set("coverage_mean", out.coverage.mean)
      .set("tx_per_node_mean", out.tx_per_node.mean)
      .set("tx_per_node_max", out.tx_per_node.max)
      .set("total_tx_mean", out.total_tx.mean)
      .set("push_tx_mean", out.push_tx.mean)
      .set("pull_tx_mean", out.pull_tx.mean);
}

/// Static-graph cell: graph regenerated per trial, the scheme statically
/// dispatched on each trial's graph, trials reduced in trial order. With
/// metrics selected, the observed overload runs instead: observers are
/// read-only, so every base column keeps its exact metric-less value and
/// the digests land in appended columns (pinned in tests/test_campaign.cpp).
void run_static_cell(const CampaignSpec& spec, const CampaignCell& cell,
                     const RunnerConfig& trial_runner, JsonObject& record) {
  BroadcastOptions options = options_for(spec, cell);
  options.seed = cell.seed;
  options.trials = spec.trials;
  options.runner = trial_runner;
  const NodeId source = spec.random_source ? kNoNode : 0;
  const GraphFactory graph_factory =
      graph_factory_for(cell, trial_runner.threads);

  if (spec.metrics.empty()) {
    set_static_columns(record,
                       broadcast_trials(graph_factory, options, source));
    return;
  }
  const ObservedOutcome<MetricStack> observed = broadcast_trials(
      graph_factory, options, [](const Graph&) { return MetricStack{}; },
      source);
  set_static_columns(record, observed.outcome);
  set_metric_columns(record, spec, observed.observers);
}

/// Churn cell: the broadcast runs on a DynamicOverlay while a ChurnDriver
/// joins/leaves/switches between rounds (the E13 setting, generalised to
/// every scheme). Per-trial measurements land in trial-indexed slots and
/// are reduced in trial order, so the record honours the determinism
/// contract for any RunnerConfig.
void run_churn_cell(const CampaignSpec& spec, const CampaignCell& cell,
                    const RunnerConfig& trial_runner, JsonObject& record) {
  struct Measurement {
    double rounds = 0.0;
    double coverage = 0.0;
    double joins = 0.0;
    double leaves = 0.0;
    double alive = 0.0;
    double tx_per_alive = 0.0;
    bool all_informed = false;
  };
  std::vector<Measurement> slots(static_cast<std::size_t>(spec.trials));

  const BroadcastOptions options = options_for(spec, cell);
  const SchemeShape shape = shape_for(cell);
  const NodeId capacity =
      cell.n + static_cast<NodeId>(std::ceil(
                   static_cast<double>(cell.n) * spec.churn_headroom));

  // Per-trial metric stacks, reduced in trial order below — the same slot
  // discipline as Measurement, so metric columns obey the determinism
  // contract too. Observers draw nothing: the branch below attaches the
  // stack without touching the trial's draw sequence.
  const bool want_metrics = !spec.metrics.empty();
  std::vector<MetricStack> stacks(
      want_metrics ? static_cast<std::size_t>(spec.trials) : 0);

  ParallelRunner runner(trial_runner);
  runner.for_each_trial(spec.trials, [&](int trial) {
    Rng rng = Rng(cell.seed).fork(static_cast<std::uint64_t>(trial));
    DynamicOverlay overlay(capacity, cell.n, cell.d, rng);
    ChurnConfig churn;
    churn.joins_per_round = cell.churn;
    churn.leaves_per_round = cell.churn;
    churn.switches_per_round = spec.churn_switches;
    ChurnDriver driver(overlay, churn, rng);

    MetricStack stack;
    const RunResult result = with_scheme(
        shape, options, [&](auto proto, const ChannelConfig& channel) {
          PhoneCallEngine<DynamicOverlay> engine(overlay, channel, rng);
          attach_churn(engine, driver);
          RunLimits limits;
          limits.max_rounds = spec.max_rounds;
          const NodeId source =
              spec.random_source ? overlay.random_alive(rng) : 0;
          if (want_metrics) return engine.run(proto, source, limits, stack);
          return engine.run(proto, source, limits);
        });
    if (want_metrics) stacks[static_cast<std::size_t>(trial)] = std::move(stack);

    Measurement& m = slots[static_cast<std::size_t>(trial)];
    const auto alive = static_cast<double>(result.alive_at_end);
    m.rounds = static_cast<double>(result.rounds);
    m.coverage =
        alive > 0.0 ? static_cast<double>(result.final_informed) / alive : 0.0;
    m.joins = static_cast<double>(driver.total_joins());
    m.leaves = static_cast<double>(driver.total_leaves());
    m.alive = alive;
    m.tx_per_alive =
        alive > 0.0 ? static_cast<double>(result.total_tx()) / alive : 0.0;
    m.all_informed = result.all_informed;
  });

  SummaryAccumulator rounds, coverage, joins, leaves, alive, tx;
  int completed = 0;
  for (const Measurement& m : slots) {
    rounds.add(m.rounds);
    coverage.add(m.coverage);
    joins.add(m.joins);
    leaves.add(m.leaves);
    alive.add(m.alive);
    tx.add(m.tx_per_alive);
    if (m.all_informed) ++completed;
  }
  const Summary coverage_summary = coverage.finish();
  record.set("rounds_mean", rounds.finish().mean)
      .set("coverage_mean", coverage_summary.mean)
      .set("coverage_min", coverage_summary.min)
      .set("completion_rate", static_cast<double>(completed) /
                                  static_cast<double>(spec.trials))
      .set("joins_mean", joins.finish().mean)
      .set("leaves_mean", leaves.finish().mean)
      .set("alive_mean", alive.finish().mean)
      .set("tx_per_alive_mean", tx.finish().mean);
  if (want_metrics) set_metric_columns(record, spec, stacks);
}

}  // namespace

JsonObject CampaignRunner::run_cell(const CampaignSpec& spec,
                                    const CampaignCell& cell,
                                    const RunnerConfig& trial_runner) {
  // Wall-clock only: the span never touches the record, so cell output is
  // bit-identical with telemetry on or off (tests/test_telemetry.cpp).
  telemetry::Span cell_span("campaign", cell.key);
  if (cell_span.active())
    cell_span.set_args("{\"trials\":" + std::to_string(spec.trials) + "}");

  JsonObject record;
  set_axis_fields(record, spec, cell);
  if (cell.overlay)
    run_churn_cell(spec, cell, trial_runner, record);
  else
    run_static_cell(spec, cell, trial_runner, record);
  return record;
}

CampaignRunner::CampaignRunner(CampaignSpec spec, CampaignConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {
  if (config_.shard_count < 1)
    throw std::runtime_error("shard count must be >= 1");
  if (config_.shard_index < 0 || config_.shard_index >= config_.shard_count)
    throw std::runtime_error("shard index out of range");
  cells_ = expand_cells(spec_);
}

CampaignOutcome CampaignRunner::run(const CellProgress& progress) {
  namespace fs = std::filesystem;

  CampaignOutcome outcome;
  outcome.total_cells = cells_.size();

  std::vector<const CampaignCell*> mine;
  for (const CampaignCell& cell : cells_)
    if (static_cast<int>(cell.index % static_cast<std::size_t>(
                             config_.shard_count)) == config_.shard_index)
      mine.push_back(&cell);

  const bool persist = !config_.out_dir.empty();
  const std::string fingerprint = to_hex(spec_fingerprint(spec_));

  // ---- Load the journal: completed cells from earlier (possibly
  // interrupted, possibly sharded) runs of this same spec. The loader
  // skips a truncated final line (a run killed mid-write) and the writer
  // cuts that partial tail before appending — that cell just recomputes,
  // bit-identically.
  std::map<std::string, JsonObject> journal;
  std::optional<JournalWriter> journal_out;
  if (persist) {
    fs::create_directories(config_.out_dir);
    outcome.manifest_path = config_.out_dir + "/manifest.jsonl";
    Journal loaded = load_journal(outcome.manifest_path, fingerprint);
    journal_out.emplace(outcome.manifest_path, loaded, spec_.name,
                        fingerprint, cells_.size());
    journal = std::move(loaded.records);
  }

  // Timing side channel (see campaign.hpp): wall time per freshly computed
  // cell, appended in cell order. Deliberately kept out of the
  // manifest/results so the deterministic artifacts stay byte-identical
  // whatever the hardware did; a failed open just disables the channel.
  // Wall-clock reads go through telemetry::now_us — the audited side-channel
  // entry point (ROADMAP telemetry invariant): the value feeds only the
  // timing.jsonl line below, never the deterministic records.
  std::ofstream timing_out;
  if (persist) {
    outcome.timing_path = config_.out_dir + "/timing.jsonl";
    timing_out.open(outcome.timing_path, std::ios::app);
  }

  // ---- Cells in cell order, each cell's trials fanned out on the pool
  // (distribute_campaign fans cells out across processes instead). A
  // journal record is reused; a fresh record streams one flushed journal
  // line before the progress callback runs, so however the run dies
  // afterwards the cell is already resumable.
  outcome.cells.resize(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    CellResult& slot = outcome.cells[i];
    slot.cell = *mine[i];
    if (const auto found = journal.find(slot.cell.key);
        found != journal.end()) {
      slot.record = found->second;
      slot.reused = true;
      ++outcome.reused;
    } else {
      const std::int64_t start_us = telemetry::now_us();
      slot.record = run_cell(spec_, slot.cell, config_.runner);
      const double ms =
          static_cast<double>(telemetry::now_us() - start_us) / 1000.0;
      ++outcome.computed;
      if (persist) journal_out->append(slot.record);
      if (timing_out.is_open()) {
        JsonObject line;
        line.set("key", slot.cell.key)
            .set("wall_ms", ms)
            .set("trials", spec_.trials)
            .set("trials_per_s",
                 ms > 0.0 ? static_cast<double>(spec_.trials) / (ms / 1000.0)
                          : 0.0)
            .set("peak_rss_bytes", telemetry::peak_rss_bytes());
        timing_out << line.to_line() << "\n" << std::flush;
      }
    }
    if (progress) progress(slot);
  }

  // ---- Final artifacts, rewritten in cell order. Byte-identical for any
  // thread count, shard replay, or interrupt/resume history. The stream
  // covers every cell of the grid with a record available — this shard's
  // slots plus other shards' journal lines — so a sharded re-run over a
  // directory that already holds the full campaign never truncates the
  // results to its own subset; cells no shard has produced yet are simply
  // absent until a run computes them.
  if (persist) {
    journal_out->close();

    std::vector<const JsonObject*> final_records;
    final_records.reserve(cells_.size());
    {
      std::size_t slot = 0;
      for (const CampaignCell& cell : cells_) {
        if (slot < outcome.cells.size() &&
            outcome.cells[slot].cell.index == cell.index) {
          final_records.push_back(&outcome.cells[slot].record);
          ++slot;
        } else if (const auto found = journal.find(cell.key);
                   found != journal.end()) {
          final_records.push_back(&found->second);
        }
      }
    }

    outcome.results_json_path = config_.out_dir + "/results.jsonl";
    std::ofstream json_out(outcome.results_json_path);
    if (!json_out)
      throw std::runtime_error("cannot write " + outcome.results_json_path);
    for (const JsonObject* record : final_records)
      json_out << record->to_line() << "\n";
    json_out.close();

    std::vector<std::string> columns;
    for (const JsonObject* record : final_records)
      for (const JsonObject::Field& field : record->fields()) {
        bool seen = false;
        for (const std::string& column : columns)
          if (column == field.key) {
            seen = true;
            break;
          }
        if (!seen) columns.push_back(field.key);
      }
    outcome.results_csv_path = config_.out_dir + "/results.csv";
    std::ofstream csv_out(outcome.results_csv_path);
    if (!csv_out)
      throw std::runtime_error("cannot write " + outcome.results_csv_path);
    const CsvWriter csv(columns);
    csv.write_header(csv_out);
    for (const JsonObject* record : final_records)
      csv.write_row(csv_out, *record);
    csv_out.close();

    JsonObject meta;
    // Identity only — no shard split, timings or completion counts — so
    // the file is byte-identical however the campaign was executed.
    meta.set("campaign", spec_.name)
        .set("seed", to_hex(spec_.seed))
        .set("fingerprint", fingerprint)
        .set("cells", static_cast<std::uint64_t>(cells_.size()))
        .set("spec", describe(spec_));
    outcome.meta_path = config_.out_dir + "/campaign.json";
    std::ofstream meta_out(outcome.meta_path);
    if (!meta_out)
      throw std::runtime_error("cannot write " + outcome.meta_path);
    meta.write(meta_out, 0);
    meta_out << "\n";
  }

  return outcome;
}

}  // namespace rrb::exp

#pragma once

#include <cstddef>
#include <string>

#include "rrb/common/runner_config.hpp"
#include "rrb/exp/spec.hpp"

/// \file distribute.hpp
/// Process-level campaign executor: `rrb_campaign --distribute K`.
///
/// The driver forks K worker processes (the same binary in a hidden
/// `--worker I` mode) over one campaign directory. Workers claim cells
/// *dynamically* through an atomic claim protocol — one O_CREAT|O_EXCL
/// file per cell under `<out>/claims/` — so there is no static shard
/// split and stragglers never serialise the run: a worker that finishes
/// early keeps claiming whatever is left. Each worker journals completed
/// cells into its own `<out>/workers/w<I>.jsonl` exactly as `--shard`
/// runs do, and the driver supervises:
///
///  * a worker that exits abnormally (crash, SIGKILL, OOM) has its
///    unfinished claims released — cells its journal already holds stay
///    done — and is respawned up to a retry budget, resuming from its own
///    journal;
///  * worker journals are merged (fingerprint-validated, deduplicated)
///    into `<out>/manifest.jsonl` before spawning (so a restarted driver
///    reuses earlier work) and after all workers finish;
///  * the caller then runs the ordinary CampaignRunner over the merged
///    manifest, which reuses every journal line, computes any cells a
///    permanently-failed worker left behind, and writes the final
///    artifacts.
///
/// Distribution is scheduling, never semantics: cell randomness is keyed
/// on (campaign_seed, cell_key, trial) — see spec.hpp — so
/// `results.jsonl`, `results.csv` and `campaign.json` are byte-identical
/// to a single-process run for any K, any claim interleaving, and any
/// crash/respawn history. Only wall-clock time changes.

namespace rrb::exp {

/// Atomic cell-claim directory: claim i exists as `<dir>/cell_<i>.claim`
/// holding the owner's name. Creation uses O_CREAT|O_EXCL, so exactly one
/// contender wins a cell however many workers race for it. Claims only
/// coordinate live workers within one driver run — completed work is
/// protected by journals, so the driver clears stale claims at startup.
class CellClaims {
 public:
  /// Creates `dir` if missing.
  explicit CellClaims(std::string dir);

  /// Atomically claim cell `index` for `owner`. True exactly when this
  /// call created the claim; false when any owner already holds it.
  [[nodiscard]] bool try_claim(std::size_t index,
                               const std::string& owner) const;

  /// The owner recorded in cell `index`'s claim file, or "" if unclaimed.
  [[nodiscard]] std::string owner_of(std::size_t index) const;

  /// Drop cell `index`'s claim (crash recovery: the driver releases a dead
  /// worker's claims for cells its journal does not hold).
  void release(std::size_t index) const;

  /// Remove every claim file (fresh driver run).
  void clear() const;

  [[nodiscard]] std::string path_of(std::size_t index) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Campaign-directory layout shared by the driver and its workers.
[[nodiscard]] std::string claims_dir(const std::string& out_dir);
[[nodiscard]] std::string worker_journal_path(const std::string& out_dir,
                                              int worker_id);
[[nodiscard]] std::string resolved_spec_path(const std::string& out_dir);

/// Telemetry side-channel files (ROADMAP telemetry invariant: these never
/// feed a deterministic artifact, are never merged into journals, and may
/// be deleted at any time).
///
/// Heartbeat: `<out>/workers/w<I>.heartbeat`, truncate-rewritten after each
/// completed cell as "<own journal cells> <monotonic µs>". The driver polls
/// them for the live progress line and straggler detection. The `.heartbeat`
/// extension keeps them out of the journal merge's `.jsonl` glob.
[[nodiscard]] std::string worker_heartbeat_path(const std::string& out_dir,
                                                int worker_id);
/// Worker trace events: `<out>/trace/w<I>.events.jsonl` (the telemetry
/// events-JSONL shuttle format), appended after each cell when the driver
/// runs with `--trace`; the driver merges them into one Chrome trace. A
/// separate `trace/` directory keeps them away from the journal glob too.
[[nodiscard]] std::string worker_events_path(const std::string& out_dir,
                                             int worker_id);

/// One worker process's identity and knobs (the hidden `--worker I` mode).
struct WorkerConfig {
  int worker_id = 0;
  std::string out_dir;  ///< the campaign directory, shared with the driver
  RunnerConfig runner;  ///< trial scheduling inside this worker
  bool quiet = false;

  /// Flush this worker's telemetry events to worker_events_path() after
  /// each completed cell (the hidden `--worker-events` flag, set by a
  /// `--trace` driver). Per-cell flushing is what makes the trace
  /// crash-tolerant: a SIGKILLed worker loses at most one cell's events.
  bool record_events = false;

  /// Test hook for the crash-recovery fixtures: SIGKILL this worker after
  /// it computes this many cells (0 = at startup, before claiming
  /// anything). One-shot — a marker file next to the worker journal arms
  /// it only once, so the respawned worker finishes the campaign. < 0
  /// disables the hook.
  int crash_after = -1;
};

/// Worker body: skip cells already journaled (in the campaign manifest or
/// this worker's own journal from a previous life), claim the rest one by
/// one, compute each claimed cell via CampaignRunner::run_cell and journal
/// it. Returns the number of cells computed in this life.
std::size_t run_worker(const CampaignSpec& spec, const WorkerConfig& config);

/// Driver knobs for `--distribute K`.
struct DistributeConfig {
  int workers = 2;

  /// Total respawns across all workers before the driver stops reviving a
  /// dying fleet; cells left behind fall to the caller's final
  /// CampaignRunner pass. < 0 = 2 * workers.
  int respawn_budget = -1;

  RunnerConfig runner;  ///< forwarded to every worker (--threads and
                        ///< --batch)
  std::string out_dir;
  bool quiet = false;

  /// Driver half of `--trace`: forward `--worker-events` to every worker so
  /// their spans land in <out>/trace/, to be merged by the caller.
  bool trace = false;

  /// Supervision cadence. A worker whose heartbeat is older than
  /// `straggler_after_s` (while still alive) is flagged once per life on
  /// stderr and in the trace. Progress lines are printed at most every
  /// `progress_interval_ms` unless the cell count changed.
  double straggler_after_s = 30.0;
  int progress_interval_ms = 2000;

  int crash_worker0_after = -1;  ///< test hook, forwarded to worker 0
};

/// What the supervisor did. Deterministic artifacts never depend on any of
/// this — it feeds progress output only.
struct DistributeReport {
  std::size_t cells = 0;             ///< full grid size
  std::size_t merged_before = 0;     ///< records reused from prior runs
  std::size_t merged_after = 0;      ///< fresh worker records merged
  int respawns = 0;
  int failed_workers = 0;  ///< workers abandoned with the budget spent
  std::size_t stragglers_flagged = 0;  ///< heartbeat timeouts observed
};

/// Spawn `config.workers` processes of `exe_path` in `--worker` mode over
/// `config.out_dir`, supervise them (reclaim + respawn on abnormal exit),
/// and merge their journals into the campaign manifest. The final
/// artifact pass stays with the caller: run CampaignRunner over the same
/// directory afterwards — it reuses every merged cell and writes
/// results/CSV/meta byte-identically to a single-process run.
///
/// Throws std::runtime_error on invalid configuration, spawn failure, or
/// an unwritable campaign directory. Only implemented on POSIX; elsewhere
/// it throws.
DistributeReport distribute_campaign(const CampaignSpec& spec,
                                     const DistributeConfig& config,
                                     const std::string& exe_path);

}  // namespace rrb::exp

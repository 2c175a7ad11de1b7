/// rrb_campaign — run a declarative experiment campaign.
///
/// A campaign spec (see bench/campaigns/*.campaign) names the axes of an
/// experiment grid; this tool expands it into cells, executes them through
/// the deterministic trial runner, and streams artifacts:
///
///   <out>/manifest.jsonl   append-only journal, one line per finished cell
///   <out>/results.jsonl    all cell records, in cell order
///   <out>/results.csv      the same records as CSV
///   <out>/campaign.json    spec echo + fingerprint
///   <out>/timing.jsonl     wall-time side channel (never deterministic,
///                          never merged or diffed)
///
/// Results are byte-identical for every --threads value, and an
/// interrupted run resumes from the manifest, recomputing only missing
/// cells. Shards (--shard I/K) write disjoint cell subsets; concatenating
/// shard manifests into one directory and re-running unsharded merges them
/// without recomputation.
///
/// Usage:
///   rrb_campaign [--spec FILE] [--set key=value ...] [--out DIR|none]
///                [--threads W] [--batch B] [--parallel-cells]
///                [--shard I/K] [--merge DIR-OR-GLOB ...] [--list] [--quiet]
///
/// Without --spec, settings start from the built-in defaults; --set
/// overrides apply on top of the spec in the order given, e.g.
///   rrb_campaign --spec bench/campaigns/e1_smalld.campaign
///                --set "n = 2^10, 2^12" --set trials=3
///
/// --merge globs shard artifact directories, validates their manifests
/// against this spec's fingerprint, concatenates their journal lines into
/// --out, and then runs normally — the run reuses every merged cell and
/// emits the full artifacts without recomputing anything:
///   rrb_campaign --spec S --shard 0/2 --out shards/s0
///   rrb_campaign --spec S --shard 1/2 --out shards/s1
///   rrb_campaign --spec S --merge 'shards/s*' --out merged
///
/// --distribute K forks K worker processes over one artifact directory.
/// Workers claim cells dynamically (one O_CREAT|O_EXCL claim file per
/// cell — work stealing, not a static split), journal completed cells like
/// shards do, and are supervised: a crashed worker's claims are released
/// and it is respawned up to a retry budget, resuming from its journal.
/// The artifacts are byte-identical to a single-process run for any K and
/// any crash history — distribution is scheduling, never semantics:
///   rrb_campaign --spec S --distribute 4 --threads 1 --out swept

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rrb/common/table.hpp"
#include "rrb/exp/campaign.hpp"
#include "rrb/exp/distribute.hpp"
#include "rrb/telemetry/telemetry.hpp"

namespace {

struct Options {
  std::string spec_path;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string out_dir;  // empty = derive from campaign name; "none" = memory
  std::vector<std::string> merge_sources;  // dirs or globs of shard outputs
  rrb::exp::CampaignConfig config;
  int distribute = 0;        // worker processes; 0 = run in this process
  int respawn_budget = -1;   // -1 = distribute_campaign default
  int worker_id = -1;        // >= 0: hidden worker mode (spawned by driver)
  int worker_crash_after = -1;  // test hook, forwarded to worker 0
  bool worker_events = false;   // hidden: flush telemetry per cell (--trace)
  std::string trace_path;       // Chrome trace JSON out; "" = no telemetry
  bool list = false;
  bool quiet = false;
};

void usage() {
  std::cout <<
      "usage: rrb_campaign [--spec FILE] [--set key=value ...] [--out DIR]\n"
      "                    [--threads W] [--batch B]\n"
      "                    [--parallel-cells] [--shard I/K]\n"
      "                    [--merge DIR-OR-GLOB ...] [--distribute K]\n"
      "                    [--respawn-budget N] [--list] [--quiet]\n"
      "\n"
      "  --spec FILE      campaign spec file (key = value lines; see\n"
      "                   bench/campaigns/*.campaign)\n"
      "  --set key=value  override a spec setting (repeatable, applied in\n"
      "                   order after the spec file)\n"
      "  --out DIR        artifact directory (default campaign_<name>;\n"
      "                   'none' runs in memory without artifacts)\n"
      "  --threads W      worker threads (default 0 = auto: $RRB_THREADS,\n"
      "                   else hardware cores); never changes the results\n"
      "  --batch B        trials per lockstep engine step on fixed-topology\n"
      "                   paths (default 0 = sequential); same output\n"
      "  --parallel-cells fan cells (not trials) across the pool — faster\n"
      "                   for grids of many small cells, same output\n"
      "  --shard I/K      run only cells with index %% K == I\n"
      "  --merge PAT      merge shard manifests into --out before running\n"
      "                   (repeatable; PAT is a directory or a glob whose\n"
      "                   last component may contain '*'). Manifests must\n"
      "                   carry this spec's fingerprint; merged cells are\n"
      "                   reused, not recomputed\n"
      "  --distribute K   fork K supervised worker processes that claim\n"
      "                   cells dynamically over --out (crash recovery via\n"
      "                   journals; artifacts byte-identical to K=1)\n"
      "  --respawn-budget N\n"
      "                   total crashed-worker respawns before giving up\n"
      "                   (default 2*K); leftover cells run in-process\n"
      "  --trace FILE     record a Chrome trace-event JSON (open in Perfetto\n"
      "                   or chrome://tracing) covering the driver, any\n"
      "                   distributed workers, cells, engine kernels and\n"
      "                   runner pools. Pure side channel: artifacts stay\n"
      "                   byte-identical with tracing on\n"
      "  --list           print the expanded cells and exit\n"
      "  --quiet          suppress per-cell progress lines\n";
}

namespace fs = std::filesystem;

/// '*'-only wildcard match (no '?', no character classes — shard directory
/// names do not need more).
bool glob_match(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern.front() == '*') {
    for (std::size_t i = 0; i <= text.size(); ++i)
      if (glob_match(pattern.substr(1), text.substr(i))) return true;
    return false;
  }
  return !text.empty() && pattern.front() == text.front() &&
         glob_match(pattern.substr(1), text.substr(1));
}

/// Expand one --merge argument into shard directories. Only the last path
/// component may be a glob; a plain directory expands to itself.
std::vector<fs::path> expand_merge_pattern(const std::string& pattern) {
  const fs::path as_path(pattern);
  const std::string leaf = as_path.filename().string();
  if (leaf.find('*') == std::string::npos) {
    if (!fs::is_directory(as_path))
      throw std::runtime_error("--merge: " + pattern + " is not a directory");
    return {as_path};
  }
  const fs::path parent =
      as_path.has_parent_path() ? as_path.parent_path() : fs::path(".");
  if (!fs::is_directory(parent))
    throw std::runtime_error("--merge: " + parent.string() +
                             " is not a directory");
  std::vector<fs::path> matches;
  for (const fs::directory_entry& entry : fs::directory_iterator(parent))
    if (entry.is_directory() &&
        glob_match(leaf, entry.path().filename().string()))
      matches.push_back(entry.path());
  std::sort(matches.begin(), matches.end());
  if (matches.empty())
    throw std::runtime_error("--merge: " + pattern +
                             " matched no directories");
  return matches;
}

/// Concatenate shard manifests into <out>/manifest.jsonl via the campaign
/// subsystem's own resume path: every source line whose header fingerprint
/// matches `fingerprint` is appended verbatim (byte-preserving, so the
/// subsequent run reuses the cells), other specs' manifests are refused.
///
/// Two-phase: every source (and the target, if it already has content) is
/// validated fully in memory before a single byte is written, so a refused
/// merge leaves the target directory exactly as it was — no empty or
/// headerless manifest for a retry to trip over.
std::size_t merge_manifests(const std::vector<std::string>& patterns,
                            const std::string& out_dir,
                            const std::string& fingerprint) {
  std::vector<fs::path> sources;
  for (const std::string& pattern : patterns)
    for (fs::path& dir : expand_merge_pattern(pattern))
      sources.push_back(std::move(dir));

  // Phase 1a: read and validate the sources.
  std::string header_line;
  std::vector<std::string> record_lines;
  for (const fs::path& dir : sources) {
    const fs::path manifest = dir / "manifest.jsonl";
    std::ifstream in(manifest);
    if (!in)
      throw std::runtime_error("--merge: " + dir.string() +
                               " has no manifest.jsonl");
    std::string line;
    bool source_verified = false;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      const auto parsed = rrb::exp::parse_flat_json(line);
      if (parsed) {
        if (const auto fp = parsed->find_plain("fingerprint")) {
          if (*fp != fingerprint)
            throw std::runtime_error(
                "--merge: " + manifest.string() +
                " was written by a different campaign spec (fingerprint " +
                std::string(*fp) + ", this spec is " + fingerprint + ")");
          source_verified = true;
          if (header_line.empty()) header_line = line;
          continue;
        }
      }
      // A damaged line — unparseable (e.g. the truncated tail a killed
      // shard left) or parseable but keyless — must not spread into the
      // merged manifest; the loader there would only skip it again.
      if (!parsed || !parsed->find_plain("key")) continue;
      if (!source_verified)
        throw std::runtime_error(
            "--merge: " + manifest.string() +
            " has cell records before any fingerprint header — cannot "
            "verify they belong to this spec");
      record_lines.push_back(line);
    }
  }
  if (header_line.empty())
    throw std::runtime_error(
        "--merge: no source manifest carried a campaign header");

  // Phase 1b: if the target manifest already has content, it must carry a
  // matching header of its own (an interrupted run of this spec is fine;
  // anything else would poison the merge).
  const fs::path out_manifest = fs::path(out_dir) / "manifest.jsonl";
  bool target_has_header = false;
  {
    std::ifstream existing(out_manifest);
    std::string line;
    bool has_content = false;
    while (existing && std::getline(existing, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      has_content = true;
      const auto parsed = rrb::exp::parse_flat_json(line);
      if (!parsed) continue;
      if (const auto fp = parsed->find_plain("fingerprint")) {
        if (*fp != fingerprint)
          throw std::runtime_error(
              "--merge: " + out_manifest.string() +
              " already belongs to a different campaign spec (fingerprint " +
              std::string(*fp) + ", this spec is " + fingerprint + ")");
        target_has_header = true;
        break;
      }
    }
    if (has_content && !target_has_header)
      throw std::runtime_error(
          "--merge: " + out_manifest.string() +
          " holds records but no campaign header — delete it (or restore "
          "the header) before merging into this directory");
  }

  // Phase 2: append, writing exactly one header line overall.
  fs::create_directories(out_dir);
  std::ofstream out(out_manifest, std::ios::app);
  if (!out)
    throw std::runtime_error("--merge: cannot write " +
                             out_manifest.string());
  if (!target_has_header) out << header_line << "\n";
  for (const std::string& line : record_lines) out << line << "\n";
  return record_lines.size();
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--spec") opt.spec_path = next();
    else if (flag == "--set") {
      const std::string setting = next();
      const std::size_t eq = setting.find('=');
      if (eq == std::string::npos)
        throw std::runtime_error("--set expects key=value, got: " + setting);
      opt.overrides.emplace_back(setting.substr(0, eq), setting.substr(eq + 1));
    }
    else if (flag == "--out") opt.out_dir = next();
    else if (flag == "--threads") opt.config.runner.threads = std::stoi(next());
    else if (flag == "--batch") opt.config.runner.batch = std::stoi(next());
    else if (flag == "--parallel-cells") opt.config.parallel_cells = true;
    else if (flag == "--distribute") opt.distribute = std::stoi(next());
    else if (flag == "--respawn-budget") opt.respawn_budget = std::stoi(next());
    // Hidden: how the driver runs this binary as a claim-loop worker, and
    // the crash-recovery fixtures' one-shot SIGKILL hook (a flag, not an
    // environment variable, so the worker environment stays inert).
    else if (flag == "--worker") opt.worker_id = std::stoi(next());
    else if (flag == "--worker-crash-after")
      opt.worker_crash_after = std::stoi(next());
    else if (flag == "--worker-events") opt.worker_events = true;
    else if (flag == "--trace") opt.trace_path = next();
    else if (flag == "--shard") {
      const std::string shard = next();
      const std::size_t slash = shard.find('/');
      if (slash == std::string::npos)
        throw std::runtime_error("--shard expects I/K, got: " + shard);
      opt.config.shard_index = std::stoi(shard.substr(0, slash));
      opt.config.shard_count = std::stoi(shard.substr(slash + 1));
    }
    else if (flag == "--merge") opt.merge_sources.emplace_back(next());
    else if (flag == "--list") opt.list = true;
    else if (flag == "--quiet") opt.quiet = true;
    else throw std::runtime_error("unknown flag: " + flag);
  }
  if (opt.config.runner.threads < 0)
    throw std::runtime_error("--threads must be >= 0");
  if (opt.config.runner.batch < 0)
    throw std::runtime_error("--batch must be >= 0");
  if (opt.distribute < 0)
    throw std::runtime_error("--distribute must be >= 1");
  if (opt.distribute > 0 && opt.config.shard_count > 1)
    throw std::runtime_error(
        "--distribute and --shard do not compose: workers already split the "
        "grid dynamically (use --shard alone for a static split)");
  return true;
}

/// This binary's own path, for the driver to re-exec as workers.
std::string self_exe_path(const char* argv0) {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return argv0;  // non-Linux fallback; fine as long as argv[0] is runnable
}

/// A record field for the summary table, or "-" when the cell's execution
/// path does not produce it (e.g. coverage only exists for churn cells).
std::string field_or_dash(const rrb::exp::JsonObject& record,
                          std::string_view key) {
  if (const auto plain = record.find_plain(key)) return std::string(*plain);
  return "-";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrb;
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      usage();
      return 0;
    }

    // Hidden worker mode: claim and compute cells over the driver's
    // campaign directory, then exit. The spec comes from the resolved-spec
    // file the driver wrote — never from this process's own flags — so a
    // worker cannot drift from the campaign it serves.
    if (opt.worker_id >= 0) {
      if (opt.out_dir.empty() || opt.out_dir == "none")
        throw std::runtime_error("--worker needs the driver's --out DIR");
      if (opt.worker_events) {
        // Trace identity: driver is pid 1, worker i is pid 2 + i. Events
        // are flushed per cell by run_worker and merged by the driver.
        telemetry::enable();
        telemetry::set_process_id(2 + opt.worker_id);
        telemetry::set_process_label("rrb_campaign worker w" +
                                     std::to_string(opt.worker_id));
      }
      exp::WorkerConfig worker;
      worker.worker_id = opt.worker_id;
      worker.out_dir = opt.out_dir;
      worker.runner = opt.config.runner;
      worker.quiet = opt.quiet;
      worker.crash_after = opt.worker_crash_after;
      worker.record_events = opt.worker_events;
      const exp::CampaignSpec spec =
          exp::load_spec(exp::resolved_spec_path(opt.out_dir));
      const std::size_t computed = exp::run_worker(spec, worker);
      if (!opt.quiet)
        std::cout << "[w" << opt.worker_id << "] done, " << computed
                  << " cells computed\n";
      return 0;
    }

    if (!opt.trace_path.empty()) {
      telemetry::enable();
      telemetry::set_process_id(1);
      telemetry::set_process_label("rrb_campaign driver");
    }

    exp::CampaignSpec spec;
    if (!opt.spec_path.empty()) spec = exp::load_spec(opt.spec_path);
    for (const auto& [key, value] : opt.overrides)
      exp::apply_setting(spec, key, value);

    if (opt.out_dir == "none")
      opt.config.out_dir.clear();
    else if (!opt.out_dir.empty())
      opt.config.out_dir = opt.out_dir;
    else
      opt.config.out_dir = "campaign_" + spec.name;

    if (!opt.merge_sources.empty() && !opt.list) {
      if (opt.config.out_dir.empty())
        throw std::runtime_error("--merge needs a persistent --out directory");
      std::ostringstream fingerprint;
      fingerprint << "0x" << std::hex << exp::spec_fingerprint(spec);
      const std::size_t merged = merge_manifests(
          opt.merge_sources, opt.config.out_dir, fingerprint.str());
      std::cout << "merged " << merged << " cell records into "
                << opt.config.out_dir << "/manifest.jsonl\n";
    }

    // Distribute phase: fork the worker fleet and supervise it until the
    // grid is claimed and journaled, then fall through to the ordinary
    // in-process run — it reuses every merged cell, computes any cells a
    // permanently-failed worker abandoned, and writes the final artifacts,
    // byte-identical to a single-process run.
    if (opt.distribute > 0 && !opt.list) {
      if (opt.config.out_dir.empty())
        throw std::runtime_error(
            "--distribute needs a persistent --out directory");
      exp::DistributeConfig dist;
      dist.workers = opt.distribute;
      dist.respawn_budget = opt.respawn_budget;
      dist.runner = opt.config.runner;
      dist.out_dir = opt.config.out_dir;
      dist.quiet = opt.quiet;
      dist.trace = !opt.trace_path.empty();
      dist.crash_worker0_after = opt.worker_crash_after;
      const exp::DistributeReport report =
          exp::distribute_campaign(spec, dist, self_exe_path(argv[0]));
      std::cout << "[distribute] " << opt.distribute << " workers over "
                << report.cells << " cells: " << report.merged_after
                << " computed, " << report.merged_before
                << " reused from worker journals, " << report.respawns
                << " respawns, " << report.failed_workers
                << " workers abandoned\n";
    }

    exp::CampaignRunner runner(std::move(spec), opt.config);

    if (opt.list) {
      std::cout << "campaign " << runner.spec().name << ": "
                << runner.cells().size() << " cells\n";
      for (const exp::CampaignCell& cell : runner.cells())
        std::cout << "  [" << cell.index << "] " << cell.key << "  seed 0x"
                  << std::hex << cell.seed << std::dec << "\n";
      return 0;
    }

    std::cout << "campaign " << runner.spec().name << ": "
              << runner.cells().size() << " cells, " << runner.spec().trials
              << " trials each";
    if (opt.config.shard_count > 1)
      std::cout << " (shard " << opt.config.shard_index << "/"
                << opt.config.shard_count << ")";
    std::cout << "\n";

    const std::size_t total = runner.cells().size();
    const exp::CampaignOutcome outcome =
        runner.run([&](const exp::CellResult& done) {
          if (opt.quiet) return;
          std::cout << "  [" << done.cell.index + 1 << "/" << total << "] "
                    << done.cell.key
                    << (done.reused ? "  (reused)" : "  (computed)") << "\n";
        });

    Table table({"cell", "rounds", "ok", "tx/node", "coverage"});
    table.set_title("campaign " + runner.spec().name);
    for (const exp::CellResult& cell : outcome.cells) {
      table.begin_row();
      table.add(cell.cell.key);
      table.add(field_or_dash(cell.record, "rounds_mean"));
      table.add(field_or_dash(cell.record, "completion_rate"));
      table.add(field_or_dash(cell.record, "tx_per_node_mean"));
      table.add(field_or_dash(cell.record, "coverage_mean"));
    }
    std::cout << table;
    std::cout << outcome.computed << " cells computed, " << outcome.reused
              << " reused from the manifest\n";
    if (!outcome.manifest_path.empty())
      std::cout << "artifacts:\n  " << outcome.manifest_path << "\n  "
                << outcome.results_json_path << "\n  "
                << outcome.results_csv_path << "\n  " << outcome.meta_path
                << "\n  " << outcome.timing_path
                << "  (side channel, not deterministic)\n";

    // Assemble the trace last: the driver's own spans plus, under
    // --distribute, the per-worker event files — one flamegraph covering
    // the whole campaign.
    if (!opt.trace_path.empty()) {
      std::vector<telemetry::Event> events = telemetry::drain();
      if (opt.distribute > 0 && !opt.config.out_dir.empty())
        for (int id = 0; id < opt.distribute; ++id) {
          const std::vector<telemetry::Event> worker_events =
              telemetry::load_events_jsonl(
                  exp::worker_events_path(opt.config.out_dir, id));
          events.insert(events.end(), worker_events.begin(),
                        worker_events.end());
        }
      std::ofstream trace_out(opt.trace_path);
      if (!trace_out)
        throw std::runtime_error("cannot write " + opt.trace_path);
      telemetry::write_chrome_trace(trace_out, events);
      std::cout << "trace: " << opt.trace_path << " (" << events.size()
                << " events; open in Perfetto or chrome://tracing)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

#include "rrb/exp/distribute.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rrb/exp/campaign.hpp"
#include "rrb/exp/journal.hpp"
#include "rrb/telemetry/telemetry.hpp"

#ifndef _WIN32
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rrb::exp {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::string owner_name(int worker_id) {
  std::string name = "w";  // append-style: see JsonObject::set
  name += std::to_string(worker_id);
  return name;
}

/// Truncate-rewrite a worker heartbeat: "<own journal cells> <monotonic µs>".
/// Pure side channel (see distribute.hpp) — wall clock via the audited
/// telemetry::now_us entry point, consumed only by the driver's progress
/// line and straggler check, never by a deterministic artifact.
void write_heartbeat(const std::string& path, std::size_t journal_cells) {
  std::ofstream out(path, std::ios::trunc);
  if (out) out << journal_cells << ' ' << telemetry::now_us() << '\n';
}

/// Parse a heartbeat file. False when missing/partial (a worker may be
/// mid-rewrite — the next poll catches up).
[[nodiscard]] bool read_heartbeat(const std::string& path,
                                  std::size_t& journal_cells,
                                  std::int64_t& ts_us) {
  std::ifstream in(path);
  if (!in) return false;
  long long cells = -1, ts = -1;
  in >> cells >> ts;
  if (!in || cells < 0 || ts < 0) return false;
  journal_cells = static_cast<std::size_t>(cells);
  ts_us = ts;
  return true;
}

/// Merge every `<out>/workers/*.jsonl` journal, in sorted path order, into
/// the campaign manifest.
std::size_t merge_worker_journals(const CampaignSpec& spec,
                                  const std::string& out_dir,
                                  const std::string& fingerprint,
                                  std::size_t total_cells) {
  std::vector<std::string> journal_paths;
  const std::string workers = out_dir + "/workers";
  if (fs::exists(workers))
    for (const fs::directory_entry& entry : fs::directory_iterator(workers))
      if (entry.path().extension() == ".jsonl")
        journal_paths.push_back(entry.path().string());
  std::sort(journal_paths.begin(), journal_paths.end());
  return merge_journals(journal_paths, out_dir + "/manifest.jsonl", spec.name,
                        fingerprint, total_cells);
}

}  // namespace

CellClaims::CellClaims(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

std::string CellClaims::path_of(std::size_t index) const {
  return dir_ + "/cell_" + std::to_string(index) + ".claim";
}

bool CellClaims::try_claim(std::size_t index, const std::string& owner) const {
#ifndef _WIN32
  // O_CREAT|O_EXCL is atomic on POSIX filesystems: exactly one of N racing
  // contenders sees a fresh fd, everyone else gets EEXIST.
  const int fd = ::open(path_of(index).c_str(),
                        O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const std::string body = owner + "\n";
  // A short or failed write leaves an empty/partial claim file, which still
  // blocks other contenders — the claim itself was already won by open().
  (void)!::write(fd, body.data(), body.size());
  ::close(fd);
  return true;
#else
  (void)index;
  (void)owner;
  throw std::runtime_error("cell claims require POSIX");
#endif
}

std::string CellClaims::owner_of(std::size_t index) const {
  std::ifstream in(path_of(index));
  if (!in) return "";
  std::string owner;
  std::getline(in, owner);
  return owner;
}

void CellClaims::release(std::size_t index) const {
  std::error_code ec;
  fs::remove(path_of(index), ec);
}

void CellClaims::clear() const {
  if (!fs::exists(dir_)) return;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    std::error_code ec;
    fs::remove(entry.path(), ec);
  }
}

std::string claims_dir(const std::string& out_dir) {
  return out_dir + "/claims";
}

std::string worker_journal_path(const std::string& out_dir, int worker_id) {
  return out_dir + "/workers/" + owner_name(worker_id) + ".jsonl";
}

std::string resolved_spec_path(const std::string& out_dir) {
  return out_dir + "/spec.resolved.campaign";
}

std::string worker_heartbeat_path(const std::string& out_dir, int worker_id) {
  return out_dir + "/workers/" + owner_name(worker_id) + ".heartbeat";
}

std::string worker_events_path(const std::string& out_dir, int worker_id) {
  return out_dir + "/trace/" + owner_name(worker_id) + ".events.jsonl";
}

std::size_t run_worker(const CampaignSpec& spec, const WorkerConfig& config) {
  if (config.out_dir.empty())
    throw std::runtime_error("worker mode needs a campaign directory");
  const std::vector<CampaignCell> cells = expand_cells(spec);
  const std::string fingerprint = to_hex(spec_fingerprint(spec));
  const std::string owner = owner_name(config.worker_id);

  // Done-set snapshot: cells the campaign manifest or this worker's own
  // journal (from a previous life of the same worker id) already hold.
  // Cells other *live* workers complete after this snapshot are skipped via
  // their claims instead.
  const std::string journal_path =
      worker_journal_path(config.out_dir, config.worker_id);
  fs::create_directories(config.out_dir + "/workers");
  Journal own = load_journal(journal_path, fingerprint);
  std::set<std::string> done;
  for (const auto& [key, record] : own.records) done.insert(key);
  {
    const Journal manifest =
        load_journal(config.out_dir + "/manifest.jsonl", fingerprint);
    for (const auto& [key, record] : manifest.records) done.insert(key);
  }

  // Crash-recovery test hook, one-shot: the marker file survives this
  // worker's death, so the respawned life runs the campaign to completion
  // instead of crash-looping.
  const std::string crash_marker = journal_path + ".crashed";
  const bool armed = config.crash_after >= 0 && !fs::exists(crash_marker);
  if (armed) std::ofstream(crash_marker) << "armed\n";
#ifndef _WIN32
  if (armed && config.crash_after == 0) ::raise(SIGKILL);
#endif

  JournalWriter writer(journal_path, own, spec.name, fingerprint,
                       cells.size());
  const CellClaims claims(claims_dir(config.out_dir));

  // Side channels: heartbeat from birth (so the driver sees an idle worker
  // as alive, not stale) and, under --trace, per-cell event flushes.
  const std::string heartbeat_path =
      worker_heartbeat_path(config.out_dir, config.worker_id);
  const std::string events_path =
      worker_events_path(config.out_dir, config.worker_id);
  if (config.record_events)
    fs::create_directories(config.out_dir + "/trace");
  std::size_t journaled = own.records.size();
  write_heartbeat(heartbeat_path, journaled);

  // Work stealing: scan the grid in cell order, claiming whatever is left.
  // Repeat until a full pass computes nothing — a later pass picks up
  // claims the driver released after a crashed worker passed this worker's
  // scan position. Cells still claimed by someone else at exit are either
  // being computed by a live worker or fall to the driver's final
  // CampaignRunner pass.
  std::size_t computed = 0;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (const CampaignCell& cell : cells) {
      if (done.count(cell.key) != 0) continue;
      if (!claims.try_claim(cell.index, owner)) continue;
      const JsonObject record =
          CampaignRunner::run_cell(spec, cell, config.runner);
      writer.append(record);
      done.insert(cell.key);
      ++computed;
      ++journaled;
      progressed = true;
      write_heartbeat(heartbeat_path, journaled);
      if (config.record_events) telemetry::append_events_jsonl(events_path);
      if (!config.quiet)
        std::printf("[%s] computed %s\n", owner.c_str(), cell.key.c_str());
#ifndef _WIN32
      if (armed && computed >= static_cast<std::size_t>(config.crash_after))
        ::raise(SIGKILL);
#endif
    }
  }
  writer.close();
  write_heartbeat(heartbeat_path, journaled);
  if (config.record_events) telemetry::append_events_jsonl(events_path);
  return computed;
}

#ifndef _WIN32

namespace {

/// argv for one worker process. Every scheduling knob is forwarded; none of
/// them can change the artifacts (RunnerConfig is pure scheduling).
[[nodiscard]] std::vector<std::string> worker_args(
    const std::string& exe_path, int worker_id,
    const DistributeConfig& config) {
  std::vector<std::string> args = {exe_path,
                                   "--worker",
                                   std::to_string(worker_id),
                                   "--out",
                                   config.out_dir,
                                   "--threads",
                                   std::to_string(config.runner.threads),
                                   "--batch",
                                   std::to_string(config.runner.batch)};
  if (config.quiet) args.push_back("--quiet");
  if (config.trace) args.push_back("--worker-events");
  if (worker_id == 0 && config.crash_worker0_after >= 0) {
    args.push_back("--worker-crash-after");
    args.push_back(std::to_string(config.crash_worker0_after));
  }
  return args;
}

[[nodiscard]] pid_t spawn_worker(const std::string& exe_path, int worker_id,
                                 const DistributeConfig& config) {
  const std::vector<std::string> args =
      worker_args(exe_path, worker_id, config);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execv(exe_path.c_str(), argv.data());
    std::perror("execv");  // only reached when exec itself failed
    ::_exit(127);
  }
  return pid;
}

}  // namespace

DistributeReport distribute_campaign(const CampaignSpec& spec,
                                     const DistributeConfig& config,
                                     const std::string& exe_path) {
  if (config.workers < 1 || config.workers > kMaxWorkers)
    throw std::runtime_error("--distribute needs 1 to " +
                             std::to_string(kMaxWorkers) + " workers");
  if (config.out_dir.empty())
    throw std::runtime_error("--distribute needs --out");

  DistributeReport report;
  const std::vector<CampaignCell> cells = expand_cells(spec);
  report.cells = cells.size();
  // At most one worker per cell: a larger fleet would only start processes
  // that find nothing to claim.
  const int workers = static_cast<int>(
      std::min(static_cast<std::size_t>(config.workers), cells.size()));
  report.workers = workers;
  const std::string fingerprint = to_hex(spec_fingerprint(spec));

  fs::create_directories(config.out_dir + "/workers");

  // The resolved spec shuttles the campaign to the workers: describe()
  // round-trips through parse_spec, and the fingerprint check in every
  // journal load would catch any drift.
  {
    const std::string path = resolved_spec_path(config.out_dir);
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << describe(spec);
  }

  // Stale side-channel files would pollute this run's progress/trace:
  // heartbeats are per-run liveness, and a --trace merge must not pick up a
  // previous run's events. Journals are never touched here.
  for (int id = 0; id < workers; ++id) {
    std::error_code ec;
    fs::remove(worker_heartbeat_path(config.out_dir, id), ec);
  }
  if (fs::exists(config.out_dir + "/trace"))
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config.out_dir + "/trace")) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }

  // Reuse earlier work before spawning anything: worker journals from an
  // interrupted driver run hold completed cells the manifest may lack.
  std::size_t done_at_start = 0;
  {
    const telemetry::Span merge_span("distribute", "merge:before");
    report.merged_before = merge_worker_journals(spec, config.out_dir,
                                                 fingerprint, cells.size());
    done_at_start =
        load_journal(config.out_dir + "/manifest.jsonl", fingerprint)
            .records.size();
  }

  // Claims only coordinate the workers of one driver run; completed work is
  // protected by journals. Stale claims from a dead run would deadlock the
  // grid, so start clean.
  const CellClaims claims(claims_dir(config.out_dir));
  claims.clear();

  const int budget =
      config.respawn_budget >= 0 ? config.respawn_budget : 2 * workers;

  std::map<pid_t, int> alive;  // pid -> worker id
  {
    const telemetry::Span spawn_span("distribute", "spawn_workers");
    for (int id = 0; id < workers; ++id) {
      const pid_t pid = spawn_worker(exe_path, id, config);
      alive.emplace(pid, id);
      if (!config.quiet)
        std::printf("[distribute] worker %d spawned (pid %d)\n", id,
                    static_cast<int>(pid));
    }
  }

  // ---- Supervision state (pure side channel: progress line, straggler
  // flags, ETA — none of it can reach an artifact). Heartbeats report each
  // worker's own-journal size; claims make journals disjoint, so total
  // progress is the manifest baseline plus each worker's increment over the
  // first value it ever reported (a respawn's journal carries over, so the
  // baseline survives worker lives).
  struct WorkerWatch {
    bool seen = false;
    std::size_t first_cells = 0;  ///< baseline at first heartbeat
    std::size_t cells = 0;        ///< latest own-journal size
    std::int64_t last_ts_us = 0;  ///< latest heartbeat timestamp
    bool flagged = false;         ///< straggler warning issued this life
  };
  std::map<int, WorkerWatch> watch;
  const std::int64_t supervise_start_us = telemetry::now_us();
  std::int64_t last_print_us = supervise_start_us;
  std::size_t last_done = static_cast<std::size_t>(-1);

  const auto poll_side_channels = [&]() {
    const std::int64_t now = telemetry::now_us();
    std::set<int> alive_ids;
    for (const auto& [pid, id] : alive) {
      (void)pid;
      alive_ids.insert(id);
    }
    std::size_t increments = 0;
    for (int id = 0; id < workers; ++id) {
      WorkerWatch& w = watch[id];
      std::size_t hb_cells = 0;
      std::int64_t hb_ts = 0;
      if (!read_heartbeat(worker_heartbeat_path(config.out_dir, id), hb_cells,
                          hb_ts))
        continue;
      if (!w.seen) {
        w.seen = true;
        w.first_cells = hb_cells;
      }
      if (hb_cells > w.cells) w.flagged = false;  // progressed: new grace
      w.cells = std::max(w.cells, hb_cells);
      w.last_ts_us = std::max(w.last_ts_us, hb_ts);

      if (alive_ids.count(id) != 0 && !w.flagged &&
          config.straggler_after_s > 0 &&
          static_cast<double>(now - w.last_ts_us) >
              config.straggler_after_s * 1e6) {
        w.flagged = true;
        ++report.stragglers_flagged;
        std::fprintf(stderr,
                     "[distribute] worker %d may be straggling: no "
                     "heartbeat for %.1fs\n",
                     id, static_cast<double>(now - w.last_ts_us) / 1e6);
        telemetry::instant("distribute", "straggler w" + std::to_string(id));
      }
    }
    for (const auto& [id, w] : watch)
      if (w.seen) increments += w.cells - w.first_cells;

    const std::size_t done =
        std::min(cells.size(), done_at_start + increments);
    const bool due = (now - last_print_us) >=
                     static_cast<std::int64_t>(config.progress_interval_ms) *
                         1000;
    if (!config.quiet && (done != last_done || due)) {
      const double elapsed_s =
          static_cast<double>(now - supervise_start_us) / 1e6;
      const double rate =
          elapsed_s > 0.0 ? static_cast<double>(increments) / elapsed_s : 0.0;
      const std::size_t remaining = cells.size() - done;
      if (rate > 0.0)
        std::printf("[progress] %zu/%zu cells, %.2f cells/s, ETA %.1fs\n",
                    done, cells.size(), rate,
                    static_cast<double>(remaining) / rate);
      else
        std::printf("[progress] %zu/%zu cells, 0.00 cells/s, ETA --\n", done,
                    cells.size());
      std::fflush(stdout);
      last_print_us = now;
      last_done = done;
    }
  };

  std::optional<telemetry::Span> supervise_span;
  supervise_span.emplace("distribute", "supervise");
  while (!alive.empty()) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid < 0) throw std::runtime_error("waitpid failed");
    if (pid == 0) {
      // Nobody exited: poll the side channels, then yield. 50ms keeps the
      // progress line live without measurable supervision overhead.
      poll_side_channels();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    const auto it = alive.find(pid);
    if (it == alive.end()) continue;  // not ours (e.g. inherited child)
    const int id = it->second;
    alive.erase(it);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      if (!config.quiet) std::printf("[distribute] worker %d finished\n", id);
      continue;
    }

    // Crash path: the worker died mid-campaign (SIGKILL, abort, OOM...).
    // Its journal keeps every cell it completed; release only the claims it
    // abandoned, so the other workers — or its own respawn — can steal
    // them.
    const Journal journal = load_journal(
        worker_journal_path(config.out_dir, id), fingerprint);
    const std::string owner = owner_name(id);
    std::size_t released = 0;
    for (const CampaignCell& cell : cells) {
      if (journal.records.count(cell.key) != 0) continue;
      if (claims.owner_of(cell.index) != owner) continue;
      claims.release(cell.index);
      ++released;
    }

    if (report.respawns < budget) {
      ++report.respawns;
      const pid_t fresh = spawn_worker(exe_path, id, config);
      alive.emplace(fresh, id);
      watch[id].flagged = false;  // the fresh life gets a fresh grace period
      telemetry::instant("distribute", "respawn w" + std::to_string(id));
      if (!config.quiet)
        std::printf(
            "[distribute] worker %d died (status 0x%x); released %zu "
            "claims, respawning (%d/%d)\n",
            id, static_cast<unsigned>(status), released, report.respawns,
            budget);
    } else {
      ++report.failed_workers;
      telemetry::instant("distribute", "abandon w" + std::to_string(id));
      if (!config.quiet)
        std::printf(
            "[distribute] worker %d died (status 0x%x); released %zu "
            "claims, respawn budget spent — leaving its cells to the "
            "final pass\n",
            id, static_cast<unsigned>(status), released);
    }
  }

  supervise_span.reset();

  // Final poll so the last progress line reflects the finished fleet.
  last_done = static_cast<std::size_t>(-1);
  poll_side_channels();
  {
    const telemetry::Span merge_span("distribute", "merge:after");
    report.merged_after = merge_worker_journals(spec, config.out_dir,
                                                fingerprint, cells.size());
  }
  return report;
}

#else  // !_WIN32

DistributeReport distribute_campaign(const CampaignSpec&,
                                     const DistributeConfig&,
                                     const std::string&) {
  throw std::runtime_error("--distribute requires POSIX (fork/exec)");
}

#endif

}  // namespace rrb::exp

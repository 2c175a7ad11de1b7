#include "rrb/exp/distribute.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rrb/exp/campaign.hpp"
#include "rrb/exp/journal.hpp"
#include "rrb/exp/spec.hpp"

/// Distributed-executor tests: the atomic cell-claim protocol, the
/// crash-tolerant journal loader, writer (truncated-tail repair) and merge,
/// and the worker claim loop — everything of `rrb_campaign --distribute K`
/// that does not require fork/exec of the real binary. The process-level
/// driver (spawn, supervise, respawn, merge) is exercised end-to-end by
/// the CTest fixtures in bench/CMakeLists.txt.

namespace rrb::exp {
namespace {

namespace fs = std::filesystem;

/// Tiny static grid: 2 schemes x 2 n = 4 cells, 2 trials each — small
/// enough that truncation sweeps over the whole manifest stay cheap.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "dtiny";
  spec.seed = 0xd157;
  spec.trials = 2;
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kFourChoice};
  spec.n_values = {32, 64};
  spec.d_values = {6};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "rrb_distribute_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::string fingerprint_of(const CampaignSpec& spec) {
  return to_hex(spec_fingerprint(spec));
}

/// The three deterministic artifacts (results + meta; the manifest is
/// order-dependent and timing.jsonl is a side channel).
struct ArtifactBytes {
  std::string results_json;
  std::string results_csv;
  std::string meta;
};

ArtifactBytes artifacts_of(const std::string& dir) {
  return {read_file(dir + "/results.jsonl"), read_file(dir + "/results.csv"),
          read_file(dir + "/campaign.json")};
}

ArtifactBytes run_to_dir(const CampaignSpec& spec, const std::string& dir) {
  CampaignConfig config;
  config.out_dir = dir;
  CampaignRunner runner(spec, config);
  (void)runner.run();
  return artifacts_of(dir);
}

// ---- Claim protocol --------------------------------------------------------

TEST(CellClaims, FirstClaimWinsSecondLoses) {
  const std::string dir = temp_dir("claims_basic");
  const CellClaims claims(dir);
  EXPECT_EQ(claims.owner_of(3), "");
  EXPECT_TRUE(claims.try_claim(3, "w0"));
  EXPECT_FALSE(claims.try_claim(3, "w1"));  // already taken
  EXPECT_FALSE(claims.try_claim(3, "w0"));  // not even by its own owner
  EXPECT_EQ(claims.owner_of(3), "w0");
  claims.release(3);
  EXPECT_EQ(claims.owner_of(3), "");
  EXPECT_TRUE(claims.try_claim(3, "w1"));
  EXPECT_EQ(claims.owner_of(3), "w1");
  claims.clear();
  EXPECT_EQ(claims.owner_of(3), "");
}

TEST(CellClaims, TwoRacersPerCellExactlyOneWins) {
  const std::string dir = temp_dir("claims_race");
  const CellClaims claims(dir);
  constexpr std::size_t kCells = 200;

  std::vector<std::size_t> wins_a, wins_b;
  std::thread racer_a([&] {
    for (std::size_t i = 0; i < kCells; ++i)
      if (claims.try_claim(i, "a")) wins_a.push_back(i);
  });
  std::thread racer_b([&] {
    for (std::size_t i = 0; i < kCells; ++i)
      if (claims.try_claim(i, "b")) wins_b.push_back(i);
  });
  racer_a.join();
  racer_b.join();

  // Every cell claimed exactly once: the two win sets partition the range.
  EXPECT_EQ(wins_a.size() + wins_b.size(), kCells);
  std::set<std::size_t> all(wins_a.begin(), wins_a.end());
  all.insert(wins_b.begin(), wins_b.end());
  EXPECT_EQ(all.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    const std::string owner = claims.owner_of(i);
    EXPECT_TRUE(owner == "a" || owner == "b") << "cell " << i;
  }
}

// ---- Journal loading and tail repair ---------------------------------------

TEST(Journal, LoadsRecordsSkipsDamageAndTracksCleanSize) {
  const std::string dir = temp_dir("journal_load");
  fs::create_directories(dir);
  const std::string path = dir + "/j.jsonl";
  const std::string good =
      "{\"campaign\": \"x\", \"fingerprint\": \"0xf\", \"cells\": 2}\n"
      "{\"key\": \"a\", \"v\": 1}\n"
      "{\"key\": \"b\", \"v\": 2}\n";
  write_file(path, good + "{\"key\": \"c\", \"v\"");  // truncated tail

  const Journal journal = load_journal(path, "0xf");
  EXPECT_TRUE(journal.saw_header);
  EXPECT_EQ(journal.records.size(), 2U);
  EXPECT_EQ(journal.skipped, 1U);
  EXPECT_EQ(journal.clean_size, good.size());

  // The writer cuts the partial tail, so appending starts on a fresh line.
  {
    JournalWriter writer(path, journal, "x", "0xf", 2);
    JsonObject record;
    record.set("key", "c").set("v", std::uint64_t{3});
    writer.append(record);
  }
  const Journal repaired = load_journal(path, "0xf");
  EXPECT_EQ(repaired.records.size(), 3U);
  EXPECT_EQ(repaired.skipped, 0U);
  EXPECT_EQ(read_file(path), good + "{\"key\": \"c\", \"v\": 3}\n");
}

TEST(Journal, KeepsCompleteFinalLineWithoutNewline) {
  const std::string dir = temp_dir("journal_nonl");
  fs::create_directories(dir);
  const std::string path = dir + "/j.jsonl";
  write_file(path,
             "{\"campaign\": \"x\", \"fingerprint\": \"0xf\", \"cells\": 1}\n"
             "{\"key\": \"a\", \"v\": 1}");  // complete record, no newline

  const Journal journal = load_journal(path, "0xf");
  EXPECT_EQ(journal.records.size(), 1U);
  EXPECT_EQ(journal.skipped, 0U);

  JournalWriter writer(path, journal, "x", "0xf", 1);
  JsonObject record;
  record.set("key", "b").set("v", std::uint64_t{2});
  writer.append(record);
  writer.close();
  const Journal reread = load_journal(path, "0xf");
  EXPECT_EQ(reread.records.size(), 2U);  // "a" kept, "b" on its own line
  EXPECT_EQ(reread.skipped, 0U);
}

TEST(Journal, RefusesForeignFingerprintAndHeaderlessRecords) {
  const std::string dir = temp_dir("journal_refuse");
  fs::create_directories(dir);
  const std::string foreign = dir + "/foreign.jsonl";
  write_file(foreign,
             "{\"campaign\": \"x\", \"fingerprint\": \"0xbad\"}\n");
  EXPECT_THROW((void)load_journal(foreign, "0xf"), std::runtime_error);

  const std::string headerless = dir + "/headerless.jsonl";
  write_file(headerless, "{\"key\": \"a\", \"v\": 1}\n");
  EXPECT_THROW((void)load_journal(headerless, "0xf"), std::runtime_error);

  const Journal missing = load_journal(dir + "/missing.jsonl", "0xf");
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.saw_header);
}

TEST(Journal, MergeRefusesForeignSourcesAndDropsTruncatedTails) {
  const std::string dir = temp_dir("journal_merge");
  fs::create_directories(dir);
  const std::string header =
      "{\"campaign\": \"x\", \"fingerprint\": \"0xf\", \"cells\": 3}\n";
  const std::string target = dir + "/manifest.jsonl";
  const std::string target_bytes = header + "{\"key\": \"a\", \"v\": 1}\n";
  write_file(target, target_bytes);
  const std::string good = dir + "/good.jsonl";
  write_file(good, header + "{\"key\": \"b\", \"v\": 2}\n");

  // Another spec's journal, or records without a header, are refused
  // before a single byte is written — even behind a valid source.
  const std::string foreign = dir + "/foreign.jsonl";
  write_file(foreign,
             "{\"campaign\": \"y\", \"fingerprint\": \"0xbad\"}\n"
             "{\"key\": \"c\", \"v\": 3}\n");
  EXPECT_THROW((void)merge_journals({good, foreign}, target, "x", "0xf", 3),
               std::runtime_error);
  EXPECT_EQ(read_file(target), target_bytes);
  const std::string headerless = dir + "/headerless.jsonl";
  write_file(headerless, "{\"key\": \"c\", \"v\": 3}\n");
  EXPECT_THROW((void)merge_journals({good, headerless}, target, "x", "0xf", 3),
               std::runtime_error);
  EXPECT_EQ(read_file(target), target_bytes);

  // A killed writer's truncated final line is skipped and never reaches the
  // target; a cell the target already holds is not appended again.
  const std::string truncated = dir + "/truncated.jsonl";
  write_file(truncated, header + "{\"key\": \"a\", \"v\": 1}\n" +
                            "{\"key\": \"c\", \"v\"");
  EXPECT_EQ(merge_journals({good, truncated}, target, "x", "0xf", 3), 1U);
  EXPECT_EQ(read_file(target), target_bytes + "{\"key\": \"b\", \"v\": 2}\n");
  const Journal merged = load_journal(target, "0xf");
  EXPECT_EQ(merged.records.size(), 2U);
  EXPECT_EQ(merged.skipped, 0U);
}

/// The satellite hardening test: truncate the campaign manifest at every
/// byte boundary and resume. Whatever prefix survives a mid-write kill,
/// the resumed artifacts must be byte-identical to the uninterrupted run
/// — partial lines are skipped and their cells recomputed.
TEST(Journal, ResumeFromEveryTruncationIsByteIdentical) {
  const CampaignSpec spec = tiny_spec();
  const std::string ref_dir = temp_dir("trunc_ref");
  const ArtifactBytes reference = run_to_dir(spec, ref_dir);
  const std::string manifest = read_file(ref_dir + "/manifest.jsonl");
  ASSERT_GT(manifest.size(), 0U);

  const std::string dir = temp_dir("trunc_resume");
  for (std::size_t cut = 0; cut < manifest.size(); ++cut) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_file(dir + "/manifest.jsonl", manifest.substr(0, cut));
    const ArtifactBytes resumed = run_to_dir(spec, dir);
    ASSERT_EQ(resumed.results_json, reference.results_json) << "cut " << cut;
    ASSERT_EQ(resumed.results_csv, reference.results_csv) << "cut " << cut;
    ASSERT_EQ(resumed.meta, reference.meta) << "cut " << cut;
  }
}

// ---- Worker claim loop -----------------------------------------------------

TEST(RunWorker, ComputesTheWholeGridAloneAndResumesToNothing) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("worker_solo");
  WorkerConfig config;
  config.worker_id = 0;
  config.out_dir = dir;
  config.quiet = true;
  EXPECT_EQ(run_worker(spec, config), 4U);
  EXPECT_EQ(run_worker(spec, config), 0U);  // own journal already has all

  const Journal journal =
      load_journal(worker_journal_path(dir, 0), fingerprint_of(spec));
  EXPECT_EQ(journal.records.size(), 4U);

  // The worker's records are exactly what the runner computes — merged
  // into the campaign directory they reproduce the single-process bytes.
  for (const CampaignCell& cell : expand_cells(spec))
    EXPECT_EQ(journal.records.at(cell.key).to_line(),
              CampaignRunner::run_cell(spec, cell, config.runner).to_line());
}

TEST(RunWorker, SkipsCellsClaimedByOthersAndCellsAlreadyInManifest) {
  const CampaignSpec spec = tiny_spec();
  const std::vector<CampaignCell> cells = expand_cells(spec);
  const std::string dir = temp_dir("worker_skip");

  // A full single-process run first: its manifest marks everything done.
  (void)run_to_dir(spec, dir);
  WorkerConfig config;
  config.worker_id = 0;
  config.out_dir = dir;
  config.quiet = true;
  EXPECT_EQ(run_worker(spec, config), 0U);

  // Fresh directory, two cells pre-claimed by a (virtual) other worker:
  // the worker computes exactly the complement.
  const std::string dir2 = temp_dir("worker_skip2");
  fs::create_directories(dir2);
  const CellClaims claims(claims_dir(dir2));
  ASSERT_TRUE(claims.try_claim(cells[0].index, "w9"));
  ASSERT_TRUE(claims.try_claim(cells[2].index, "w9"));
  config.out_dir = dir2;
  EXPECT_EQ(run_worker(spec, config), 2U);
  const Journal journal =
      load_journal(worker_journal_path(dir2, 0), fingerprint_of(spec));
  EXPECT_EQ(journal.records.count(cells[0].key), 0U);
  EXPECT_EQ(journal.records.count(cells[1].key), 1U);
  EXPECT_EQ(journal.records.count(cells[2].key), 0U);
  EXPECT_EQ(journal.records.count(cells[3].key), 1U);
}

TEST(RunWorker, TwoConcurrentWorkersPartitionTheGrid) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("worker_race");

  auto body = [&](int id) {
    WorkerConfig config;
    config.worker_id = id;
    config.out_dir = dir;
    config.quiet = true;
    config.runner.threads = 1;
    (void)run_worker(spec, config);
  };
  std::thread worker_a([&] { body(0); });
  std::thread worker_b([&] { body(1); });
  worker_a.join();
  worker_b.join();

  // Exactly one of the two journals holds each cell.
  const std::string fingerprint = fingerprint_of(spec);
  const Journal journal_a =
      load_journal(worker_journal_path(dir, 0), fingerprint);
  const Journal journal_b =
      load_journal(worker_journal_path(dir, 1), fingerprint);
  EXPECT_EQ(journal_a.records.size() + journal_b.records.size(), 4U);
  for (const auto& [key, record] : journal_a.records)
    EXPECT_EQ(journal_b.records.count(key), 0U) << key;
}

#ifndef _WIN32
using RunWorkerDeathTest = ::testing::Test;

TEST(RunWorkerDeathTest, CrashHookKillsOnceThenResumeCompletes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("worker_crash");
  WorkerConfig config;
  config.worker_id = 0;
  config.out_dir = dir;
  config.quiet = true;
  config.crash_after = 2;

  // First life: journals exactly two cells, then dies by SIGKILL. The
  // death-test child shares the temp dir, so its journal survives here.
  EXPECT_EXIT((void)run_worker(spec, config),
              ::testing::KilledBySignal(SIGKILL), "");
  const std::string fingerprint = fingerprint_of(spec);
  EXPECT_EQ(load_journal(worker_journal_path(dir, 0), fingerprint)
                .records.size(),
            2U);

  // Second life: the marker disarms the hook, the claims its first life
  // left behind are stale — release them as the driver would — and the
  // worker finishes the grid.
  const CellClaims claims(claims_dir(dir));
  claims.clear();
  EXPECT_EQ(run_worker(spec, config), 2U);
  EXPECT_EQ(load_journal(worker_journal_path(dir, 0), fingerprint)
                .records.size(),
            4U);
}
#endif

// ---- Spec axes feeding the migrated benches --------------------------------

TEST(ChoicesAxis, DefaultAddsNoKeyPartAndOverrideAppendsOne) {
  CampaignSpec spec = tiny_spec();
  const std::vector<CampaignCell> plain = expand_cells(spec);
  for (const CampaignCell& cell : plain)
    EXPECT_EQ(cell.key.find("choices"), std::string::npos);

  spec.choices = {0, 3};
  const std::vector<CampaignCell> swept = expand_cells(spec);
  ASSERT_EQ(swept.size(), 2 * plain.size());
  // The k = 0 cells are byte-for-byte the plain cells (same key, same
  // seed): adding the axis moved nothing.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(swept[2 * i].key, plain[i].key);
    EXPECT_EQ(swept[2 * i].seed, plain[i].seed);
    EXPECT_EQ(swept[2 * i + 1].key, plain[i].key + ";choices=3");
  }
}

TEST(ChoicesAxis, RoundTripsThroughDescribeAndChangesFingerprint) {
  CampaignSpec spec = tiny_spec();
  const std::uint64_t plain_fingerprint = spec_fingerprint(spec);
  EXPECT_EQ(describe(spec).find("choices"), std::string::npos);

  spec.choices = {1, 2, 3};
  EXPECT_NE(spec_fingerprint(spec), plain_fingerprint);
  std::istringstream in(describe(spec));
  const CampaignSpec reparsed = parse_spec(in);
  EXPECT_EQ(reparsed.choices, spec.choices);
  EXPECT_EQ(describe(reparsed), describe(spec));

  EXPECT_THROW((void)apply_setting(spec, "choices", "9999"),
               std::runtime_error);
}

TEST(DerivedDegree, TwoLogTwoNDerivesPerCellAndRoundTrips) {
  CampaignSpec spec = tiny_spec();
  apply_setting(spec, "d", "2log2n");
  EXPECT_TRUE(spec.derived_d);
  const std::vector<CampaignCell> cells = expand_cells(spec);
  for (const CampaignCell& cell : cells)
    EXPECT_EQ(cell.d, cell.n == 32 ? 10U : 12U) << cell.key;

  EXPECT_NE(describe(spec).find("d = 2log2n"), std::string::npos);
  std::istringstream in(describe(spec));
  const CampaignSpec reparsed = parse_spec(in);
  EXPECT_TRUE(reparsed.derived_d);
  EXPECT_EQ(describe(reparsed), describe(spec));

  // Numeric d switches the mode back off.
  apply_setting(spec, "d", "6");
  EXPECT_FALSE(spec.derived_d);
  EXPECT_EQ(spec.d_values, (std::vector<NodeId>{6}));

  // Families that already derive d reject the rule; so does a multi-value
  // d axis left over in the spec.
  CampaignSpec hyper = tiny_spec();
  hyper.schemes = {BroadcastScheme::kPush};
  hyper.graph = GraphFamily::kHypercube;
  hyper.derived_d = true;
  EXPECT_THROW((void)expand_cells(hyper), std::runtime_error);
}

}  // namespace
}  // namespace rrb::exp

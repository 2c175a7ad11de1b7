#include "rrb/exp/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "rrb/exp/spec.hpp"
#include "rrb/graph/generators.hpp"
#include "rrb/rng/rng.hpp"
#include "rrb/sim/trial.hpp"

/// Campaign subsystem tests: spec parsing/expansion, the cell-key/seed
/// contract (golden-pinned like tests/test_rng.cpp), and the artifact
/// determinism guarantees — byte-identical files for every thread count,
/// across interrupt-and-resume, and across shard splits.

namespace rrb::exp {
namespace {

namespace fs = std::filesystem;

/// The tiny grid most tests run: 2 schemes x 1 n x 1 d x 2 churn = 4 cells
/// (two static, two on the churn overlay), 3 trials each.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.seed = 0x7e57;
  spec.trials = 3;
  spec.schemes = {BroadcastScheme::kPush, BroadcastScheme::kFourChoice};
  spec.n_values = {64};
  spec.d_values = {6};
  spec.churn_rates = {0.0, 2.0};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Fresh artifact directory under the gtest temp root.
std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "rrb_campaign_" + tag;
  fs::remove_all(dir);
  return dir;
}

// ---- Spec parsing ----------------------------------------------------------

TEST(CampaignSpecParse, ParsesKeysListsCommentsAndShorthands) {
  std::istringstream in(
      "# a comment\n"
      "name = demo   # trailing comment\n"
      "seed = 0xbeef\n"
      "trials = 7\n"
      "source = fixed\n"
      "graph = gnp\n"
      "scheme = push, median, four-choice/sequentialised\n"
      "n = 2^10, 2048\n"
      "d = 8\n"
      "\n"
      "alpha = 1.5, 2\n"
      "failure = 0.0, 0.1\n"
      "churn = 0\n");
  const CampaignSpec spec = parse_spec(in);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 0xbeefU);
  EXPECT_EQ(spec.trials, 7);
  EXPECT_FALSE(spec.random_source);
  EXPECT_EQ(spec.graph, GraphFamily::kGnp);
  ASSERT_EQ(spec.schemes.size(), 3U);
  EXPECT_EQ(spec.schemes[0], BroadcastScheme::kPush);
  EXPECT_EQ(spec.schemes[1], BroadcastScheme::kMedianCounter);  // alias
  EXPECT_EQ(spec.schemes[2], BroadcastScheme::kSequentialised);
  EXPECT_EQ(spec.n_values, (std::vector<NodeId>{1024, 2048}));
  EXPECT_EQ(spec.alphas, (std::vector<double>{1.5, 2.0}));
  EXPECT_EQ(spec.failures, (std::vector<double>{0.0, 0.1}));
}

TEST(CampaignSpecParse, RejectsBadInputWithLineNumbers) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_spec(in);
  };
  EXPECT_THROW((void)parse("bogus_key = 1\n"), std::runtime_error);
  EXPECT_THROW((void)parse("scheme = warp-speed\n"), std::runtime_error);
  EXPECT_THROW((void)parse("n = 1\n"), std::runtime_error);   // n >= 2
  EXPECT_THROW((void)parse("trials = 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW((void)parse("n = 2^70\n"), std::runtime_error);
  EXPECT_THROW((void)parse("chunks = 4\n"), std::runtime_error);  // no such key
  try {
    (void)parse("trials = 3\nbad = 1\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignSpecParse, ParseSchemeCoversTheWholeTable) {
  for (const BroadcastScheme scheme : kAllSchemes)
    EXPECT_EQ(parse_scheme(scheme_name(scheme)), scheme);
  EXPECT_FALSE(parse_scheme("warp-speed").has_value());
}

// ---- Expansion, keys, seeds ------------------------------------------------

TEST(CampaignExpand, OrderIsSchemeMajorThenAxes) {
  const CampaignSpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4U);
  EXPECT_EQ(cells[0].scheme, BroadcastScheme::kPush);
  EXPECT_EQ(cells[0].churn, 0.0);
  EXPECT_EQ(cells[1].scheme, BroadcastScheme::kPush);
  EXPECT_EQ(cells[1].churn, 2.0);
  EXPECT_EQ(cells[2].scheme, BroadcastScheme::kFourChoice);
  EXPECT_EQ(cells[3].scheme, BroadcastScheme::kFourChoice);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].overlay, cells[i].churn > 0.0);
  }
}

TEST(CampaignExpand, CellKeysAreCanonicalGoldenStrings) {
  CampaignSpec spec;
  spec.seed = 0x5110ce;
  spec.schemes = {BroadcastScheme::kPush};
  spec.n_values = {256};
  spec.d_values = {8};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_EQ(cells[0].key,
            "scheme=push;qr=0;graph=regular;n=256;d=8;alpha=1.5;"
            "failure=0;churn=0");

  CampaignSpec overlay_spec;
  overlay_spec.seed = 0xed;
  overlay_spec.overlay = true;
  overlay_spec.churn_rates = {0.0, 4.0};
  const auto overlay_cells = expand_cells(overlay_spec);
  ASSERT_EQ(overlay_cells.size(), 2U);
  EXPECT_EQ(overlay_cells[0].key,
            "scheme=four-choice;qr=0;graph=regular;n=1024;d=8;alpha=1.5;"
            "failure=0;churn=0;overlay=1;switches=2;headroom=0.5");
  EXPECT_EQ(overlay_cells[1].key,
            "scheme=four-choice;qr=0;graph=regular;n=1024;d=8;alpha=1.5;"
            "failure=0;churn=4;overlay=1;switches=2;headroom=0.5");
}

// Golden cell seeds, pinned the way tests/test_rng.cpp pins derive_seed:
// recorded campaigns depend on these values never changing.
TEST(CampaignExpand, CellSeedsAreGoldenPinned) {
  EXPECT_EQ(cell_seed(0x5110ce,
                      "scheme=push;qr=0;graph=regular;n=256;d=8;alpha=1.5;"
                      "failure=0;churn=0"),
            0xfd5e63c200d95515ULL);
  EXPECT_EQ(cell_seed(1, "a"), 0x9d8ad65aa99afc63ULL);

  CampaignSpec overlay_spec;
  overlay_spec.seed = 0xed;
  overlay_spec.overlay = true;
  overlay_spec.churn_rates = {0.0, 4.0};
  const auto cells = expand_cells(overlay_spec);
  ASSERT_EQ(cells.size(), 2U);
  EXPECT_EQ(cells[0].seed, 0x9af00df3521e90f1ULL);
  EXPECT_EQ(cells[1].seed, 0xd4b6e5d6737db493ULL);
}

TEST(CampaignExpand, SeedDependsOnlyOnCampaignSeedAndKey) {
  // Growing the grid around a cell must not move its seed.
  CampaignSpec small = tiny_spec();
  CampaignSpec big = tiny_spec();
  big.n_values = {64, 128};
  big.schemes.push_back(BroadcastScheme::kPull);
  const auto small_cells = expand_cells(small);
  const auto big_cells = expand_cells(big);
  for (const CampaignCell& cell : small_cells) {
    bool found = false;
    for (const CampaignCell& other : big_cells)
      if (other.key == cell.key) {
        EXPECT_EQ(other.seed, cell.seed);
        found = true;
      }
    EXPECT_TRUE(found) << cell.key;
  }
}

TEST(CampaignExpand, RejectsInvalidCombinations) {
  CampaignSpec churn_on_gnp = tiny_spec();
  churn_on_gnp.graph = GraphFamily::kGnp;
  EXPECT_THROW((void)expand_cells(churn_on_gnp), std::runtime_error);

  CampaignSpec odd_hypercube;
  odd_hypercube.graph = GraphFamily::kHypercube;
  odd_hypercube.n_values = {24};
  EXPECT_THROW((void)expand_cells(odd_hypercube), std::runtime_error);

  CampaignSpec no_axis = tiny_spec();
  no_axis.schemes.clear();
  EXPECT_THROW((void)expand_cells(no_axis), std::runtime_error);

  // NaN axis values must fail validation, not run as a bogus grid point.
  CampaignSpec nan_failure = tiny_spec();
  nan_failure.failures = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)expand_cells(nan_failure), std::runtime_error);
  CampaignSpec nan_churn = tiny_spec();
  nan_churn.churn_rates = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)expand_cells(nan_churn), std::runtime_error);

  // Quasirandom crossed with the sequentialised scheme's memory window is
  // rejected at expansion, not mid-campaign at engine construction.
  CampaignSpec qr_seq = tiny_spec();
  qr_seq.schemes = {BroadcastScheme::kSequentialised};
  qr_seq.quasirandom = {false, true};
  EXPECT_THROW((void)expand_cells(qr_seq), std::runtime_error);
}

TEST(CampaignExpand, FamiliesThatDeriveDegreeNormaliseTheDAxis) {
  // hypercube/complete ignore d: a multi-valued d axis would duplicate
  // identical experiments under different seeds, so it is rejected, and
  // the single allowed value is normalised to the derived degree so cell
  // keys are honest about the topology.
  CampaignSpec spec;
  spec.graph = GraphFamily::kHypercube;
  spec.n_values = {256};
  spec.d_values = {8, 12};
  EXPECT_THROW((void)expand_cells(spec), std::runtime_error);

  spec.d_values = {3};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_EQ(cells[0].d, 8U);  // dim of the 256-node hypercube

  CampaignSpec complete_spec;
  complete_spec.graph = GraphFamily::kComplete;
  complete_spec.n_values = {32};
  const auto complete_cells = expand_cells(complete_spec);
  ASSERT_EQ(complete_cells.size(), 1U);
  EXPECT_EQ(complete_cells[0].d, 31U);
}

// ---- bigtopo-era axes: chunked family, degree rules, memory axis -----------

TEST(CampaignExpand, ChunkedAndProductFamiliesRoundTrip) {
  EXPECT_EQ(parse_graph_family("chunked"), GraphFamily::kChunked);
  EXPECT_EQ(parse_graph_family("regular-x-k5"), GraphFamily::kProductK5);
  EXPECT_STREQ(graph_family_name(GraphFamily::kChunked), "chunked");
  EXPECT_STREQ(graph_family_name(GraphFamily::kProductK5), "regular-x-k5");

  std::istringstream in(
      "name = big\n"
      "graph = chunked\n"
      "scheme = push\n"
      "n = 2^20\n"
      "d = 3, log2n, sqrtn\n");
  const CampaignSpec spec = parse_spec(in);
  EXPECT_EQ(spec.graph, GraphFamily::kChunked);
  ASSERT_EQ(spec.d_rules.size(), 3U);
  EXPECT_EQ(spec.d_rules[0], (DegreeSpec{DegreeRule::kLiteral, 3}));
  EXPECT_EQ(spec.d_rules[1], (DegreeSpec{DegreeRule::kLog2N, 0}));
  EXPECT_EQ(spec.d_rules[2], (DegreeSpec{DegreeRule::kSqrtN, 0}));

  // describe() spells the rules back, so the round-trip is byte-stable.
  const std::string described = describe(spec);
  EXPECT_NE(described.find("d = 3, log2n, sqrtn"), std::string::npos);
  std::istringstream again(described);
  EXPECT_EQ(spec_fingerprint(parse_spec(again)), spec_fingerprint(spec));
}

TEST(CampaignExpand, DegreeRulesResolvePerN) {
  CampaignSpec spec;
  spec.graph = GraphFamily::kChunked;
  spec.schemes = {BroadcastScheme::kPush};
  spec.n_values = {1 << 16};
  spec.d_rules = {{DegreeRule::kLiteral, 3},
                  {DegreeRule::kLog2N, 0},
                  {DegreeRule::kTwoLog2N, 0},
                  {DegreeRule::kSqrtN, 0}};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4U);
  EXPECT_EQ(cells[0].d, 3U);
  EXPECT_EQ(cells[1].d, 16U);   // ceil(log2 2^16)
  EXPECT_EQ(cells[2].d, 32U);
  EXPECT_EQ(cells[3].d, 256U);  // floor(sqrt 2^16)
  // The key carries the resolved degree, not the rule spelling.
  EXPECT_NE(cells[3].key.find(";n=65536;d=256;"), std::string::npos)
      << cells[3].key;

  // Two rules colliding at some n would put two cells under one key.
  CampaignSpec dup = spec;
  dup.n_values = {16};  // log2n and sqrtn both resolve to 4
  dup.d_rules = {{DegreeRule::kLog2N, 0}, {DegreeRule::kSqrtN, 0}};
  EXPECT_THROW((void)expand_cells(dup), std::runtime_error);
}

TEST(CampaignExpand, MemoryAxisExtendsKeysOnlyWhenPresent) {
  CampaignSpec spec = tiny_spec();
  spec.churn_rates = {0.0};
  spec.schemes = {BroadcastScheme::kSequentialised};
  spec.memory_values = {3, 0};
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 2U);
  EXPECT_NE(cells[0].key.find(";memory=3"), std::string::npos)
      << cells[0].key;
  EXPECT_NE(cells[1].key.find(";memory=0"), std::string::npos)
      << cells[1].key;
  EXPECT_EQ(cells[0].memory, 3);
  EXPECT_EQ(cells[1].memory, 0);

  // The default axis {-1} keeps pre-memory-axis keys and describe() bytes,
  // so recorded campaigns keep their fingerprints.
  const auto plain = expand_cells(tiny_spec());
  for (const CampaignCell& cell : plain)
    EXPECT_EQ(cell.key.find("memory"), std::string::npos) << cell.key;
  EXPECT_EQ(describe(tiny_spec()).find("memory"), std::string::npos);

  // A non-default axis describes as spelled tokens and parses back.
  CampaignSpec mixed = tiny_spec();
  mixed.memory_values = {-1, 3};
  const std::string described = describe(mixed);
  EXPECT_NE(described.find("memory = default, 3"), std::string::npos)
      << described;
  std::istringstream in(described);
  EXPECT_EQ(parse_spec(in).memory_values, (std::vector<int>{-1, 3}));
}

TEST(CampaignExpand, NewFamiliesValidateTheirConstraints) {
  CampaignSpec odd_chunked;
  odd_chunked.graph = GraphFamily::kChunked;
  odd_chunked.n_values = {15};
  odd_chunked.d_values = {3};  // n*d odd: no stub pairing exists
  EXPECT_THROW((void)expand_cells(odd_chunked), std::runtime_error);

  CampaignSpec not_div5;
  not_div5.graph = GraphFamily::kProductK5;
  not_div5.n_values = {64};
  not_div5.d_values = {10};
  EXPECT_THROW((void)expand_cells(not_div5), std::runtime_error);

  CampaignSpec small_d;
  small_d.graph = GraphFamily::kProductK5;
  small_d.n_values = {40};
  small_d.d_values = {4};  // K_5 fibre alone contributes degree 4
  EXPECT_THROW((void)expand_cells(small_d), std::runtime_error);

  CampaignSpec ok;
  ok.graph = GraphFamily::kProductK5;
  ok.n_values = {40960};
  ok.d_values = {10};
  EXPECT_EQ(expand_cells(ok).size(), 1U);
}

// ---- run_cell: the execution paths are the library's own -------------------

TEST(CampaignRunCell, StaticCellMatchesDirectRunTrials) {
  const CampaignSpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  const CampaignCell& cell = cells[0];  // push, churn 0
  const JsonObject record = CampaignRunner::run_cell(spec, cell, {});

  BroadcastOptions options;
  options.scheme = BroadcastScheme::kPush;
  options.n_estimate = cell.n;
  TrialConfig config;
  config.trials = spec.trials;
  config.seed = cell.seed;
  const TrialOutcome direct = run_trials(
      [&cell](Rng& rng) {
        return random_regular_simple(cell.n, cell.d, rng);
      },
      [&options](const Graph& graph) {
        return make_scheme(graph, options).protocol;
      },
      config);

  EXPECT_EQ(record.find_number("rounds_mean"), direct.rounds.mean);
  EXPECT_EQ(record.find_number("completion_mean"),
            direct.completion_round.mean);
  EXPECT_EQ(record.find_number("completion_rate"), direct.completion_rate);
  EXPECT_EQ(record.find_number("tx_per_node_mean"), direct.tx_per_node.mean);
  EXPECT_EQ(record.find_number("push_tx_mean"), direct.push_tx.mean);
}

TEST(CampaignRunCell, RecordIsIdenticalForAnyTrialRunnerConfig) {
  const CampaignSpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  for (const CampaignCell& cell : cells) {  // covers static + churn paths
    RunnerConfig one;
    one.threads = 1;
    RunnerConfig eight;
    eight.threads = 8;
    RunnerConfig two;
    two.threads = 2;
    const std::string baseline =
        CampaignRunner::run_cell(spec, cell, one).to_line();
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, eight).to_line(), baseline)
        << cell.key;
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, two).to_line(), baseline)
        << cell.key;
  }
}

// ---- Artifact determinism --------------------------------------------------

struct ArtifactBytes {
  std::string results_json;
  std::string results_csv;
  std::string meta;
  std::string manifest;
};

ArtifactBytes run_to_dir(const CampaignSpec& spec, const std::string& dir,
                         int threads, bool parallel_cells = false,
                         const CellProgress& progress = {}) {
  CampaignConfig config;
  config.runner.threads = threads;
  config.parallel_cells = parallel_cells;
  config.out_dir = dir;
  CampaignRunner runner(spec, config);
  const CampaignOutcome outcome = runner.run(progress);
  ArtifactBytes bytes;
  bytes.results_json = read_file(outcome.results_json_path);
  bytes.results_csv = read_file(outcome.results_csv_path);
  bytes.meta = read_file(outcome.meta_path);
  bytes.manifest = read_file(outcome.manifest_path);
  return bytes;
}

TEST(CampaignDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes t1 = run_to_dir(spec, temp_dir("t1"), 1);
  const ArtifactBytes t2 = run_to_dir(spec, temp_dir("t2"), 2);
  const ArtifactBytes t8 = run_to_dir(spec, temp_dir("t8"), 8);
  const ArtifactBytes cells =
      run_to_dir(spec, temp_dir("cells"), 4, /*parallel_cells=*/true);

  EXPECT_EQ(t1.results_json, t2.results_json);
  EXPECT_EQ(t1.results_json, t8.results_json);
  EXPECT_EQ(t1.results_json, cells.results_json);
  EXPECT_EQ(t1.results_csv, t2.results_csv);
  EXPECT_EQ(t1.results_csv, cells.results_csv);
  EXPECT_EQ(t1.meta, t2.meta);
  EXPECT_EQ(t1.meta, cells.meta);
  // The manifest's line *order* is completion order (scheduling-dependent
  // under parallel_cells); its content is not.
  EXPECT_EQ(t1.manifest, t2.manifest);
  EXPECT_EQ(sorted_lines(t1.manifest), sorted_lines(cells.manifest));
}

TEST(CampaignDeterminism, InterruptedRunResumesBitIdentically) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes full = run_to_dir(spec, temp_dir("full"), 2);

  // Simulate an interrupt: abort from the progress callback after two
  // freshly computed cells (their journal lines are already flushed).
  const std::string dir = temp_dir("interrupted");
  int computed = 0;
  EXPECT_THROW(
      (void)run_to_dir(spec, dir, 2, false,
                       [&computed](const CellResult& cell) {
                         if (!cell.reused && ++computed == 2)
                           throw std::runtime_error("simulated interrupt");
                       }),
      std::runtime_error);
  ASSERT_TRUE(fs::exists(dir + "/manifest.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/results.jsonl"));

  // Resume: the two journaled cells are reused, the rest recomputed.
  CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = dir;
  CampaignRunner runner(spec, config);
  const CampaignOutcome outcome = runner.run();
  EXPECT_EQ(outcome.reused, 2U);
  EXPECT_EQ(outcome.computed, 2U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
  EXPECT_EQ(read_file(outcome.meta_path), full.meta);
  EXPECT_EQ(read_file(outcome.manifest_path), full.manifest);
}

TEST(CampaignDeterminism, DeletingManifestLinesReproducesTheExactFiles) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("halved");
  const ArtifactBytes full = run_to_dir(spec, dir, 2);

  // Delete every other record line from the manifest (keep the header).
  std::istringstream manifest(full.manifest);
  std::ofstream rewrite(dir + "/manifest.jsonl", std::ios::trunc);
  std::string line;
  int record_index = 0;
  while (std::getline(manifest, line)) {
    const bool header = line.find("\"fingerprint\"") != std::string::npos;
    if (header || record_index++ % 2 == 0) rewrite << line << "\n";
  }
  rewrite.close();

  CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.reused, 2U);
  EXPECT_EQ(outcome.computed, 2U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
  EXPECT_EQ(sorted_lines(read_file(outcome.manifest_path)),
            sorted_lines(full.manifest));
}

TEST(CampaignDeterminism, ShardManifestsMergeWithoutRecomputation) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes full = run_to_dir(spec, temp_dir("unsharded"), 2);

  std::string merged_manifest;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string dir = temp_dir("shard" + std::to_string(shard));
    CampaignConfig config;
    config.runner.threads = 2;
    config.shard_index = shard;
    config.shard_count = 2;
    config.out_dir = dir;
    const CampaignOutcome outcome = CampaignRunner(spec, config).run();
    EXPECT_EQ(outcome.cells.size(), 2U);
    merged_manifest += read_file(outcome.manifest_path);
  }

  const std::string merged_dir = temp_dir("merged");
  fs::create_directories(merged_dir);
  std::ofstream(merged_dir + "/manifest.jsonl") << merged_manifest;
  CampaignConfig config;
  config.out_dir = merged_dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.computed, 0U);
  EXPECT_EQ(outcome.reused, 4U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
}

TEST(CampaignDeterminism, ShardRunOverFullDirectoryKeepsAllResults) {
  // Re-running a single shard in a directory that already holds the whole
  // campaign must not truncate the final artifacts to the shard subset:
  // the rewrite covers every cell with a journal record available.
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("shard_over_full");
  const ArtifactBytes full = run_to_dir(spec, dir, 2);

  CampaignConfig config;
  config.shard_index = 0;
  config.shard_count = 2;
  config.out_dir = dir;
  const CampaignOutcome outcome = CampaignRunner(spec, config).run();
  EXPECT_EQ(outcome.cells.size(), 2U);
  EXPECT_EQ(outcome.computed, 0U);
  EXPECT_EQ(read_file(outcome.results_json_path), full.results_json);
  EXPECT_EQ(read_file(outcome.results_csv_path), full.results_csv);
  EXPECT_EQ(read_file(outcome.meta_path), full.meta);
}

TEST(CampaignDeterminism, RefusesToResumeAcrossSpecChanges) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("fingerprint");
  (void)run_to_dir(spec, dir, 1);

  CampaignSpec changed = spec;
  changed.trials = 4;  // trials change the records, so resume must refuse
  CampaignConfig config;
  config.out_dir = dir;
  EXPECT_THROW((void)CampaignRunner(changed, config).run(),
               std::runtime_error);
}

TEST(CampaignDeterminism, RefusesHeaderlessManifestWithRecords) {
  // Records that cannot be attributed to a spec (no fingerprint header)
  // must not be reused — a header-stripped manifest could belong to a
  // spec whose differences (e.g. trials) the cell key does not encode.
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("headerless");
  const ArtifactBytes full = run_to_dir(spec, dir, 1);

  std::istringstream manifest(full.manifest);
  std::ofstream rewrite(dir + "/manifest.jsonl", std::ios::trunc);
  std::string line;
  while (std::getline(manifest, line))
    if (line.find("\"fingerprint\"") == std::string::npos)
      rewrite << line << "\n";
  rewrite.close();

  CampaignConfig config;
  config.out_dir = dir;
  EXPECT_THROW((void)CampaignRunner(spec, config).run(),
               std::runtime_error);
}

// ---- Metrics axis ----------------------------------------------------------

TEST(CampaignMetrics, SpecParsesValidatesAndFingerprints) {
  CampaignSpec spec = tiny_spec();
  EXPECT_TRUE(spec.metrics.empty());
  const std::uint64_t plain_fingerprint = spec_fingerprint(spec);
  // No metrics line when empty: pre-metrics campaign fingerprints survive.
  EXPECT_EQ(describe(spec).find("metrics"), std::string::npos);

  apply_setting(spec, "metrics", "tx-histogram, latency");
  ASSERT_EQ(spec.metrics.size(), 2U);
  EXPECT_EQ(spec.metrics[0], MetricKind::kTxHistogram);
  EXPECT_EQ(spec.metrics[1], MetricKind::kInformedLatency);
  EXPECT_NE(describe(spec).find("metrics = tx-histogram, latency"),
            std::string::npos);
  // Metric selection changes the record schema, so it must change the
  // fingerprint (resuming a metric-less manifest would emit mixed rows).
  EXPECT_NE(spec_fingerprint(spec), plain_fingerprint);

  apply_setting(spec, "metrics", "none");
  EXPECT_TRUE(spec.metrics.empty());
  EXPECT_EQ(spec_fingerprint(spec), plain_fingerprint);

  EXPECT_THROW(apply_setting(spec, "metrics", "warp-speed"),
               std::runtime_error);
  EXPECT_THROW(apply_setting(spec, "metrics", "latency, latency"),
               std::runtime_error);
}

TEST(CampaignMetrics, ColumnsAppendWithoutChangingBaseValuesOrKeys) {
  // Observers are read-only: switching metrics on must keep every base
  // column byte-identical and only append digest columns — on the static
  // run_trials path and the churn overlay path alike.
  const CampaignSpec plain = tiny_spec();
  CampaignSpec with_metrics = tiny_spec();
  with_metrics.metrics = {MetricKind::kTxHistogram,
                          MetricKind::kInformedLatency};

  const auto plain_cells = expand_cells(plain);
  const auto metric_cells = expand_cells(with_metrics);
  ASSERT_EQ(plain_cells.size(), metric_cells.size());
  for (std::size_t i = 0; i < plain_cells.size(); ++i) {
    EXPECT_EQ(metric_cells[i].key, plain_cells[i].key);
    EXPECT_EQ(metric_cells[i].seed, plain_cells[i].seed);

    const JsonObject base =
        CampaignRunner::run_cell(plain, plain_cells[i], {});
    const JsonObject extended =
        CampaignRunner::run_cell(with_metrics, metric_cells[i], {});
    SCOPED_TRACE(plain_cells[i].key);
    // Every base field survives, in order, with identical rendered bytes.
    ASSERT_GE(extended.fields().size(), base.fields().size());
    for (std::size_t f = 0; f < base.fields().size(); ++f) {
      EXPECT_EQ(extended.fields()[f].key, base.fields()[f].key);
      EXPECT_EQ(extended.fields()[f].json, base.fields()[f].json);
    }
    // And the digest columns arrive for both metrics.
    EXPECT_TRUE(extended.find_number("tx_node_p90_mean").has_value());
    EXPECT_TRUE(extended.find_number("latency_p90_mean").has_value());
    EXPECT_FALSE(base.find_number("tx_node_p90_mean").has_value());
  }
}

TEST(CampaignMetrics, MetricColumnsAreDeterministicAcrossRunnerConfigs) {
  CampaignSpec spec = tiny_spec();
  spec.metrics = {MetricKind::kTxHistogram, MetricKind::kInformedLatency};
  const auto cells = expand_cells(spec);
  for (const CampaignCell& cell : cells) {  // covers static + churn paths
    RunnerConfig one;
    one.threads = 1;
    RunnerConfig eight;
    eight.threads = 8;
    RunnerConfig two;
    two.threads = 2;
    const std::string baseline =
        CampaignRunner::run_cell(spec, cell, one).to_line();
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, eight).to_line(), baseline)
        << cell.key;
    EXPECT_EQ(CampaignRunner::run_cell(spec, cell, two).to_line(), baseline)
        << cell.key;
  }
}

// ---- Timing side channel ---------------------------------------------------

TEST(CampaignTiming, SideChannelRecordsComputedCellsOnly) {
  const CampaignSpec spec = tiny_spec();
  const std::string dir = temp_dir("timing");
  CampaignConfig config;
  config.runner.threads = 2;
  config.out_dir = dir;
  const CampaignOutcome first = CampaignRunner(spec, config).run();
  ASSERT_FALSE(first.timing_path.empty());

  const auto count_lines = [](const std::string& text) {
    std::size_t lines = 0;
    for (const char c : text)
      if (c == '\n') ++lines;
    return lines;
  };
  const std::string after_first = read_file(first.timing_path);
  EXPECT_EQ(count_lines(after_first), 4U);  // one per computed cell
  // Each line parses and names a cell of this campaign, with a wall time.
  std::istringstream lines(after_first);
  std::string line;
  while (std::getline(lines, line)) {
    const auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE(parsed->find_plain("key").has_value());
    EXPECT_TRUE(parsed->find_number("wall_ms").has_value());
    EXPECT_TRUE(parsed->find_number("trials_per_s").has_value());
  }

  // A resume computes nothing, so the side channel grows by nothing — and
  // the deterministic artifacts ignore it entirely.
  const CampaignOutcome resumed = CampaignRunner(spec, config).run();
  EXPECT_EQ(resumed.computed, 0U);
  EXPECT_EQ(count_lines(read_file(resumed.timing_path)), 4U);
}

TEST(CampaignDeterminism, InMemoryRunMatchesPersistedRecords) {
  const CampaignSpec spec = tiny_spec();
  const ArtifactBytes persisted = run_to_dir(spec, temp_dir("disk"), 2);

  CampaignRunner runner(spec, {});  // out_dir empty: no files touched
  const CampaignOutcome outcome = runner.run();
  EXPECT_TRUE(outcome.manifest_path.empty());
  std::string lines;
  for (const CellResult& cell : outcome.cells)
    lines += cell.record.to_line() + "\n";
  EXPECT_EQ(lines, persisted.results_json);
}

}  // namespace
}  // namespace rrb::exp

#include "rrb/exp/spec.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "rrb/exp/artifact.hpp"
#include "rrb/rng/rng.hpp"

namespace rrb::exp {

namespace {

constexpr std::array<GraphFamily, 7> kAllFamilies = {
    GraphFamily::kRegular,   GraphFamily::kConfigModel,
    GraphFamily::kGnp,       GraphFamily::kHypercube,
    GraphFamily::kComplete,  GraphFamily::kChunked,
    GraphFamily::kProductK5};

[[nodiscard]] std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r'))
    text.remove_suffix(1);
  return text;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

[[nodiscard]] std::vector<std::string_view> split_list(std::string_view text) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t comma = text.find(',');
    if (comma == std::string_view::npos) {
      out.push_back(trim(text));
      break;
    }
    out.push_back(trim(text.substr(0, comma)));
    text.remove_prefix(comma + 1);
  }
  return out;
}

/// Unsigned integer with 0x-hex and 2^k shorthand.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text) {
  text = trim(text);
  if (text.empty()) fail("empty integer value");
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 2 && text.substr(0, 2) == "2^") {
    const std::uint64_t exponent = parse_u64(text.substr(2));
    if (exponent > 63) fail("2^" + std::string(text.substr(2)) + " overflows");
    return std::uint64_t{1} << exponent;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    fail("cannot parse integer '" + std::string(text) + "'");
  return value;
}

[[nodiscard]] double parse_double(std::string_view text) {
  text = trim(text);
  // std::from_chars: locale-independent, matching format_double's output.
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size())
    fail("cannot parse number '" + std::string(text) + "'");
  return value;
}

[[nodiscard]] bool parse_bool(std::string_view text) {
  text = trim(text);
  if (text == "true" || text == "1" || text == "yes" || text == "on")
    return true;
  if (text == "false" || text == "0" || text == "no" || text == "off")
    return false;
  fail("cannot parse boolean '" + std::string(text) + "'");
}

template <typename T, typename Parse>
[[nodiscard]] std::vector<T> parse_axis(std::string_view text,
                                        const Parse& parse) {
  std::vector<T> out;
  for (const std::string_view item : split_list(text)) out.push_back(parse(item));
  if (out.empty()) fail("axis needs at least one value");
  return out;
}

void append_axis_u32(std::string& out, const std::vector<NodeId>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(values[i]);
  }
}

void append_axis_double(std::string& out, const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += format_double(values[i]);
  }
}

}  // namespace

const char* graph_family_name(GraphFamily family) {
  switch (family) {
    case GraphFamily::kRegular: return "regular";
    case GraphFamily::kConfigModel: return "config";
    case GraphFamily::kGnp: return "gnp";
    case GraphFamily::kHypercube: return "hypercube";
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kChunked: return "chunked";
    case GraphFamily::kProductK5: return "regular-x-k5";
  }
  fail("unknown GraphFamily value " +
       std::to_string(static_cast<int>(family)));
}

std::optional<GraphFamily> parse_graph_family(std::string_view name) {
  for (const GraphFamily family : kAllFamilies)
    if (name == graph_family_name(family)) return family;
  return std::nullopt;
}

std::string cell_key(const CampaignCell& cell, const CampaignSpec& spec) {
  std::string key;
  key += "scheme=";
  key += scheme_name(cell.scheme);
  key += ";qr=";
  key += cell.quasirandom ? "1" : "0";
  key += ";graph=";
  key += graph_family_name(cell.graph);
  key += ";n=" + std::to_string(cell.n);
  key += ";d=" + std::to_string(cell.d);
  key += ";alpha=" + format_double(cell.alpha);
  key += ";failure=" + format_double(cell.failure);
  key += ";churn=" + format_double(cell.churn);
  if (cell.overlay) {
    key += ";overlay=1";
    key += ";switches=" + std::to_string(spec.churn_switches);
    key += ";headroom=" + format_double(spec.churn_headroom);
  }
  if (cell.choices > 0) key += ";choices=" + std::to_string(cell.choices);
  if (cell.memory >= 0) key += ";memory=" + std::to_string(cell.memory);
  return key;
}

std::uint64_t cell_seed(std::uint64_t campaign_seed, std::string_view key) {
  return derive_seed(campaign_seed, hash_string(key));
}

namespace {

/// Families whose topology ignores the d axis derive an effective degree
/// from n; their cells are normalised to it so two spec'd d values cannot
/// silently duplicate the same experiment under different keys/seeds.
[[nodiscard]] bool family_ignores_d(GraphFamily family) {
  return family == GraphFamily::kHypercube ||
         family == GraphFamily::kComplete;
}

[[nodiscard]] NodeId ceil_log2(NodeId n) {
  NodeId dim = 0;
  while ((NodeId{1} << dim) < n) ++dim;
  return dim;
}

[[nodiscard]] NodeId derived_degree(GraphFamily family, NodeId n) {
  if (family == GraphFamily::kComplete) return n - 1;
  return ceil_log2(n);  // hypercube
}

[[nodiscard]] NodeId floor_isqrt(NodeId n) {
  NodeId r = 0;
  while ((static_cast<std::uint64_t>(r) + 1) * (r + 1) <= n) ++r;
  return r;
}

/// Canonical spec spelling of one degree-axis entry (describe() emits it,
/// apply_setting parses it back — byte round-trip).
[[nodiscard]] std::string degree_rule_spelling(const DegreeSpec& entry) {
  switch (entry.rule) {
    case DegreeRule::kLiteral: return std::to_string(entry.value);
    case DegreeRule::kLog2N: return "log2n";
    case DegreeRule::kTwoLog2N: return "2log2n";
    case DegreeRule::kSqrtN: return "sqrtn";
  }
  fail("unknown DegreeRule value");
}

[[nodiscard]] NodeId resolve_degree(const DegreeSpec& entry, NodeId n) {
  switch (entry.rule) {
    case DegreeRule::kLiteral: return entry.value;
    case DegreeRule::kLog2N: return ceil_log2(n);
    case DegreeRule::kTwoLog2N: return 2 * ceil_log2(n);
    case DegreeRule::kSqrtN: return floor_isqrt(n);
  }
  fail("unknown DegreeRule value");
}

/// The effective degree axis for one n: the resolved d_rules when present,
/// the literal d_values otherwise. Two rules resolving to the same d at
/// some n would duplicate a cell under one key — refused.
[[nodiscard]] std::vector<NodeId> effective_degrees(const CampaignSpec& spec,
                                                    NodeId n) {
  if (spec.d_rules.empty()) return spec.d_values;
  std::vector<NodeId> out;
  out.reserve(spec.d_rules.size());
  for (const DegreeSpec& entry : spec.d_rules) {
    const NodeId d = resolve_degree(entry, n);
    if (d < 1)
      fail("degree rule '" + degree_rule_spelling(entry) +
           "' resolves to d < 1 at n = " + std::to_string(n));
    for (const NodeId prev : out)
      if (prev == d)
        fail("degree rules resolve to duplicate d = " + std::to_string(d) +
             " at n = " + std::to_string(n) +
             " — the cells would collide under one key");
    out.push_back(d);
  }
  return out;
}

}  // namespace

std::vector<CampaignCell> expand_cells(const CampaignSpec& spec) {
  if (spec.trials < 1) fail("campaign needs trials >= 1");
  if (spec.schemes.empty() || spec.quasirandom.empty() ||
      spec.n_values.empty() || spec.d_values.empty() || spec.alphas.empty() ||
      spec.failures.empty() || spec.churn_rates.empty() ||
      spec.choices.empty() || spec.memory_values.empty())
    fail("campaign axes must be non-empty");
  if (family_ignores_d(spec.graph) && spec.d_values.size() > 1)
    fail(std::string(graph_family_name(spec.graph)) +
         " derives the degree from n — a d axis with multiple values "
         "would duplicate identical cells; give a single d");
  if (spec.derived_d && family_ignores_d(spec.graph))
    fail(std::string(graph_family_name(spec.graph)) +
         " already derives the degree from n — 'd = 2log2n' is redundant "
         "and would shadow the family's rule");
  if (spec.derived_d && spec.d_values.size() > 1)
    fail("'d = 2log2n' derives the degree from n — a d axis with multiple "
         "values would duplicate identical cells");
  if (!spec.d_rules.empty() && spec.derived_d)
    fail("rule-based d axis and 'd = 2log2n' cannot combine");
  if (!spec.d_rules.empty() && family_ignores_d(spec.graph))
    fail(std::string(graph_family_name(spec.graph)) +
         " derives the degree from n — a rule-based d axis would shadow "
         "the family's rule");

  std::vector<CampaignCell> cells;
  for (const BroadcastScheme scheme : spec.schemes)
    for (const bool qr : spec.quasirandom)
      for (const NodeId n : spec.n_values)
        for (const NodeId d : effective_degrees(spec, n))
          for (const double alpha : spec.alphas)
            for (const double failure : spec.failures)
              for (const double churn : spec.churn_rates)
                for (const int choices : spec.choices)
                  for (const int memory : spec.memory_values) {
                    CampaignCell cell;
                    cell.index = cells.size();
                    cell.scheme = scheme;
                    cell.quasirandom = qr;
                    cell.graph = spec.graph;
                    cell.n = n;
                    cell.d = spec.derived_d ? 2 * ceil_log2(n) : d;
                    cell.alpha = alpha;
                    cell.failure = failure;
                    cell.churn = churn;
                    cell.choices = choices;
                    cell.memory = memory;
                    cell.overlay = spec.overlay || churn > 0.0;
                    if (cell.n < 2)
                      fail("cell n must be >= 2");
                    if (choices < 0 || choices > (1 << 10))
                      fail("choices out of range");
                    if (memory < -1 || memory > (1 << 20))
                      fail("memory out of range");
                    // Negated comparisons so NaN axis values fail validation
                    // instead of slipping through as a bogus grid point.
                    if (!std::isfinite(alpha)) fail("alpha must be finite");
                    if (!(churn >= 0.0) || !std::isfinite(churn))
                      fail("churn rate must be finite and >= 0");
                    if (!(failure >= 0.0 && failure <= 1.0))
                      fail("failure probability must be in [0, 1]");
                    // Mirrors the canonical channel pairing: the
                    // sequentialised scheme's memory window is mutually
                    // exclusive with quasirandom selection, so fail at
                    // expansion instead of mid-campaign at engine
                    // construction.
                    if (qr && scheme == BroadcastScheme::kSequentialised)
                      fail("quasirandom cannot combine with the "
                           "sequentialised scheme's memory window");
                    if (family_ignores_d(spec.graph))
                      cell.d = derived_degree(spec.graph, cell.n);
                    if (cell.overlay && spec.graph != GraphFamily::kRegular)
                      fail("overlay (churn) cells run on the dynamic overlay "
                           "and need graph = regular");
                    if (spec.graph == GraphFamily::kHypercube &&
                        (cell.n & (cell.n - 1)) != 0)
                      fail("hypercube cells need n to be a power of two");
                    if (spec.graph == GraphFamily::kChunked &&
                        (static_cast<std::uint64_t>(cell.n) * cell.d) % 2 != 0)
                      fail("chunked cells need n*d even (configuration "
                           "model pairs stubs)");
                    if (spec.graph == GraphFamily::kProductK5) {
                      if (cell.n % 5 != 0)
                        fail("regular-x-k5 cells need n divisible by 5");
                      if (cell.d < 5)
                        fail("regular-x-k5 cells need d >= 5 (K_5 "
                             "contributes degree 4)");
                      const NodeId base_n = cell.n / 5;
                      const NodeId base_d = cell.d - 4;
                      if (base_n < base_d + 1 ||
                          (static_cast<std::uint64_t>(base_n) * base_d) % 2 !=
                              0)
                        fail("regular-x-k5 base factor needs n/5 >= d-3 and "
                             "(n/5)*(d-4) even");
                    }
                    cell.key = cell_key(cell, spec);
                    cell.seed = cell_seed(spec.seed, cell.key);
                    cells.push_back(std::move(cell));
                  }
  return cells;
}

std::string describe(const CampaignSpec& spec) {
  std::string out;
  out += "name = " + spec.name + "\n";
  {
    std::ostringstream seed;
    seed << "0x" << std::hex << spec.seed;
    out += "seed = " + seed.str() + "\n";
  }
  out += "trials = " + std::to_string(spec.trials) + "\n";
  out += std::string("source = ") +
         (spec.random_source ? "random" : "fixed") + "\n";
  out += "max_rounds = " + std::to_string(spec.max_rounds) + "\n";
  out += std::string("graph = ") + graph_family_name(spec.graph) + "\n";
  out += "scheme = ";
  for (std::size_t i = 0; i < spec.schemes.size(); ++i) {
    if (i != 0) out += ", ";
    out += scheme_name(spec.schemes[i]);
  }
  out += "\n";
  out += "quasirandom = ";
  for (std::size_t i = 0; i < spec.quasirandom.size(); ++i) {
    if (i != 0) out += ", ";
    out += spec.quasirandom[i] ? "true" : "false";
  }
  out += "\n";
  out += "n = ";
  append_axis_u32(out, spec.n_values);
  out += "\nd = ";
  if (spec.derived_d) {
    out += "2log2n";
  } else if (!spec.d_rules.empty()) {
    for (std::size_t i = 0; i < spec.d_rules.size(); ++i) {
      if (i != 0) out += ", ";
      out += degree_rule_spelling(spec.d_rules[i]);
    }
  } else {
    append_axis_u32(out, spec.d_values);
  }
  out += "\nalpha = ";
  append_axis_double(out, spec.alphas);
  out += "\nfailure = ";
  append_axis_double(out, spec.failures);
  out += "\nchurn = ";
  append_axis_double(out, spec.churn_rates);
  out += std::string("\noverlay = ") + (spec.overlay ? "true" : "false") +
         "\n";
  out += "churn_switches = " + std::to_string(spec.churn_switches) + "\n";
  out += "churn_headroom = " + format_double(spec.churn_headroom) + "\n";
  // Like metrics below: the choices axis is emitted only when it deviates
  // from the canonical {0}, so pre-existing specs keep their describe()
  // bytes and therefore their fingerprints.
  if (spec.choices.size() != 1 || spec.choices[0] != 0) {
    out += "choices = ";
    for (std::size_t i = 0; i < spec.choices.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(spec.choices[i]);
    }
    out += "\n";
  }
  // Same emit-only-when-non-default rule as choices: a spec without a
  // memory axis keeps its describe() bytes and fingerprint.
  if (spec.memory_values.size() != 1 || spec.memory_values[0] != -1) {
    out += "memory = ";
    for (std::size_t i = 0; i < spec.memory_values.size(); ++i) {
      if (i != 0) out += ", ";
      // -1 spells "default" so the emitted line parses back.
      out += spec.memory_values[i] < 0
                 ? std::string("default")
                 : std::to_string(spec.memory_values[i]);
    }
    out += "\n";
  }
  // Emitted only when non-empty so a metric-less spec's describe() (and
  // campaign.json echo) is byte-stable regardless of metrics support.
  if (!spec.metrics.empty()) {
    out += "metrics = ";
    for (std::size_t i = 0; i < spec.metrics.size(); ++i) {
      if (i != 0) out += ", ";
      out += metric_name(spec.metrics[i]);
    }
    out += "\n";
  }
  return out;
}

std::uint64_t spec_fingerprint(const CampaignSpec& spec) {
  // The record *schema* is part of the identity the fingerprint guards,
  // not just the grid: reusing a journal line means reusing its exact
  // columns, so a manifest written by a binary with a different column
  // set must be refused, or resume/merge would mix record schemas in one
  // results stream. Bump kRecordSchema whenever cell records gain, lose
  // or rename columns (v2: static records grew coverage_mean).
  constexpr std::string_view kRecordSchema = "record_schema = v2\n";
  return hash_string(describe(spec) + std::string(kRecordSchema));
}

void apply_setting(CampaignSpec& spec, std::string_view key,
                   std::string_view value) {
  key = trim(key);
  value = trim(value);
  if (key == "name") {
    if (value.empty()) fail("name must be non-empty");
    spec.name = std::string(value);
  } else if (key == "seed") {
    spec.seed = parse_u64(value);
  } else if (key == "trials") {
    const std::uint64_t trials = parse_u64(value);
    if (trials < 1 || trials > (1U << 20)) fail("trials out of range");
    spec.trials = static_cast<int>(trials);
  } else if (key == "source") {
    if (value == "random") spec.random_source = true;
    else if (value == "fixed") spec.random_source = false;
    else fail("source must be 'random' or 'fixed'");
  } else if (key == "max_rounds") {
    const std::uint64_t rounds = parse_u64(value);
    if (rounds < 1 || rounds > (1U << 30)) fail("max_rounds out of range");
    spec.max_rounds = static_cast<Round>(rounds);
  } else if (key == "graph") {
    const auto family = parse_graph_family(value);
    if (!family) fail("unknown graph family '" + std::string(value) + "'");
    spec.graph = *family;
  } else if (key == "scheme") {
    spec.schemes = parse_axis<BroadcastScheme>(value, [](std::string_view v) {
      const auto scheme = parse_scheme(v);
      if (!scheme) fail("unknown scheme '" + std::string(v) + "'");
      return *scheme;
    });
  } else if (key == "quasirandom") {
    spec.quasirandom = parse_axis<bool>(value, parse_bool);
  } else if (key == "n") {
    spec.n_values = parse_axis<NodeId>(value, [](std::string_view v) {
      const std::uint64_t n = parse_u64(v);
      if (n < 2 || n > kMaxNodes) fail("n out of range");
      return static_cast<NodeId>(n);
    });
  } else if (key == "d") {
    spec.derived_d = false;
    spec.d_rules.clear();
    bool has_rule = false;
    for (const std::string_view item : split_list(value))
      if (item == "log2n" || item == "2log2n" || item == "sqrtn")
        has_rule = true;
    if (value == "2log2n") {
      // Single bare "2log2n" keeps the legacy derived-d spelling (and its
      // describe()/fingerprint bytes) rather than becoming a 1-rule axis.
      spec.derived_d = true;
      spec.d_values = {1};  // placeholder; expand_cells derives per cell
    } else if (has_rule) {
      spec.d_rules = parse_axis<DegreeSpec>(value, [](std::string_view v) {
        DegreeSpec entry;
        if (v == "log2n") {
          entry.rule = DegreeRule::kLog2N;
        } else if (v == "2log2n") {
          entry.rule = DegreeRule::kTwoLog2N;
        } else if (v == "sqrtn") {
          entry.rule = DegreeRule::kSqrtN;
        } else {
          const std::uint64_t d = parse_u64(v);
          if (d < 1 || d > (1ULL << 20)) fail("d out of range");
          entry.rule = DegreeRule::kLiteral;
          entry.value = static_cast<NodeId>(d);
        }
        return entry;
      });
      spec.d_values = {1};  // placeholder; superseded by d_rules
    } else {
      spec.d_values = parse_axis<NodeId>(value, [](std::string_view v) {
        const std::uint64_t d = parse_u64(v);
        if (d < 1 || d > (1ULL << 20)) fail("d out of range");
        return static_cast<NodeId>(d);
      });
    }
  } else if (key == "alpha") {
    spec.alphas = parse_axis<double>(value, parse_double);
  } else if (key == "failure") {
    spec.failures = parse_axis<double>(value, parse_double);
  } else if (key == "churn") {
    spec.churn_rates = parse_axis<double>(value, parse_double);
  } else if (key == "choices") {
    spec.choices = parse_axis<int>(value, [](std::string_view v) {
      const std::uint64_t k = parse_u64(v);
      if (k > (1U << 10)) fail("choices out of range");
      return static_cast<int>(k);
    });
  } else if (key == "memory") {
    spec.memory_values = parse_axis<int>(value, [](std::string_view v) {
      if (v == "default" || v == "-1") return -1;
      const std::uint64_t m = parse_u64(v);
      if (m > (1U << 20)) fail("memory out of range");
      return static_cast<int>(m);
    });
  } else if (key == "overlay") {
    spec.overlay = parse_bool(value);
  } else if (key == "churn_switches") {
    const std::uint64_t switches = parse_u64(value);
    if (switches > (1U << 20)) fail("churn_switches out of range");
    spec.churn_switches = static_cast<int>(switches);
  } else if (key == "churn_headroom") {
    const double headroom = parse_double(value);
    if (!(headroom >= 0.0) || !std::isfinite(headroom))
      fail("churn_headroom must be finite and >= 0");
    spec.churn_headroom = headroom;
  } else if (key == "metrics") {
    if (trim(value) == "none") {
      spec.metrics.clear();
    } else {
      spec.metrics = parse_axis<MetricKind>(value, [](std::string_view v) {
        const auto kind = parse_metric(v);
        if (!kind)
          fail("unknown metric '" + std::string(v) + "' (known: " +
               known_metric_names() + ")");
        return *kind;
      });
      // Duplicates would emit the same columns twice, breaking the CSV.
      for (std::size_t i = 0; i < spec.metrics.size(); ++i)
        for (std::size_t j = i + 1; j < spec.metrics.size(); ++j)
          if (spec.metrics[i] == spec.metrics[j])
            fail("duplicate metric '" +
                 std::string(metric_name(spec.metrics[i])) + "'");
    }
  } else {
    fail("unknown spec key '" + std::string(key) + "'");
  }
}

CampaignSpec parse_spec(std::istream& in) {
  CampaignSpec spec;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = line;
    const std::size_t hash = text.find('#');
    if (hash != std::string_view::npos) text = text.substr(0, hash);
    text = trim(text);
    if (text.empty()) continue;
    const std::size_t eq = text.find('=');
    if (eq == std::string_view::npos)
      fail("spec line " + std::to_string(line_number) +
           ": expected 'key = value'");
    try {
      apply_setting(spec, text.substr(0, eq), text.substr(eq + 1));
    } catch (const std::runtime_error& e) {
      fail("spec line " + std::to_string(line_number) + ": " + e.what());
    }
  }
  return spec;
}

CampaignSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open campaign spec " + path);
  try {
    return parse_spec(in);
  } catch (const std::runtime_error& e) {
    fail(path + ": " + e.what());
  }
}

}  // namespace rrb::exp

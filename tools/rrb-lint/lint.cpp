#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <utility>

namespace rrb::lint {

namespace {

// ---------------------------------------------------------------------------
// Small lexical helpers
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool space_char(char c) { return c == ' ' || c == '\t'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && (space_char(s.front()) || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (space_char(s.back()) || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Scrubbing: blank comments and string/char literals (preserving length and
// newlines, so offsets and line numbers survive), and collect suppression
// directives found in comments along the way.
// ---------------------------------------------------------------------------

struct Scrubbed {
  std::string text;  // same length as the input; literals/comments -> ' '
  std::map<int, std::set<std::string>> line_allow;  // 1-based line -> rules
  std::set<std::string> file_allow;
  // allow-next-line directives, resolved after the scrub: the target is the
  // next line that carries code, so a multi-line justification comment may
  // sit between the directive and the code it covers.
  std::vector<std::pair<int, std::string>> next_line_pending;
};

/// Parse `rrb-lint: allow(...)` / `allow-next-line(...)` / `allow-file(...)`
/// directives out of one comment's text. `line` is the line the directive
/// text sits on.
void parse_directives(std::string_view comment, int line, Scrubbed& out) {
  static constexpr std::string_view kTag = "rrb-lint:";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string_view::npos) {
    std::size_t i = pos + kTag.size();
    while (i < comment.size() && space_char(comment[i])) ++i;
    std::size_t verb_begin = i;
    while (i < comment.size() && (ident_char(comment[i]) || comment[i] == '-'))
      ++i;
    const std::string_view verb = comment.substr(verb_begin, i - verb_begin);
    while (i < comment.size() && space_char(comment[i])) ++i;
    if (i >= comment.size() || comment[i] != '(') {
      pos = i;
      continue;
    }
    ++i;
    std::vector<std::string> rules;
    std::string current;
    for (; i < comment.size() && comment[i] != ')'; ++i) {
      const char c = comment[i];
      if (ident_char(c) || c == '-') {
        current.push_back(c);
      } else if (!current.empty()) {
        rules.push_back(std::move(current));
        current.clear();
      }
    }
    if (!current.empty()) rules.push_back(std::move(current));
    for (std::string& rule : rules) {
      if (!is_rule(rule)) continue;  // unknown rules never suppress anything
      if (verb == "allow") {
        out.line_allow[line].insert(std::move(rule));
      } else if (verb == "allow-next-line") {
        out.next_line_pending.emplace_back(line, std::move(rule));
      } else if (verb == "allow-file") {
        out.file_allow.insert(std::move(rule));
      }
    }
    pos = i;
  }
}

Scrubbed scrub(std::string_view content) {
  Scrubbed out;
  out.text.assign(content.size(), ' ');
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = content.size();

  auto copy_newline = [&](std::size_t at) {
    out.text[at] = '\n';
    ++line;
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      copy_newline(i);
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const std::size_t begin = i;
      while (i < n && content[i] != '\n') ++i;
      parse_directives(content.substr(begin, i - begin), line, out);
      continue;  // the '\n' (if any) is handled by the main loop
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      std::size_t begin = i;
      int dir_line = line;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') {
          parse_directives(content.substr(begin, i - begin), dir_line, out);
          copy_newline(i);
          begin = i + 1;
          dir_line = line;
        }
        ++i;
      }
      if (i + 1 < n) i += 2;  // consume "*/"
      parse_directives(content.substr(begin, i - begin), dir_line, out);
      continue;
    }
    if (c == '"') {
      // Raw string literal? Look back for the R prefix (R"delim( ... )delim").
      const bool raw = i > 0 && content[i - 1] == 'R' &&
                       (i < 2 || !ident_char(content[i - 2]));
      if (raw) {
        std::size_t j = i + 1;
        while (j < n && content[j] != '(') ++j;
        const std::string delim =
            std::string(")") + std::string(content.substr(i + 1, j - i - 1)) +
            "\"";
        const std::size_t close = content.find(delim, j);
        const std::size_t end =
            close == std::string_view::npos ? n : close + delim.size();
        for (std::size_t k = i; k < end; ++k) {
          if (content[k] == '\n') copy_newline(k);
        }
        i = end;
        continue;
      }
      ++i;
      while (i < n && content[i] != '"' && content[i] != '\n') {
        if (content[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n && content[i] == '"') ++i;
      continue;
    }
    if (c == '\'') {
      // A quote right after an identifier character is a digit separator
      // (1'000'000), not a character literal.
      if (i > 0 && ident_char(content[i - 1])) {
        ++i;
        continue;
      }
      ++i;
      while (i < n && content[i] != '\'' && content[i] != '\n') {
        if (content[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n && content[i] == '\'') ++i;
      continue;
    }
    out.text[i] = c;
    ++i;
  }

  // Resolve allow-next-line targets: skip past blank and comment-only lines
  // (all-space after scrubbing) to the next line with code on it.
  if (!out.next_line_pending.empty()) {
    std::vector<std::size_t> starts = {0};
    for (std::size_t k = 0; k < out.text.size(); ++k) {
      if (out.text[k] == '\n') starts.push_back(k + 1);
    }
    auto line_blank = [&](int l) {  // 1-based; true past EOF ends the walk
      if (l < 1 || static_cast<std::size_t>(l) > starts.size()) return false;
      const std::size_t begin = starts[static_cast<std::size_t>(l) - 1];
      const std::size_t end = static_cast<std::size_t>(l) < starts.size()
                                  ? starts[static_cast<std::size_t>(l)] - 1
                                  : out.text.size();
      return trim(std::string_view(out.text).substr(begin, end - begin))
          .empty();
    };
    for (auto& [directive_line, rule] : out.next_line_pending) {
      int target = directive_line + 1;
      while (line_blank(target)) ++target;
      out.line_allow[target].insert(std::move(rule));
    }
    out.next_line_pending.clear();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path / module scoping
// ---------------------------------------------------------------------------

/// The rrb module a path belongs to ("core" for src/core/...), or "" when
/// the file is not inside a src/<module>/ directory.
std::string module_of(std::string_view path) {
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = path.find("src/", pos);
    if (hit == std::string_view::npos) return {};
    if (hit == 0 || path[hit - 1] == '/') {
      const std::size_t begin = hit + 4;
      const std::size_t end = path.find('/', begin);
      if (end == std::string_view::npos) return {};
      return std::string(path.substr(begin, end - begin));
    }
    pos = hit + 4;
  }
}

/// Modules whose draws and iteration order feed recorded artifacts: the
/// engine stack, its protocols and RNG, the trial/campaign runners, and the
/// observer pipeline. graph/analysis/p2p are reachable only through these.
bool record_path_module(const std::string& module) {
  static const std::set<std::string> kModules = {
      "core",    "phonecall", "protocols", "rng",     "sim",
      "metrics", "exp",       "bigtopo",   "parallel"};
  return kModules.count(module) != 0;
}

// Direct module dependencies — MUST mirror the DEPENDS lists declared in
// src/*/CMakeLists.txt (the build graph is the source of truth; this table
// lets the lint name the offending include line). The self-test fixtures
// exercise representative edges; if the build graph changes, update this
// table in the same commit.
const std::map<std::string, std::vector<std::string>>& module_deps() {
  static const std::map<std::string, std::vector<std::string>> kDeps = {
      {"common", {}},
      {"rng", {"common"}},
      {"analysis", {"common"}},
      {"telemetry", {"common"}},
      {"parallel", {"common", "telemetry"}},
      {"graph", {"common", "rng"}},
      {"bigtopo", {"common", "graph", "parallel", "rng", "telemetry"}},
      {"phonecall", {"common", "graph", "rng", "telemetry"}},
      {"protocols", {"common", "phonecall"}},
      {"metrics", {"analysis", "common", "graph", "phonecall"}},
      {"core", {"common", "graph", "metrics", "phonecall", "protocols", "rng"}},
      {"p2p", {"common", "graph", "protocols", "rng"}},
      {"sim",
       {"common", "core", "graph", "metrics", "parallel", "phonecall", "rng",
        "telemetry"}},
      {"exp",
       {"bigtopo", "common", "core", "graph", "metrics", "p2p", "parallel",
        "phonecall", "protocols", "rng", "sim", "telemetry"}},
  };
  return kDeps;
}

/// Transitive closure of module_deps() (module dependencies are PUBLIC in
/// CMake, so a module may include headers of its whole dependency cone).
const std::map<std::string, std::set<std::string>>& module_closure() {
  static const std::map<std::string, std::set<std::string>> kClosure = [] {
    std::map<std::string, std::set<std::string>> closure;
    // Iterate to a fixed point; the DAG is tiny.
    for (const auto& [mod, deps] : module_deps()) {
      closure[mod] = {deps.begin(), deps.end()};
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& [mod, reach] : closure) {
        const std::set<std::string> snapshot = reach;
        for (const std::string& dep : snapshot) {
          for (const std::string& indirect : closure[dep]) {
            changed |= reach.insert(indirect).second;
          }
        }
      }
    }
    return closure;
  }();
  return kClosure;
}

// ---------------------------------------------------------------------------
// Include-directive extraction (from the raw text: the path inside the
// quotes is exactly what scrubbing blanks out)
// ---------------------------------------------------------------------------

struct Include {
  int line;
  std::string path;  // between the quotes / angle brackets
};

std::vector<Include> collect_includes(std::string_view content) {
  std::vector<Include> out;
  int line = 1;
  std::size_t i = 0;
  while (i < content.size()) {
    const std::size_t eol = content.find('\n', i);
    const std::size_t len =
        (eol == std::string_view::npos ? content.size() : eol) - i;
    std::string_view text = content.substr(i, len);
    std::string_view rest = trim(text);
    if (!rest.empty() && rest.front() == '#') {
      rest.remove_prefix(1);
      rest = trim(rest);
      if (rest.starts_with("include")) {
        rest.remove_prefix(7);
        rest = trim(rest);
        if (!rest.empty() && (rest.front() == '"' || rest.front() == '<')) {
          const char close = rest.front() == '"' ? '"' : '>';
          rest.remove_prefix(1);
          const std::size_t end = rest.find(close);
          if (end != std::string_view::npos) {
            out.push_back({line, std::string(rest.substr(0, end))});
          }
        }
      }
    }
    if (eol == std::string_view::npos) break;
    i = eol + 1;
    ++line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Finding emission with suppression accounting
// ---------------------------------------------------------------------------

class Sink {
 public:
  Sink(std::string_view path, const Scrubbed& scrubbed, const Options& options,
       FileReport& report)
      : path_(path), scrubbed_(scrubbed), report_(report) {
    for (const std::string& rule : options.rules) enabled_.insert(rule);
  }

  [[nodiscard]] bool enabled(std::string_view rule) const {
    return enabled_.empty() || enabled_.count(std::string(rule)) != 0;
  }

  void emit(int line, std::string_view rule, std::string message) {
    if (!enabled(rule)) return;
    if (scrubbed_.file_allow.count(std::string(rule)) != 0) {
      ++report_.suppressed;
      return;
    }
    if (const auto it = scrubbed_.line_allow.find(line);
        it != scrubbed_.line_allow.end() &&
        it->second.count(std::string(rule)) != 0) {
      ++report_.suppressed;
      return;
    }
    report_.findings.push_back(
        {std::string(path_), line, std::string(rule), std::move(message)});
  }

 private:
  std::string_view path_;
  const Scrubbed& scrubbed_;
  FileReport& report_;
  std::set<std::string> enabled_;
};

int line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() +
                                                           static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

/// True when `text[pos..pos+token)` is `token` with no identifier character
/// butting against either side.
bool token_at(std::string_view text, std::size_t pos, std::string_view token) {
  if (text.substr(pos, token.size()) != token) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t after = pos + token.size();
  return after >= text.size() || !ident_char(text[after]);
}

/// Position of the next non-space character at or after `pos` (same line or
/// beyond; lexers may split a call across lines).
std::size_t skip_space(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         (space_char(text[pos]) || text[pos] == '\n')) {
    ++pos;
  }
  return pos;
}

// ---------------------------------------------------------------------------
// Rule: no-nondeterminism-sources
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleNondet = "no-nondeterminism-sources";

void rule_nondeterminism(const Scrubbed& s, const std::string& module,
                         Sink& sink) {
  if (!record_path_module(module)) return;
  const std::string_view text = s.text;

  struct BannedCall {
    std::string_view token;
    std::string_view what;
  };
  static constexpr std::array<BannedCall, 5> kCalls = {{
      {"time", "wall-clock read 'time()'"},
      {"clock", "processor-clock read 'clock()'"},
      {"rand", "C PRNG 'rand()' (all randomness must flow through rrb::Rng)"},
      {"srand", "C PRNG seeding 'srand()'"},
      {"getenv", "environment read 'getenv()'"},
  }};

  for (std::size_t i = 0; i < text.size(); ++i) {
    if (token_at(text, i, "random_device")) {
      sink.emit(line_of(text, i), kRuleNondet,
                "std::random_device in record-path module '" + module +
                    "': draws must come from rrb::Rng streams keyed on "
                    "(seed, trial)");
      i += 12;
      continue;
    }
    if (text.compare(i, 5, "::now") == 0 &&
        (i + 5 >= text.size() || !ident_char(text[i + 5]))) {
      const std::size_t paren = skip_space(text, i + 5);
      if (paren < text.size() && text[paren] == '(') {
        sink.emit(line_of(text, i), kRuleNondet,
                  "clock read '::now()' in record-path module '" + module +
                      "': wall-clock values must never reach recorded "
                      "artifacts");
      }
      i += 4;
      continue;
    }
    for (const BannedCall& call : kCalls) {
      if (!token_at(text, i, call.token)) continue;
      const std::size_t paren = skip_space(text, i + call.token.size());
      if (paren < text.size() && text[paren] == '(') {
        sink.emit(line_of(text, i), kRuleNondet,
                  std::string(call.what) + " in record-path module '" +
                      module + "'");
        i += call.token.size() - 1;
      }
      break;  // tokens cannot overlap: at most one can match at `i`
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-unordered-iteration
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleUnordered = "no-unordered-iteration";

/// Skip a balanced <...> starting at `pos` (which must index '<'); returns
/// the index one past the matching '>'. Good enough for declarations —
/// comparison operators do not appear between a container name and its
/// argument list.
std::size_t skip_angles(std::string_view text, std::size_t pos) {
  int depth = 0;
  while (pos < text.size()) {
    if (text[pos] == '<') ++depth;
    if (text[pos] == '>' && --depth == 0) return pos + 1;
    ++pos;
  }
  return pos;
}

/// Names declared in this file with an unordered container type, e.g.
/// `std::unordered_map<K, V> index;` or a member `..._set<T> seen_;`.
std::set<std::string> unordered_decl_names(std::string_view text) {
  static constexpr std::array<std::string_view, 4> kContainers = {
      "unordered_map", "unordered_multimap", "unordered_set",
      "unordered_multiset"};
  std::set<std::string> names;
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const std::string_view container : kContainers) {
      if (!token_at(text, i, container)) continue;
      std::size_t j = skip_space(text, i + container.size());
      if (j < text.size() && text[j] == '<') j = skip_angles(text, j);
      j = skip_space(text, j);
      while (j < text.size() && (text[j] == '&' || text[j] == '*')) {
        j = skip_space(text, j + 1);
      }
      std::size_t begin = j;
      while (j < text.size() && ident_char(text[j])) ++j;
      if (j > begin) names.insert(std::string(text.substr(begin, j - begin)));
      i = j > i ? j - 1 : i;
      break;
    }
  }
  return names;
}

/// The trailing identifier of an expression like `state.seen_` or `*map`.
std::string_view trailing_ident(std::string_view expr) {
  expr = trim(expr);
  std::size_t end = expr.size();
  while (end > 0 && !ident_char(expr[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && ident_char(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

void rule_unordered_iteration(const Scrubbed& s, const std::string& module,
                              Sink& sink) {
  if (!record_path_module(module)) return;
  const std::string_view text = s.text;
  const std::set<std::string> names = unordered_decl_names(text);

  for (std::size_t i = 0; i < text.size(); ++i) {
    // Range-for whose range is (or ends in) an unordered container.
    if (token_at(text, i, "for")) {
      std::size_t paren = skip_space(text, i + 3);
      if (paren >= text.size() || text[paren] != '(') continue;
      int depth = 0;
      std::size_t colon = std::string_view::npos;
      std::size_t close = paren;
      for (std::size_t j = paren; j < text.size(); ++j) {
        const char c = text[j];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
        if (c == ':' && depth == 1 && colon == std::string_view::npos) {
          const bool scope = (j + 1 < text.size() && text[j + 1] == ':') ||
                             (j > 0 && text[j - 1] == ':');
          if (!scope) colon = j;
        }
      }
      if (colon == std::string_view::npos) continue;
      const std::string_view range =
          trim(text.substr(colon + 1, close - colon - 1));
      const std::string_view name = trailing_ident(range);
      const bool unordered_name = names.count(std::string(name)) != 0;
      if (unordered_name || range.find("unordered_") != std::string_view::npos) {
        sink.emit(line_of(text, i), kRuleUnordered,
                  "range-for over unordered container '" + std::string(name) +
                      "' in record-path module '" + module +
                      "': iteration order can leak into recorded output — "
                      "iterate a sorted copy or an ordered container");
      }
      i = close;
      continue;
    }
  }

  // Iterator loops: `name.begin()` / `name->cbegin()` on an unordered name.
  static constexpr std::array<std::string_view, 2> kBegin = {"begin", "cbegin"};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '.' && !(text[i] == '>' && i > 0 && text[i - 1] == '-')) {
      continue;
    }
    const std::size_t after = i + 1;
    for (const std::string_view b : kBegin) {
      if (text.compare(after, b.size(), b) != 0) continue;
      const std::size_t paren = skip_space(text, after + b.size());
      if (paren >= text.size() || text[paren] != '(') continue;
      const std::size_t recv_end = text[i] == '.' ? i : i - 1;
      const std::string_view name =
          trailing_ident(text.substr(0, recv_end));
      if (names.count(std::string(name)) != 0) {
        sink.emit(line_of(text, i), kRuleUnordered,
                  "iterator over unordered container '" + std::string(name) +
                      "' in record-path module '" + module +
                      "': iteration order can leak into recorded output");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: observer-read-only and no-unsequenced-rng-args share the RNG draw
// vocabulary (the mutating methods of rrb::Rng; fork() and seed() are const
// and excluded on purpose).
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, 9> kDrawMethods = {
    "next_u64",        "uniform_u64", "uniform_int",
    "uniform_double",  "bernoulli",   "shuffle",
    "sample_distinct", "sample_distinct_small", "split"};

/// If `pos` indexes the start of a draw-method name preceded by '.' or '->'
/// and followed by '(', return that name; otherwise "".
std::string_view draw_method_at(std::string_view text, std::size_t pos) {
  if (pos == 0) return {};
  const bool dot = text[pos - 1] == '.';
  const bool arrow = pos >= 2 && text[pos - 1] == '>' && text[pos - 2] == '-';
  if (!dot && !arrow) return {};
  for (const std::string_view method : kDrawMethods) {
    if (text.compare(pos, method.size(), method) != 0) continue;
    const std::size_t after = pos + method.size();
    if (after < text.size() && ident_char(text[after])) continue;
    if (const std::size_t paren = skip_space(text, after);
        paren < text.size() && text[paren] == '(') {
      return method;
    }
  }
  return {};
}

constexpr std::string_view kRuleObserver = "observer-read-only";

void rule_observer_read_only(std::string_view content, const Scrubbed& s,
                             const std::string& module, Sink& sink) {
  if (module != "metrics") return;

  for (const Include& inc : collect_includes(content)) {
    if (inc.path.starts_with("rrb/rng/")) {
      sink.emit(inc.line, kRuleObserver,
                "observer translation unit includes '" + inc.path +
                    "': observers are read-only and may not see the RNG at "
                    "all (ROADMAP observer read-only contract)");
    } else if (inc.path == "rrb/phonecall/engine.hpp") {
      sink.emit(inc.line, kRuleObserver,
                "observer translation unit includes the mutating engine "
                "header '" +
                    inc.path +
                    "': observers consume the hook stream (result.hpp "
                    "types), they never touch the engine");
    }
  }

  const std::string_view text = s.text;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (token_at(text, i, "Rng")) {
      sink.emit(line_of(text, i), kRuleObserver,
                "'Rng' mentioned in an observer translation unit: observers "
                "draw no randomness (a draw in a hook would shift the "
                "engine's stream and invalidate every recorded experiment)");
      i += 2;
      continue;
    }
    if (const std::string_view method = draw_method_at(text, i);
        !method.empty()) {
      sink.emit(line_of(text, i), kRuleObserver,
                "draw call '." + std::string(method) +
                    "()' in an observer translation unit: observer hooks are "
                    "read-only");
      i += method.size() - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-unsequenced-rng-args
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleUnsequenced = "no-unsequenced-rng-args";

/// The receiver expression of a method call, scanning backwards from the
/// '.' / '->' at `op_end` (exclusive): identifier chains with member access
/// and balanced ()/[] groups, e.g. `state.rngs[i]` or `trial_rng`.
std::string receiver_before(std::string_view text, std::size_t op_begin) {
  std::size_t i = op_begin;
  while (i > 0) {
    const char c = text[i - 1];
    if (ident_char(c) || c == '.') {
      --i;
      continue;
    }
    if (c == '>' && i >= 2 && text[i - 2] == '-') {
      i -= 2;
      continue;
    }
    if (c == ':') {
      --i;
      continue;
    }
    if (c == ')' || c == ']') {
      const char open = c == ')' ? '(' : '[';
      int depth = 0;
      while (i > 0) {
        const char d = text[i - 1];
        if (d == c) ++depth;
        if (d == open && --depth == 0) {
          --i;
          break;
        }
        --i;
      }
      continue;
    }
    break;
  }
  std::string receiver(trim(text.substr(i, op_begin - i)));
  // Normalise whitespace inside the receiver so "a . b" == "a.b".
  receiver.erase(std::remove_if(receiver.begin(), receiver.end(),
                                [](char c) {
                                  return space_char(c) || c == '\n';
                                }),
                 receiver.end());
  return receiver;
}

void rule_unsequenced_rng_args(const Scrubbed& s, Sink& sink) {
  const std::string_view text = s.text;

  struct Frame {
    char kind;  // '(', '[' or '{'
    std::map<std::string, int> draws;  // receiver -> line of first draw
  };
  std::vector<Frame> stack;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      stack.push_back({c, {}});
      continue;
    }
    if (c == ')' || c == ']' || c == '}') {
      const char open = c == ')' ? '(' : (c == ']' ? '[' : '{');
      while (!stack.empty()) {
        const char kind = stack.back().kind;
        stack.pop_back();
        if (kind == open) break;
      }
      continue;
    }
    const std::string_view method = draw_method_at(text, i);
    if (method.empty()) continue;

    const std::size_t op_begin =
        text[i - 1] == '.' ? i - 1 : i - 2;  // '.' or '->'
    const std::string receiver = receiver_before(text, op_begin);
    if (receiver.empty()) continue;
    const int line = line_of(text, i);

    // Register the draw with every enclosing argument-list group up to the
    // nearest brace: draws inside a lambda body are sequenced by the body's
    // own statements and must not leak into the enclosing call's list.
    for (auto frame = stack.rbegin(); frame != stack.rend(); ++frame) {
      if (frame->kind == '{') break;
      const auto [it, inserted] = frame->draws.emplace(receiver, line);
      if (!inserted) {
        sink.emit(line, kRuleUnsequenced,
                  "second draw '" + receiver + "." + std::string(method) +
                      "()' in one argument list (first draw at line " +
                      std::to_string(it->second) +
                      "): argument evaluation order is unspecified, so the "
                      "draw stream would differ between compilers — draw "
                      "into named locals first");
        break;
      }
    }
    i += method.size() - 1;
  }
}

// ---------------------------------------------------------------------------
// Rule: module-layering
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleLayering = "module-layering";

void rule_module_layering(std::string_view content, const std::string& module,
                          Sink& sink) {
  if (module.empty()) return;
  const auto closure_it = module_closure().find(module);
  if (closure_it == module_closure().end()) return;  // unknown module dir
  const std::set<std::string>& allowed = closure_it->second;

  for (const Include& inc : collect_includes(content)) {
    if (!inc.path.starts_with("rrb/")) continue;
    const std::size_t end = inc.path.find('/', 4);
    if (end == std::string::npos) continue;
    const std::string target = inc.path.substr(4, end - 4);
    if (target == module || allowed.count(target) != 0) continue;
    if (module_deps().count(target) == 0) {
      sink.emit(inc.line, kRuleLayering,
                "include of unknown rrb module '" + target + "' ('" +
                    inc.path + "')");
    } else {
      sink.emit(inc.line, kRuleLayering,
                "module '" + module + "' may not include '" + inc.path +
                    "': '" + target +
                    "' is not in its dependency cone (see the layering "
                    "comment in src/CMakeLists.txt)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: telemetry-side-channel
// ---------------------------------------------------------------------------

constexpr std::string_view kRuleTelemetry = "telemetry-side-channel";

/// The translation units that render deterministic bytes: every metrics TU
/// (observer digests feed recorded fingerprints) and the exp artifact/journal
/// writers. Telemetry is a wall-clock side channel (ROADMAP telemetry
/// invariant) — these TUs may not even see its headers, so a timing or RSS
/// value can never leak into an artifact by construction.
bool artifact_writing_tu(const std::string& module,
                         std::string_view display_path) {
  if (module == "metrics") return true;
  if (module != "exp") return false;
  const std::size_t slash = display_path.find_last_of('/');
  const std::string_view base = slash == std::string_view::npos
                                    ? display_path
                                    : display_path.substr(slash + 1);
  return base.starts_with("artifact") || base.starts_with("journal");
}

void rule_telemetry_side_channel(std::string_view content,
                                 const std::string& module,
                                 std::string_view display_path, Sink& sink) {
  if (!artifact_writing_tu(module, display_path)) return;
  for (const Include& inc : collect_includes(content)) {
    if (!inc.path.starts_with("rrb/telemetry/")) continue;
    sink.emit(inc.line, kRuleTelemetry,
              "artifact/record-writing translation unit includes '" +
                  inc.path +
                  "': telemetry is a wall-clock side channel and may never "
                  "be visible where deterministic bytes are rendered "
                  "(ROADMAP telemetry invariant)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      std::string(kRuleNondet),      std::string(kRuleUnordered),
      std::string(kRuleObserver),    std::string(kRuleUnsequenced),
      std::string(kRuleLayering),    std::string(kRuleTelemetry),
  };
  return kNames;
}

bool is_rule(std::string_view name) {
  const auto& names = rule_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

FileReport lint_file(std::string_view display_path, std::string_view content,
                     const Options& options) {
  FileReport report;
  const Scrubbed scrubbed = scrub(content);
  const std::string module = module_of(display_path);
  Sink sink(display_path, scrubbed, options, report);

  rule_nondeterminism(scrubbed, module, sink);
  rule_unordered_iteration(scrubbed, module, sink);
  rule_observer_read_only(content, scrubbed, module, sink);
  rule_unsequenced_rng_args(scrubbed, sink);
  rule_module_layering(content, module, sink);
  rule_telemetry_side_channel(content, module, display_path, sink);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return report;
}

}  // namespace rrb::lint

#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file artifact.hpp
/// Machine-readable experiment artifacts: the one JSON/CSV serialisation
/// layer shared by the bench harness (BENCH_*.json trajectory files), the
/// campaign subsystem (manifest/results streams) and simulate_cli --json.
/// Everything here is deterministic — a record's bytes are a pure function
/// of the values put into it — because campaign resume and the
/// thread-count-independence guarantee both diff these files byte-for-byte.

namespace rrb::exp {

/// Escape `text` for use inside a JSON string literal (RFC 8259): quote,
/// backslash and all control characters below 0x20; other bytes (including
/// UTF-8 multibyte sequences) pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Deterministic decimal rendering of a double: 17 significant digits
/// (enough to round-trip exactly), no locale dependence. Non-finite values
/// render as "null" — JSON has no inf/nan literals, and a null field is
/// more honest in a data file than a quietly invalid token.
[[nodiscard]] std::string format_double(double value);

/// One flat JSON object: an ordered list of string/number/bool fields.
/// Field order is insertion order and is part of the serialised bytes.
class JsonObject {
 public:
  /// A rendered field: `json` is the serialised value token (quoted and
  /// escaped for strings), `plain` the unquoted text used for CSV cells.
  struct Field {
    std::string key;
    std::string json;
    std::string plain;
  };

  JsonObject& set(const std::string& key, const std::string& value) {
    // Built append-style: GCC 12 at -O3 flags the operator+ chain with a
    // false-positive -Wrestrict.
    const std::string escaped = json_escape(value);
    std::string json;
    json.reserve(escaped.size() + 2);
    json += '"';
    json += escaped;
    json += '"';
    fields_.push_back({key, std::move(json), value});
    return *this;
  }
  JsonObject& set(const std::string& key, const char* value) {
    return set(key, std::string(value));
  }
  JsonObject& set(const std::string& key, double value) {
    std::string text = format_double(value);
    fields_.push_back({key, text, std::move(text)});
    return *this;
  }
  JsonObject& set(const std::string& key, std::uint64_t value) {
    std::string text = std::to_string(value);
    fields_.push_back({key, text, std::move(text)});
    return *this;
  }
  JsonObject& set(const std::string& key, int value) {
    std::string text = std::to_string(value);
    fields_.push_back({key, text, std::move(text)});
    return *this;
  }
  JsonObject& set(const std::string& key, bool value) {
    std::string text = value ? "true" : "false";
    fields_.push_back({key, text, std::move(text)});
    return *this;
  }

  /// Append a pre-rendered field (used when round-tripping records parsed
  /// back from a manifest: the original value token is preserved verbatim
  /// so re-serialisation is byte-identical).
  JsonObject& set_raw(Field field) {
    fields_.push_back(std::move(field));
    return *this;
  }

  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }
  [[nodiscard]] bool empty() const { return fields_.empty(); }

  /// The plain text of field `key`, or nullopt if absent.
  [[nodiscard]] std::optional<std::string_view> find_plain(
      std::string_view key) const;

  /// The numeric value of field `key`, or nullopt if absent or not a
  /// number.
  [[nodiscard]] std::optional<double> find_number(std::string_view key) const;

  /// Pretty multi-line rendering, `indent` spaces deep (the layout of the
  /// BENCH_*.json trajectory files).
  void write(std::ostream& os, int indent) const;

  /// Compact single-line rendering (the JSONL layout of campaign
  /// manifests/results). No trailing newline.
  void write_line(std::ostream& os) const;

  /// write_line into a fresh string.
  [[nodiscard]] std::string to_line() const;

 private:
  std::vector<Field> fields_;
};

/// Parse one flat JSON object (the output of JsonObject::write_line or
/// write) back into a JsonObject. Value tokens are preserved verbatim, so
/// to_line() on the result reproduces the canonical line byte-for-byte.
/// Returns nullopt on malformed input or nested containers — campaign
/// resume treats such manifest lines as lost and recomputes the cell.
[[nodiscard]] std::optional<JsonObject> parse_flat_json(std::string_view text);

/// Escape a CSV cell per RFC 4180: wrap in quotes (doubling embedded
/// quotes) when the value contains a comma, quote, or newline.
[[nodiscard]] std::string csv_escape(std::string_view text);

/// CSV emission with a fixed column set: one header plus one row per
/// record; a record missing a column yields an empty cell, extra fields
/// are ignored.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> columns);

  void write_header(std::ostream& os) const;
  void write_row(std::ostream& os, const JsonObject& record) const;

  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }

 private:
  std::vector<std::string> columns_;
};

/// The shared {meta, top, rows} report layout used by the BENCH_*.json
/// trajectory files and simulate_cli --json.
void write_report(std::ostream& os, const JsonObject& meta,
                  const JsonObject& top, const std::vector<JsonObject>& rows);

/// Accumulates a harness binary's machine-readable results and writes them
/// as a {meta, top, rows} report. Standard meta fields (name, git
/// revision, thread count, wall time) are filled automatically so
/// trajectory files from different PRs are comparable. The bench harness
/// wraps this with its baked-in git revision (rrb::bench::BenchReport);
/// simulate_cli uses it directly with write_to().
class BenchReport {
 public:
  BenchReport(std::string name, std::string git_revision, int threads);

  /// Add a top-level scalar (e.g. a fitted slope).
  template <typename T>
  BenchReport& set(const std::string& key, T value) {
    top_.set(key, value);
    return *this;
  }

  /// Append a per-case row; fill in the returned object.
  JsonObject& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Write the report to `path` (creating/truncating the file) and report
  /// the path on stdout. Returns the path.
  std::string write_to(const std::string& path);

  /// Write BENCH_<name>.json into $RRB_BENCH_JSON_DIR (default the working
  /// directory). Returns the path written.
  std::string write();

 private:
  std::string name_;
  std::string git_;
  int threads_;
  double start_ms_;  ///< steady-clock origin for the wall_ms meta field
  JsonObject top_;
  std::vector<JsonObject> rows_;
};

}  // namespace rrb::exp

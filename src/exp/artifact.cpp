#include "rrb/exp/artifact.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace rrb::exp {

namespace {

double steady_now_ms() {
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — feeds only the
  // timing.jsonl wall-clock side channel, which is never part of the
  // deterministic artifacts and never diffed (see PR 5 notes in CHANGES.md).
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(since_epoch).count();
}

}  // namespace

std::optional<std::string_view> JsonObject::find_plain(
    std::string_view key) const {
  for (const Field& field : fields_)
    if (field.key == key) return std::string_view(field.plain);
  return std::nullopt;
}

std::optional<double> JsonObject::find_number(std::string_view key) const {
  for (const Field& field : fields_) {
    if (field.key != key) continue;
    // std::from_chars, not strtod: value parsing must match the classic-
    // locale discipline json::format_double applies when writing, even
    // inside a host process that set a comma-decimal LC_NUMERIC.
    const std::string& text = field.plain;
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
      return std::nullopt;
    return value;
  }
  return std::nullopt;
}

void JsonObject::write(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n" << pad << "  \"" << json::escape(fields_[i].key)
       << "\": " << fields_[i].json;
  }
  os << "\n" << pad << "}";
}

void JsonObject::write_line(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << json::escape(fields_[i].key) << "\": " << fields_[i].json;
  }
  os << "}";
}

std::string JsonObject::to_line() const {
  std::ostringstream os;
  write_line(os);
  return os.str();
}

std::optional<JsonObject> parse_flat_json(std::string_view text) {
  std::optional<std::vector<json::Field>> fields = json::scan_flat_object(text);
  if (!fields) return std::nullopt;
  JsonObject object;
  for (json::Field& field : *fields) {
    if (field.kind == json::Kind::kObject) return std::nullopt;
    object.set_raw({std::move(field.key), std::move(field.token),
                    std::move(field.text)});
  }
  return object;
}

std::string csv_escape(std::string_view text) {
  if (text.find_first_of(",\"\n\r") == std::string_view::npos)
    return std::string(text);
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void CsvWriter::write_header(std::ostream& os) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) os << ",";
    os << csv_escape(columns_[i]);
  }
  os << "\n";
}

void CsvWriter::write_row(std::ostream& os, const JsonObject& record) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) os << ",";
    if (const auto plain = record.find_plain(columns_[i]))
      os << csv_escape(*plain);
  }
  os << "\n";
}

void write_report(std::ostream& os, const JsonObject& meta,
                  const JsonObject& top, const std::vector<JsonObject>& rows) {
  os << "{\n  \"meta\": ";
  meta.write(os, 2);
  os << ",\n  \"top\": ";
  top.write(os, 2);
  os << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n    ";
    rows[i].write(os, 4);
  }
  os << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
}

BenchReport::BenchReport(std::string name, std::string git_revision,
                         int threads)
    : name_(std::move(name)),
      git_(std::move(git_revision)),
      threads_(threads),
      start_ms_(steady_now_ms()) {}

std::string BenchReport::write_to(const std::string& path) {
  const double wall_ms = steady_now_ms() - start_ms_;

  JsonObject meta;
  meta.set("bench", name_)
      .set("git", git_)
      .set("threads", threads_)
      .set("wall_ms", wall_ms);

  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return path;
  }
  write_report(os, meta, top_, rows_);
  std::cout << "bench json: " << path << "\n";
  return path;
}

std::string BenchReport::write() {
  std::string dir = ".";
  // rrb-lint: allow-next-line(no-nondeterminism-sources) — chooses where the
  // bench report lands on disk, not what it contains.
  if (const char* env = std::getenv("RRB_BENCH_JSON_DIR");
      env != nullptr && *env != '\0')
    dir = env;
  return write_to(dir + "/BENCH_" + name_ + ".json");
}

}  // namespace rrb::exp

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file table.hpp
/// Plain-text table rendering for benchmark harness output. Every bench
/// binary prints one or more of these tables, mirroring the rows the paper's
/// claims predict (see EXPERIMENTS.md).

namespace rrb {

/// A simple column-aligned table. Cells are strings; numeric helpers format
/// with sensible precision. Rendering right-aligns numeric-looking cells.
class Table {
 public:
  /// Construct with column headers.
  explicit Table(std::vector<std::string> headers);

  /// Title printed above the table (optional).
  void set_title(std::string title);

  /// Start a new row; subsequent add_* calls fill it left to right.
  void begin_row();

  /// Append a string cell to the current row.
  void add(std::string cell);

  /// Append a formatted double (fixed, `precision` decimals).
  void add(double value, int precision = 3);

  /// Append an integer cell.
  void add(std::uint64_t value);
  void add(std::int64_t value);
  void add(int value);

  /// Number of completed + in-progress rows.
  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  /// Render as an aligned plain-text table.
  [[nodiscard]] std::string to_string() const;

  /// Convenience: stream the plain-text rendering.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rrb

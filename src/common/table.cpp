#include "rrb/common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "rrb/common/check.hpp"

namespace rrb {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  RRB_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::set_title(std::string title) { title_ = std::move(title); }

void Table::begin_row() { rows_.emplace_back(); }

void Table::add(std::string cell) {
  RRB_REQUIRE(!rows_.empty(), "begin_row() before add()");
  RRB_REQUIRE(rows_.back().size() < headers_.size(),
              "row has more cells than headers");
  rows_.back().push_back(std::move(cell));
}

void Table::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  add(os.str());
}

void Table::add(std::uint64_t value) { add(std::to_string(value)); }
void Table::add(std::int64_t value) { add(std::to_string(value)); }
void Table::add(int value) { add(std::to_string(value)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << "  " << std::setw(static_cast<int>(widths[c])) << cell;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 2 * headers_.size();
  for (auto w : widths) total += w;
  os << "  " << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.to_string();
}

}  // namespace rrb

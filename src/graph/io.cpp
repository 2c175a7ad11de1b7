#include "rrb/graph/io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "rrb/common/check.hpp"

namespace rrb {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << "# rrbcast edge list\n";
  os << "n " << g.num_nodes() << "\n";
  for (const Edge& e : g.edge_list()) os << e.u << ' ' << e.v << "\n";
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  bool have_header = false;
  NodeId n = 0;
  std::vector<Edge> edges;
  std::size_t line_no = 0;

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;  // blank

    if (!have_header) {
      if (first != "n")
        throw std::runtime_error("edge list: expected 'n <count>' header at "
                                 "line " + std::to_string(line_no));
      // Parsed straight into NodeId: from_chars takes no sign and reports
      // overflow, where istream would wrap "-1" to 2^64 - 1 and a cast
      // would truncate a count past NodeId's range.
      std::string count;
      ls >> count;
      const char* count_end = count.data() + count.size();
      const auto [ptr, ec] = std::from_chars(count.data(), count_end, n);
      if (ec == std::errc::result_out_of_range)
        throw std::runtime_error("edge list: node count " + count +
                                 " does not fit NodeId");
      if (ec != std::errc{} || ptr != count_end)
        throw std::runtime_error("edge list: malformed node count");
      have_header = true;
      std::string rest;
      if (ls >> rest)
        throw std::runtime_error("edge list: trailing tokens after header");
      continue;
    }

    std::uint64_t u = 0;
    std::uint64_t v = 0;
    std::istringstream es(line);
    if (!(es >> u >> v))
      throw std::runtime_error("edge list: malformed edge at line " +
                               std::to_string(line_no));
    std::string rest;
    if (es >> rest)
      throw std::runtime_error("edge list: trailing tokens at line " +
                               std::to_string(line_no));
    if (u >= n || v >= n)
      throw std::runtime_error("edge list: endpoint out of range at line " +
                               std::to_string(line_no));
    edges.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  if (!have_header)
    throw std::runtime_error("edge list: missing 'n <count>' header");
  return Graph::from_edges(n, edges);
}

std::string to_edge_list_string(const Graph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

Graph from_edge_list_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

}  // namespace rrb

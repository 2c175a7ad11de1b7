#include "rrb/graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "rrb/graph/generators.hpp"

namespace rrb {
namespace {

TEST(GraphIo, RoundTripSimpleGraph) {
  Rng rng(1);
  const Graph g = random_regular_simple(64, 4, rng);
  const Graph back = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.edge_list(), g.edge_list());
}

TEST(GraphIo, RoundTripMultigraphWithLoops) {
  const std::vector<Edge> edges{{0, 1}, {0, 1}, {2, 2}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const Graph back = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(back.edge_multiplicity(0, 1), 2U);
  EXPECT_EQ(back.edge_multiplicity(2, 2), 1U);
  EXPECT_EQ(back.edge_list(), g.edge_list());
}

TEST(GraphIo, RoundTripEmptyAndEdgeless) {
  const Graph g(5);
  const Graph back = from_edge_list_string(to_edge_list_string(g));
  EXPECT_EQ(back.num_nodes(), 5U);
  EXPECT_EQ(back.num_edges(), 0U);
}

TEST(GraphIo, CanonicalOutputIsDeterministic) {
  Rng r1(2);
  Rng r2(2);
  const Graph a = configuration_model(32, 4, r1);
  const Graph b = configuration_model(32, 4, r2);
  EXPECT_EQ(to_edge_list_string(a), to_edge_list_string(b));
}

TEST(GraphIo, ParsesCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "n 3\n"
      "0 1  # trailing comment\n"
      "\n"
      "1 2\n";
  const Graph g = from_edge_list_string(text);
  EXPECT_EQ(g.num_nodes(), 3U);
  EXPECT_EQ(g.num_edges(), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, RejectsMissingHeader) {
  EXPECT_THROW((void)from_edge_list_string("0 1\n"), std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string(""), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW((void)from_edge_list_string("n 2\n0 2\n"),
               std::runtime_error);
}

TEST(GraphIo, RejectsMalformedEdges) {
  EXPECT_THROW((void)from_edge_list_string("n 2\n0\n"), std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string("n 2\n0 1 junk\n"),
               std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string("n 2 junk\n"),
               std::runtime_error);
}

TEST(GraphIo, RejectsNodeCountOutsideNodeId) {
  // Counts a sign or a cast would wrap to a small n come first: ASSERT stops
  // here if they parse, before the huge ones below could allocate.
  ASSERT_THROW((void)from_edge_list_string("n 4294967296\n"),
               std::runtime_error);  // 2^32, truncated to 0
  ASSERT_THROW((void)from_edge_list_string("n -4294967291\n0 1\n"),
               std::runtime_error);  // wraps to 2^64 - 2^32 + 5, then 5
  EXPECT_THROW((void)from_edge_list_string("n -1\n"), std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string("n 99999999999\n"),
               std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string("n +5\n"), std::runtime_error);
  EXPECT_THROW((void)from_edge_list_string("n\n"), std::runtime_error);
}

TEST(GraphIo, StreamInterfaceMatchesStringInterface) {
  Rng rng(3);
  const Graph g = gnp(40, 0.1, rng);
  std::ostringstream os;
  write_edge_list(os, g);
  std::istringstream is(os.str());
  const Graph back = read_edge_list(is);
  EXPECT_EQ(back.edge_list(), g.edge_list());
}

}  // namespace
}  // namespace rrb

#include "rrb/common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rrb {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table(std::vector<std::string>{}), std::logic_error);
}

TEST(Table, RendersHeadersAndRows) {
  Table t({"n", "rounds"});
  t.begin_row();
  t.add(std::uint64_t{1024});
  t.add(17.5, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("n"), std::string::npos);
  EXPECT_NE(s.find("rounds"), std::string::npos);
  EXPECT_NE(s.find("1024"), std::string::npos);
  EXPECT_NE(s.find("17.5"), std::string::npos);
}

TEST(Table, AddWithoutRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add("x"), std::logic_error);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  t.begin_row();
  t.add("x");
  EXPECT_THROW(t.add("y"), std::logic_error);
}

TEST(Table, TitleAppearsInOutput) {
  Table t({"a"});
  t.set_title("My Experiment");
  EXPECT_NE(t.to_string().find("My Experiment"), std::string::npos);
}

TEST(Table, NumRowsCountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.num_rows(), 0U);
  t.begin_row();
  t.add("1");
  t.begin_row();
  t.add("2");
  EXPECT_EQ(t.num_rows(), 2U);
}

TEST(Table, StreamOperatorMatchesToString) {
  Table t({"a"});
  t.begin_row();
  t.add("z");
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.to_string());
}

TEST(Table, DoublePrecisionIsHonoured) {
  Table t({"v"});
  t.begin_row();
  t.add(3.14159, 2);
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_string().find("3.142"), std::string::npos);
}

TEST(Table, ShortRowsRenderWithoutCrashing) {
  Table t({"a", "b", "c"});
  t.begin_row();
  t.add("only-one");
  EXPECT_NO_THROW((void)t.to_string());
}

}  // namespace
}  // namespace rrb

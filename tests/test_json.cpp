/// The common JSON codec's scanner: field kinds and tokens, the integer
/// accessor, and the grammar edges both record readers (campaign journals
/// and the telemetry events shuttle) rely on. The escaper and the double
/// format are pinned by the Artifact suite.

#include "rrb/common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace rrb::json {
namespace {

TEST(Json, ScanKeepsOrderKindsAndVerbatimTokens) {
  const auto fields = scan_flat_object(
      " {\"s\": \"a\\\"b\", \"n\": -1.5e+3, \"t\": true, \"z\": null,"
      " \"o\": {\"k\": \"}\"}}\r\n");
  ASSERT_TRUE(fields.has_value());
  ASSERT_EQ(fields->size(), 5U);
  EXPECT_EQ((*fields)[0].key, "s");
  EXPECT_EQ((*fields)[0].kind, Kind::kString);
  EXPECT_EQ((*fields)[0].token, "\"a\\\"b\"");
  EXPECT_EQ((*fields)[0].text, "a\"b");
  EXPECT_EQ((*fields)[1].kind, Kind::kNumber);
  EXPECT_EQ((*fields)[1].token, "-1.5e+3");
  EXPECT_EQ((*fields)[1].text, "-1.5e+3");
  EXPECT_EQ((*fields)[2].kind, Kind::kLiteral);
  EXPECT_EQ((*fields)[3].token, "null");
  // A nested object is kept raw; a brace inside one of its strings does
  // not close it.
  EXPECT_EQ((*fields)[4].kind, Kind::kObject);
  EXPECT_EQ((*fields)[4].token, "{\"k\": \"}\"}");
  EXPECT_FALSE(scan_flat_object("{\"o\": {\"k\": 1}").has_value());
}

TEST(Json, EscapedTextScansBackExactly) {
  std::string all_bytes;
  for (int c = 1; c < 0x80; ++c) all_bytes += static_cast<char>(c);
  all_bytes += "\xc2\xa7";  // UTF-8 passes through both ways
  const auto fields =
      scan_flat_object("{\"k\": \"" + escape(all_bytes) + "\"}");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ((*fields)[0].text, all_bytes);
}

TEST(Json, ToInt64AcceptsOnlyIntegersInRange) {
  const auto fields = scan_flat_object(
      "{\"a\": -9223372036854775808, \"b\": 9223372036854775808,"
      " \"c\": 1.0, \"d\": 1e3, \"e\": \"7\", \"f\": 0}");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ((*fields)[0].to_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE((*fields)[1].to_int64().has_value());
  EXPECT_FALSE((*fields)[2].to_int64().has_value());
  EXPECT_FALSE((*fields)[3].to_int64().has_value());
  EXPECT_FALSE((*fields)[4].to_int64().has_value());
  EXPECT_EQ((*fields)[5].to_int64(), 0);
}

}  // namespace
}  // namespace rrb::json

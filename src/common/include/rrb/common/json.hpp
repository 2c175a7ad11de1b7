#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file json.hpp
/// The library's one JSON codec: the string escaper, the double format and
/// the flat-object scanner behind every record it writes and reads back —
/// campaign manifests/results and BENCH_*.json (through rrb/exp/artifact.hpp)
/// and the telemetry events shuttle. It lives in `common` so that telemetry,
/// which may depend on `common` only, reads with the same grammar as exp.
/// Record layouts (which keys, which kinds) are checked by the callers.

namespace rrb::json {

/// Escape `text` for use inside a JSON string literal (RFC 8259): quote,
/// backslash and every control byte below 0x20 (\b \f \n \r \t in short
/// form, the rest as \u00XX); other bytes, UTF-8 sequences included, pass
/// through unchanged.
[[nodiscard]] std::string escape(std::string_view text);

/// Deterministic decimal rendering of a double: 17 significant digits
/// (enough to round-trip exactly), classic locale. Non-finite values render
/// as "null" — JSON has no inf/nan literals, and a null field is more
/// honest in a data file than a quietly invalid token.
[[nodiscard]] std::string format_double(double value);

enum class Kind {
  kString,   ///< "..."
  kNumber,   ///< RFC 8259 number
  kLiteral,  ///< true, false or null
  kObject,   ///< one nested object, kept raw
};

/// One field of a scanned object, in input order.
struct Field {
  std::string key;    ///< unescaped
  std::string token;  ///< the value exactly as written (quotes included)
  std::string text;   ///< unescaped contents for a string, else the token
  Kind kind = Kind::kLiteral;

  /// The value as an int64_t: nullopt unless it is an integer number token
  /// (no fraction, no exponent) within range.
  [[nodiscard]] std::optional<std::int64_t> to_int64() const;
};

/// Scan one JSON object whose values are strings, numbers, literals or
/// nested objects (captured raw; arrays are refused). Whitespace is JSON
/// whitespace only, nothing but whitespace may follow the closing '}', and
/// a string may hold no raw control byte nor a \u escape outside ASCII (the
/// escaper never writes one). Returns nullopt on anything else.
[[nodiscard]] std::optional<std::vector<Field>> scan_flat_object(
    std::string_view text);

}  // namespace rrb::json

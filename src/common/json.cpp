#include "rrb/common/json.hpp"

#include <charconv>
#include <cmath>
#include <locale>
#include <sstream>
#include <utility>

namespace rrb::json {

namespace {

const char* const kHexDigits = "0123456789abcdef";

class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  std::optional<std::vector<Field>> object() {
    std::vector<Field> fields;
    if (!eat('{')) return std::nullopt;
    if (!eat('}')) {
      do {
        Field field;
        if (!string(field.key) || !eat(':') || !value(field))
          return std::nullopt;
        fields.push_back(std::move(field));
      } while (eat(','));
      if (!eat('}')) return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return fields;
  }

 private:
  /// The next byte, or '\0' at the end (a NUL is invalid wherever peeked).
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// A string literal; its unescaped contents go to `out`.
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      switch (peek()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 5 > text_.size()) return false;
          const char* const first = text_.data() + pos_ + 1;
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
          if (ec != std::errc{} || end != first + 4 || code >= 0x80)
            return false;
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default: return false;
      }
      ++pos_;
    }
    return false;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (peek() >= '0' && peek() <= '9') ++pos_;
    return pos_ != start;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool number() {
    if (peek() == '-') ++pos_;
    if (peek() == '0') ++pos_;
    else if (!digits())
      return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  bool literal() {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_).starts_with(word)) {
        pos_ += word.size();
        return true;
      }
    }
    return false;
  }

  /// A balanced object, kept raw: only its strings are checked, so braces
  /// inside them do not count.
  bool raw_object() {
    std::string scratch;
    int depth = 0;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        if (!string(scratch)) return false;
        continue;
      }
      ++pos_;
      if (c == '{') ++depth;
      else if (c == '}' && --depth == 0)
        return true;
    }
    return false;
  }

  bool value(Field& field) {
    skip_ws();
    const std::size_t start = pos_;
    bool ok = false;
    switch (peek()) {
      case '"':
        field.kind = Kind::kString;
        ok = string(field.text);
        break;
      case '{':
        field.kind = Kind::kObject;
        ok = raw_object();
        break;
      case 't':
      case 'f':
      case 'n':
        field.kind = Kind::kLiteral;
        ok = literal();
        break;
      default:
        field.kind = Kind::kNumber;
        ok = number();
    }
    field.token.assign(text_.substr(start, pos_ - start));
    if (field.kind != Kind::kString) field.text = field.token;
    return ok;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHexDigits[byte >> 4];
          out += kHexDigits[byte & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(17);
  os << value;
  return os.str();
}

std::optional<std::int64_t> Field::to_int64() const {
  if (kind != Kind::kNumber) return std::nullopt;
  std::int64_t value = 0;
  const char* const last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

std::optional<std::vector<Field>> scan_flat_object(std::string_view text) {
  return Scanner(text).object();
}

}  // namespace rrb::json

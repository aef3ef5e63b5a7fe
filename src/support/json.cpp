#include "src/support/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/support/check.hpp"

namespace mtk {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

void write_json_string(std::FILE* out, std::string_view s) {
  std::string literal;
  append_json_string(literal, s);
  std::fwrite(literal.data(), 1, literal.size(), out);
}

bool JsonValue::as_bool() const {
  MTK_CHECK(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  MTK_CHECK(type_ == Type::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  MTK_CHECK(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  MTK_CHECK(type_ == Type::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  MTK_CHECK(type_ == Type::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  MTK_CHECK(type_ == Type::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  MTK_CHECK(v != nullptr, "JSON object has no member '", key, "'");
  return *v;
}

bool JsonValue::is_integer() const {
  if (type_ != Type::kNumber) return false;
  if (!std::isfinite(number_)) return false;
  if (std::abs(number_) > 9007199254740992.0) return false;  // 2^53
  return number_ == std::nearbyint(number_);
}

std::int64_t JsonValue::as_integer() const {
  MTK_CHECK(is_integer(), "JSON number is not an integer");
  return static_cast<std::int64_t>(number_);
}

// Recursive-descent parser over the whole document held in memory (telemetry
// files are at most a few MB). Tracks line/column for error messages.
// Nesting is bounded (kMaxDepth) so hostile input — e.g. ten thousand '['s
// on one serve request line — fails with a parse error instead of
// overflowing the stack.
class JsonParser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    MTK_CHECK(pos_ == text_.size(), "trailing characters after JSON value ",
              where());
    return v;
  }

 private:
  std::string where() const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return "at line " + std::to_string(line) + ", column " +
           std::to_string(col);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    MTK_CHECK(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    MTK_CHECK(peek() == c, "expected '", std::string(1, c), "' ", where());
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      MTK_CHECK(pos_ < text_.size() && text_[pos_] == *p,
                "invalid JSON literal ", where());
      ++pos_;
    }
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  // RAII depth guard shared by the two recursive productions.
  struct DepthGuard {
    explicit DepthGuard(JsonParser& p) : parser(p) {
      MTK_CHECK(++parser.depth_ <= kMaxDepth, "JSON nesting deeper than ",
                kMaxDepth, " levels ", parser.where());
    }
    ~DepthGuard() { --parser.depth_; }
    JsonParser& parser;
  };

  JsonValue parse_object() {
    DepthGuard guard(*this);
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    if (consume('}')) return v;
    while (true) {
      MTK_CHECK(peek() == '"', "expected object key ", where());
      std::string key = parse_string();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      if (consume('}')) return v;
      expect(',');
    }
  }

  JsonValue parse_array() {
    DepthGuard guard(*this);
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    if (consume(']')) return v;
    while (true) {
      v.items_.push_back(parse_value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      MTK_CHECK(pos_ < text_.size(), "unterminated JSON string ", where());
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      MTK_CHECK(pos_ < text_.size(), "unterminated escape ", where());
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          MTK_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape ",
                    where());
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              MTK_CHECK(false, "invalid \\u escape ", where());
            }
          }
          // UTF-8 encode (surrogate pairs are not needed by our emitters;
          // a lone surrogate is passed through as-is in 3 bytes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: MTK_CHECK(false, "invalid escape '\\", std::string(1, e),
                           "' ", where());
      }
    }
  }

  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    MTK_CHECK(pos_ > start, "invalid JSON number ", where());
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    MTK_CHECK(end != nullptr && *end == '\0', "invalid JSON number '", token,
              "' ", where());
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  JsonParser parser(text);
  return parser.parse_document();
}

JsonValue JsonValue::parse_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MTK_CHECK(f != nullptr, "cannot open JSON file ", path);
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  MTK_CHECK(!read_error, "error reading JSON file ", path);
  try {
    return parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace mtk

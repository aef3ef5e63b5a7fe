// Minimal JSON reader: just enough of RFC 8259 to *validate* the telemetry
// artifacts this repo emits (BENCH_*.json benchmark telemetry, metrics
// snapshots, Chrome trace-event files). The emitters write JSON by hand —
// this is the read side, used by tools/validate_telemetry and the
// observability tests. Parse errors throw with a line/column position.
//
// The one piece of the write side every emitter shares is the string
// escaper below (serve responses, metrics snapshots, Chrome traces).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mtk {

// Appends `s` as a JSON string literal: quotes, backslashes and control
// characters are escaped (\n, \r, \t short forms, \u00XX for the rest);
// every other byte is copied as is.
void append_json_string(std::string& out, std::string_view s);
// The same literal written to a stream.
void write_json_string(std::FILE* out, std::string_view s);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  // array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  // Object lookup: find returns nullptr when absent, at throws.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  // True when the number is integral (within 2^53, no fractional part).
  bool is_integer() const;
  std::int64_t as_integer() const;

  // Parses one complete JSON document (trailing garbage is an error).
  static JsonValue parse(const std::string& text);
  // Reads and parses a file; throws on IO or parse errors.
  static JsonValue parse_file(const std::string& path);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace mtk

// Minimal JSON document model for the observability layer: exporters build
// JsonValue trees, the report writer serializes them, and tests (plus
// tools/report_check) parse emitted artifacts back for validation.
//
// Deliberately small: objects preserve insertion order (stable report
// schemas, byte-reproducible output), integers stay exact through a
// round-trip (hit counters must survive serialize→parse→recompute), and
// doubles are printed with round-trip precision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace baps::obs {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// Ordered key/value pairs; duplicate keys are a caller bug.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(std::int64_t i) : v_(i) {}
  JsonValue(std::uint64_t u) : v_(u) {}
  JsonValue(int i) : v_(static_cast<std::int64_t>(i)) {}
  JsonValue(unsigned u) : v_(static_cast<std::uint64_t>(u)) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(JsonArray a) : v_(std::move(a)) {}
  JsonValue(JsonObject o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_uint() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  /// Any of int / uint / double.
  bool is_number() const { return is_int() || is_uint() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  /// Numeric accessors convert between the three numeric alternatives.
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(v_); }
  JsonArray& as_array() { return std::get<JsonArray>(v_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(v_); }
  JsonObject& as_object() { return std::get<JsonObject>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  JsonValue* find(const std::string& key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }
  /// Object member lookup that throws InvariantError when absent.
  const JsonValue& at(const std::string& key) const;

  /// Appends a member to an object value.
  void set(std::string key, JsonValue value);

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;
  void dump_to(std::ostream& os, int indent = 0, int depth = 0) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, JsonArray, JsonObject>
      v_;
};

/// Builds an object from an initializer-style vector (helper for exporters).
inline JsonValue json_object(JsonObject members) {
  return JsonValue(std::move(members));
}

/// True when `v` reads exactly through as_uint(): an unsigned or
/// non-negative integer, or an integral double in [0, 2^64).
bool is_count(const JsonValue& v);

/// Escapes and quotes a string per RFC 8259.
std::string json_escape(const std::string& s);

/// Parses a JSON document. Returns nullopt (and fills *error with a
/// position-tagged message) on malformed input. Numbers without '.', 'e',
/// or a sign that fit are kept as exact integers.
std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error = nullptr);

}  // namespace baps::obs

#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace baps::obs {

std::int64_t JsonValue::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_uint()) return static_cast<std::int64_t>(std::get<std::uint64_t>(v_));
  return static_cast<std::int64_t>(std::get<double>(v_));
}

std::uint64_t JsonValue::as_uint() const {
  if (is_uint()) return std::get<std::uint64_t>(v_);
  if (is_int()) {
    const std::int64_t i = std::get<std::int64_t>(v_);
    BAPS_REQUIRE(i >= 0, "negative JSON integer read as unsigned");
    return static_cast<std::uint64_t>(i);
  }
  return static_cast<std::uint64_t>(std::get<double>(v_));
}

double JsonValue::as_double() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  return static_cast<double>(std::get<std::uint64_t>(v_));
}

bool is_count(const JsonValue& v) {
  if (v.is_uint()) return true;
  if (v.is_int()) return v.as_int() >= 0;
  const double x = v.is_double() ? v.as_double() : -1.0;
  return x >= 0.0 && x < 18446744073709551616.0 && std::floor(x) == x;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  BAPS_REQUIRE(v != nullptr, "missing JSON object key");
  return *v;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (!is_object()) v_ = JsonObject{};
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::move(key), std::move(value));
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void write_double(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; null is the least-surprising stand-in.
    os << "null";
    return;
  }
  char buf[32];
  // Round-trip precision: a parsed-back double compares bit-equal, which the
  // report tests rely on when recomputing ratios.
  const int len = std::snprintf(buf, sizeof buf, "%.17g", d);
  os.write(buf, len);
}

void write_newline_indent(std::ostream& os, int indent, int depth) {
  if (indent <= 0) return;
  os.put('\n');
  for (int i = 0; i < indent * depth; ++i) os.put(' ');
}

}  // namespace

void JsonValue::dump_to(std::ostream& os, int indent, int depth) const {
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (as_bool() ? "true" : "false");
  } else if (is_int()) {
    os << std::get<std::int64_t>(v_);
  } else if (is_uint()) {
    os << std::get<std::uint64_t>(v_);
  } else if (is_double()) {
    write_double(os, std::get<double>(v_));
  } else if (is_string()) {
    os << json_escape(as_string());
  } else if (is_array()) {
    const JsonArray& a = as_array();
    os.put('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) os.put(',');
      write_newline_indent(os, indent, depth + 1);
      a[i].dump_to(os, indent, depth + 1);
    }
    if (!a.empty()) write_newline_indent(os, indent, depth);
    os.put(']');
  } else {
    const JsonObject& o = as_object();
    os.put('{');
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) os.put(',');
      write_newline_indent(os, indent, depth + 1);
      os << json_escape(o[i].first) << (indent > 0 ? ": " : ":");
      o[i].second.dump_to(os, indent, depth + 1);
    }
    if (!o.empty()) write_newline_indent(os, indent, depth);
    os.put('}');
  }
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream os;
  dump_to(os, indent);
  return os.str();
}

// --------------------------------------------------------------------------
// Parser: plain recursive descent over the full grammar of RFC 8259.

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_ && error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (consume(c)) return true;
    fail(std::string("expected '") + c + "'");
    return false;
  }

  bool literal(const char* word, JsonValue value, JsonValue& out) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (s_.compare(pos_, len, word) != 0) {
      fail("invalid literal");
      return false;
    }
    pos_ += len;
    out = std::move(value);
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = JsonValue(std::move(str));
        return true;
      }
      case 't': return literal("true", JsonValue(true), out);
      case 'f': return literal("false", JsonValue(false), out);
      case 'n': return literal("null", JsonValue(nullptr), out);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    expect('{');
    JsonObject members;
    skip_ws();
    if (consume('}')) {
      out = JsonValue(std::move(members));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}' in object");
      return false;
    }
    out = JsonValue(std::move(members));
    return true;
  }

  bool parse_array(JsonValue& out) {
    expect('[');
    JsonArray items;
    skip_ws();
    if (consume(']')) {
      out = JsonValue(std::move(items));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']' in array");
      return false;
    }
    out = JsonValue(std::move(items));
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // report content is ASCII identifiers and numbers).
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
        default:
          fail("invalid escape character");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (s_[start] == '-' && pos_ == start + 1)) {
      fail("invalid number");
      return false;
    }
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    if (integral) {
      if (s_[start] == '-') {
        std::int64_t i = 0;
        if (std::from_chars(first, last, i).ec == std::errc{}) {
          out = JsonValue(i);
          return true;
        }
      } else {
        std::uint64_t u = 0;
        if (std::from_chars(first, last, u).ec == std::errc{}) {
          out = JsonValue(u);
          return true;
        }
      }
      // Out-of-range integer: fall through to double.
    }
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc{} || ptr != last) {
      fail("invalid number");
      return false;
    }
    out = JsonValue(d);
    return true;
  }

  const std::string& s_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& text,
                                    std::string* error) {
  if (error) error->clear();
  return Parser(text, error).parse();
}

}  // namespace baps::obs

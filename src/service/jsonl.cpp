#include "service/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

namespace mmd::jsonl {
namespace {

struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                            s[i] == '\n'))
      ++i;
  }
  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
};

bool fail(std::string& error, const Cursor& c, const std::string& what) {
  error = what + " at column " + std::to_string(c.i + 1);
  return false;
}

bool parse_string(Cursor& c, std::string& out, std::string& error) {
  if (c.eof() || c.peek() != '"') return fail(error, c, "expected '\"'");
  ++c.i;
  out.clear();
  while (true) {
    if (c.eof()) return fail(error, c, "unterminated string");
    char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20)
      return fail(error, c, "raw control character in string");
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (c.eof()) return fail(error, c, "unterminated escape");
    char esc = c.s[c.i++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // \uXXXX: decode the code point; non-ASCII is emitted as UTF-8.
        if (c.i + 4 > c.s.size())
          return fail(error, c, "truncated \\u escape");
        unsigned code = 0;
        for (int j = 0; j < 4; ++j) {
          char h = c.s[c.i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail(error, c, "invalid \\u escape digit");
        }
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
        return fail(error, c, "invalid escape character");
    }
  }
}

bool parse_value(Cursor& c, Value& out, std::string& error) {
  c.skip_ws();
  if (c.eof()) return fail(error, c, "expected a value");
  const char ch = c.peek();
  if (ch == '"') {
    out.kind = Value::Kind::String;
    return parse_string(c, out.string, error);
  }
  if (ch == '{' || ch == '[') {
    return fail(error, c,
                "nested objects/arrays are not supported by this protocol");
  }
  if (c.s.compare(c.i, 4, "true") == 0) {
    out.kind = Value::Kind::Bool;
    out.boolean = true;
    c.i += 4;
    return true;
  }
  if (c.s.compare(c.i, 5, "false") == 0) {
    out.kind = Value::Kind::Bool;
    out.boolean = false;
    c.i += 5;
    return true;
  }
  if (c.s.compare(c.i, 4, "null") == 0) {
    out.kind = Value::Kind::Null;
    c.i += 4;
    return true;
  }
  // Number: delegate the grammar to from_chars (accepts a superset of
  // JSON numbers — leading '+' — which is fine for a tolerant reader).
  const char* begin = c.s.data() + c.i;
  const char* end = c.s.data() + c.s.size();
  double num = 0.0;
  auto [ptr, ec] = std::from_chars(begin, end, num);
  if (ec != std::errc() || ptr == begin)
    return fail(error, c, "expected a value");
  // from_chars accepts "inf"/"nan" spellings and overflows like 1e999 to
  // infinity; JSON has no such values, and letting one through would put
  // a non-finite weight on the wire.
  if (!std::isfinite(num))
    return fail(error, c, "non-finite numbers are not valid JSON");
  out.kind = Value::Kind::Number;
  out.number = num;
  c.i += static_cast<std::size_t>(ptr - begin);
  return true;
}

}  // namespace

bool parse_object(const std::string& line, Object& out, std::string& error) {
  out.clear();
  error.clear();
  Cursor c{line};
  c.skip_ws();
  if (c.eof() || c.peek() != '{') return fail(error, c, "expected '{'");
  ++c.i;
  c.skip_ws();
  if (!c.eof() && c.peek() == '}') {
    ++c.i;
  } else {
    while (true) {
      c.skip_ws();
      std::string key;
      if (!parse_string(c, key, error)) return false;
      c.skip_ws();
      if (c.eof() || c.peek() != ':') return fail(error, c, "expected ':'");
      ++c.i;
      Value value;
      if (!parse_value(c, value, error)) return false;
      out[key] = std::move(value);
      c.skip_ws();
      if (c.eof()) return fail(error, c, "expected ',' or '}'");
      const char ch = c.peek();
      ++c.i;
      if (ch == '}') break;
      if (ch != ',') return fail(error, c, "expected ',' or '}'");
    }
  }
  c.skip_ws();
  if (!c.eof()) return fail(error, c, "trailing characters after object");
  return true;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
  return out;
}

Writer& Writer::add(const std::string& key, const std::string& value) {
  std::string quoted;
  quoted.push_back('"');
  quoted.append(escape(value));
  quoted.push_back('"');
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

Writer& Writer::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

Writer& Writer::add(const std::string& key, double value) {
  // Shortest round-trip representation, locale-independent.
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  fields_.emplace_back(key, ec == std::errc()
                                ? std::string(buf, ptr)
                                : std::string("null"));
  return *this;
}

Writer& Writer::add(const std::string& key, long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Writer& Writer::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string Writer::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out.append(escape(fields_[i].first));
    out.append("\":");
    out.append(fields_[i].second);
  }
  out.push_back('}');
  return out;
}

std::string get_string(const Object& o, const std::string& key,
                       const std::string& def, std::string& error) {
  auto it = o.find(key);
  if (it == o.end()) return def;
  if (it->second.kind != Value::Kind::String) {
    if (error.empty()) error = "field '" + key + "' must be a string";
    return def;
  }
  return it->second.string;
}

double get_number(const Object& o, const std::string& key, double def,
                  std::string& error) {
  auto it = o.find(key);
  if (it == o.end()) return def;
  if (it->second.kind != Value::Kind::Number) {
    if (error.empty()) error = "field '" + key + "' must be a number";
    return def;
  }
  return it->second.number;
}

long long get_integer(const Object& o, const std::string& key, long long def,
                      long long lo, long long hi, std::string& error) {
  // Absent or mistyped keys yield `def` itself, which passes both checks.
  const double v = get_number(o, key, static_cast<double>(def), error);
  if (v != std::trunc(v)) {
    if (error.empty()) error = "field '" + key + "' must be an integer";
    return def;
  }
  if (v < static_cast<double>(lo) || v > static_cast<double>(hi)) {
    if (error.empty()) error = "field '" + key + "' is out of range";
    return def;
  }
  return static_cast<long long>(v);
}

bool get_bool(const Object& o, const std::string& key, bool def,
              std::string& error) {
  auto it = o.find(key);
  if (it == o.end()) return def;
  if (it->second.kind != Value::Kind::Bool) {
    if (error.empty()) error = "field '" + key + "' must be a boolean";
    return def;
  }
  return it->second.boolean;
}

bool has(const Object& o, const std::string& key) {
  return o.find(key) != o.end();
}

bool parse_pair_list(const std::string& s,
                     std::vector<std::pair<long, double>>& out,
                     std::string& error) {
  error.clear();
  std::vector<std::pair<long, double>> parsed;
  const char* p = s.data();
  const char* const end = s.data() + s.size();
  while (true) {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n'))
      ++p;
    if (p == end) break;
    const char* const tok = p;
    long idx = 0;
    auto [ip, iec] = std::from_chars(p, end, idx);
    // Callers cast the index to the 32-bit Vertex, so anything wider must
    // be refused here rather than wrap onto a real vertex.
    if (iec != std::errc() || ip == end || *ip != ':' || idx < 0 ||
        idx > std::numeric_limits<std::int32_t>::max()) {
      error = "malformed delta pair at offset " +
              std::to_string(tok - s.data()) +
              " (expected '<index>:<weight>' with an index in [0, 2^31 - 1])";
      return false;
    }
    p = ip + 1;
    double val = 0.0;
    auto [vp, vec] = std::from_chars(p, end, val);
    if (vec != std::errc() || vp == p || !std::isfinite(val) || val < 0.0) {
      error = "malformed delta pair at offset " +
              std::to_string(tok - s.data()) +
              " (weight must be a finite non-negative number)";
      return false;
    }
    if (vp != end && *vp != ' ' && *vp != '\t' && *vp != '\r' && *vp != '\n') {
      error = "malformed delta pair at offset " +
              std::to_string(tok - s.data()) + " (trailing characters)";
      return false;
    }
    parsed.emplace_back(idx, val);
    p = vp;
  }
  out.insert(out.end(), parsed.begin(), parsed.end());
  return true;
}

}  // namespace mmd::jsonl

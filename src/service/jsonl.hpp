// Minimal JSONL (one flat JSON object per line) codec for the service
// front end.
//
// The --serve protocol needs exactly one shape: a flat object of
// string / number / boolean / null values per line, both directions.  A
// full JSON library would be a dependency for no benefit (the container
// bakes none in), so this is a strict handwritten codec for that subset:
// nested objects and arrays are *rejected*, not silently mangled, and
// every malformed input yields a one-line error instead of a crash or a
// misparse — the serve loop turns that into a bad_request response and
// keeps going, which tests/cli_smoke.sh pins.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mmd::jsonl {

/// One flat JSON value.
struct Value {
  enum class Kind { Null, Bool, Number, String };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
};

/// A parsed line: key -> value (later duplicate keys win, like most JSON
/// parsers).
using Object = std::map<std::string, Value>;

/// Parse one line into `out`.  Returns true on success; on failure
/// returns false with a human-readable message in `error` (out may hold
/// a partial parse).  Accepts only a single flat object — nested
/// containers, trailing garbage, and bare scalars are errors.
bool parse_object(const std::string& line, Object& out, std::string& error);

/// JSON string escaping (quotes, backslash, control characters).
std::string escape(const std::string& s);

/// Insertion-ordered flat-object writer for one response line.
class Writer {
 public:
  Writer& add(const std::string& key, const std::string& value);
  Writer& add(const std::string& key, const char* value);
  Writer& add(const std::string& key, double value);
  Writer& add(const std::string& key, long value);
  Writer& add(const std::string& key, bool value);

  /// The assembled `{...}` line (no trailing newline).
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Typed accessors with defaults; each returns the default when the key is
// absent, and reports a type error via `error` (first error wins) when
// the key is present with the wrong type.
std::string get_string(const Object& o, const std::string& key,
                       const std::string& def, std::string& error);
double get_number(const Object& o, const std::string& key, double def,
                  std::string& error);
/// Integral number in [lo, hi]: a fractional or out-of-range value is an
/// error, never truncated or cast (casting an out-of-range double to an
/// integer is undefined behavior).  `def` must lie in [lo, hi], and the
/// bounds within +-2^53, where every integer is exact in a double.
long long get_integer(const Object& o, const std::string& key, long long def,
                      long long lo, long long hi, std::string& error);
bool get_bool(const Object& o, const std::string& key, bool def,
              std::string& error);
/// True when `key` is present (any type).
bool has(const Object& o, const std::string& key);

/// Parse a whitespace-separated "index:value" pair list — the wire
/// encoding of weight deltas ("0:2.5 17:0.75"), carried inside a JSON
/// string because this protocol rejects arrays.  Appends nothing on
/// failure; an empty or whitespace-only input is a valid empty list.
/// Rejects indices outside [0, 2^31 - 1] (every index fits a Vertex),
/// non-finite or negative values, and any malformed pair, with a
/// human-readable message in `error`.
bool parse_pair_list(const std::string& s,
                     std::vector<std::pair<long, double>>& out,
                     std::string& error);

}  // namespace mmd::jsonl

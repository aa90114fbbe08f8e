#include "io/metis_io.hpp"

#include "io/strict_parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace mmd {

namespace {

// The strict token parsers (parse_ll & co.) live in io/strict_parse.hpp —
// shared with the CLI tools, which need the same garbage-rejecting
// behavior for their numeric arguments.

// Buffered line reader for the streaming graph parse: a fixed 1 MiB window
// over the stream, lines handed out as NUL-terminated views into the buffer
// (the newline slot is overwritten in place).  A multi-GB METIS file is
// never resident as text — the only per-call allocation is the rare carry
// of a line straddling a buffer boundary.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is), buf_(1 << 20) {}

  /// The next line with its newline stripped, NUL-terminated, valid until
  /// the next call; nullptr at end of input.
  char* next_line() {
    carry_.clear();
    for (;;) {
      if (pos_ == end_ && !fill()) {
        if (carry_.empty()) return nullptr;
        ++lineno_;
        return carry_.data();
      }
      char* base = buf_.data() + pos_;
      char* nl = static_cast<char*>(std::memchr(base, '\n', end_ - pos_));
      if (nl != nullptr) {
        ++lineno_;
        pos_ = static_cast<std::size_t>(nl - buf_.data()) + 1;
        if (carry_.empty()) {
          *nl = '\0';
          return base;
        }
        carry_.append(base, static_cast<std::size_t>(nl - base));
        return carry_.data();
      }
      carry_.append(base, end_ - pos_);
      pos_ = end_;
    }
  }

  /// 1-based number of the line last returned (0 before the first call).
  long lineno() const { return lineno_; }

 private:
  bool fill() {
    is_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    end_ = static_cast<std::size_t>(is_.gcount());
    pos_ = 0;
    return end_ > 0;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0, end_ = 0;
  std::string carry_;
  long lineno_ = 0;
};

// In-place whitespace tokenizer over one NUL-terminated line; tokens are
// NUL-terminated where they stand, so the numeric parsers run directly on
// the read buffer with no per-token copy.
class TokenCursor {
 public:
  explicit TokenCursor(char* s) : p_(s) {}

  /// Next token, or nullptr when the line is exhausted.
  char* next() {
    while (is_ws(*p_)) ++p_;
    if (*p_ == '\0') return nullptr;
    char* tok = p_;
    while (*p_ != '\0' && !is_ws(*p_)) ++p_;
    if (*p_ != '\0') *p_++ = '\0';
    return tok;
  }

 private:
  static bool is_ws(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }
  char* p_;
};

}  // namespace

void write_metis(const Graph& g, std::span<const double> weights,
                 std::ostream& os) {
  MMD_REQUIRE(static_cast<Vertex>(weights.size()) == g.num_vertices(),
              "weight arity mismatch");
  os << "% minmax-decomp graph\n";
  if (g.has_coords()) {
    os << "%coords " << g.dim() << "\n";
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      os << "%c";
      for (std::int32_t x : g.coords(v)) os << " " << x;
      os << "\n";
    }
  }
  os << g.num_vertices() << " " << g.num_edges() << " 011\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    os << weights[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      os << " " << (nbrs[i] + 1) << " " << g.edge_cost(eids[i]);
    os << "\n";
  }
}

void write_metis_file(const Graph& g, std::span<const double> weights,
                      const std::string& path) {
  std::ofstream os(path);
  MMD_REQUIRE(os.good(), "cannot open " + path + " for writing");
  write_metis(g, weights, os);
}

GraphWithWeights read_metis(std::istream& is) {
  // Streaming parse: a buffered LineReader plus in-place tokenization, so
  // the text of a multi-GB file never coexists with the graph being built.
  LineReader reader(is);
  int dim = 0;
  std::vector<std::int32_t> coords;
  // Comments and the optional coordinate block.
  char* line = nullptr;
  while ((line = reader.next_line()) != nullptr) {
    if (line[0] == '\0') continue;
    if (line[0] != '%') break;  // header line
    if (std::strncmp(line, "%coords", 7) == 0) {
      TokenCursor tc(line + 7);
      char* tok = tc.next();
      if (tok == nullptr)
        throw ParseError(reader.lineno(), "%coords needs a dimension");
      const long long d = parse_ll(tok, reader.lineno(), "coordinate dimension");
      if (tc.next() != nullptr)
        throw ParseError(reader.lineno(),
                         "trailing tokens after %coords dimension");
      if (d < 1 || d > 16)
        throw ParseError(reader.lineno(),
                         "coordinate dimension out of range [1, 16]");
      dim = static_cast<int>(d);
    } else if (line[1] == 'c' && dim > 0) {
      TokenCursor tc(line + 2);
      for (char* tok = tc.next(); tok != nullptr; tok = tc.next())
        coords.push_back(parse_i32(tok, reader.lineno(), "coordinate"));
    }
  }
  if (line == nullptr)
    throw ParseError(reader.lineno() + 1, "missing header line (n m [fmt])");
  const long header_line = reader.lineno();
  TokenCursor header(line);
  char* tn = header.next();
  char* tm = header.next();
  if (tn == nullptr || tm == nullptr)
    throw ParseError(header_line, "header needs vertex and edge counts");
  char* fmt = header.next();
  if (fmt != nullptr && header.next() != nullptr)
    throw ParseError(header_line, "trailing tokens after header");
  const long long n = parse_ll(tn, header_line, "vertex count");
  const long long m = parse_ll(tm, header_line, "edge count");
  if (n < 0) throw ParseError(header_line, "negative vertex count");
  if (m < 0) throw ParseError(header_line, "negative edge count");
  if (n > std::numeric_limits<Vertex>::max())
    throw ParseError(header_line,
                     "vertex count overflows the 32-bit vertex id space");
  if (fmt != nullptr && std::strcmp(fmt, "011") != 0)
    throw ParseError(header_line, "unsupported METIS format flags '" +
                                      std::string(fmt) + "' (only 011)");

  GraphBuilder builder(static_cast<Vertex>(n));
  std::vector<double> weights(static_cast<std::size_t>(n), 1.0);
  if (dim > 0) {
    if (static_cast<long long>(coords.size()) != n * dim)
      throw ParseError(header_line,
                       "coordinate block arity mismatch: expected " +
                           std::to_string(n * dim) + " values, got " +
                           std::to_string(coords.size()));
    for (Vertex v = 0; v < static_cast<Vertex>(n); ++v)
      builder.set_coords(
          v, std::span<const std::int32_t>(
                 coords.data() + static_cast<std::size_t>(v) * dim,
                 static_cast<std::size_t>(dim)));
  }

  long long edges_seen = 0;
  for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
    line = reader.next_line();
    if (line == nullptr)
      throw ParseError(reader.lineno() + 1,
                       "unexpected end of file: expected " + std::to_string(n) +
                           " adjacency lines, got " +
                           std::to_string(static_cast<long long>(v)));
    const long lineno = reader.lineno();
    TokenCursor tc(line);
    char* tok = tc.next();
    if (tok == nullptr)
      throw ParseError(lineno, "empty adjacency line: expected a vertex weight");
    weights[static_cast<std::size_t>(v)] =
        parse_finite_double(tok, lineno, "vertex weight");
    while ((tok = tc.next()) != nullptr) {
      const long long u = parse_ll(tok, lineno, "neighbor id");
      if (u < 1 || u > n)
        throw ParseError(lineno, "neighbor id " + std::to_string(u) +
                                     " out of range [1, " + std::to_string(n) +
                                     "]");
      tok = tc.next();
      if (tok == nullptr)
        throw ParseError(
            lineno, "truncated adjacency list: neighbor id without an edge cost");
      const double c = parse_finite_double(tok, lineno, "edge cost");
      const auto nb = static_cast<Vertex>(u - 1);
      if (nb > v) {  // each edge listed from both sides; add once
        builder.add_edge(v, nb, c);
        ++edges_seen;
      }
    }
  }
  if (edges_seen != m)
    throw ParseError(header_line, "edge count mismatch: header says " +
                                      std::to_string(m) +
                                      ", adjacency lists contain " +
                                      std::to_string(edges_seen));
  return {builder.build(), std::move(weights)};
}

GraphWithWeights read_metis_file(const std::string& path) {
  std::ifstream is(path);
  MMD_REQUIRE(is.good(), "cannot open " + path + " for reading");
  return read_metis(is);
}

void write_partition(const Coloring& chi, std::ostream& os) {
  for (std::int32_t c : chi.color) os << c << "\n";
}

void write_partition_file(const Coloring& chi, const std::string& path) {
  std::ofstream os(path);
  MMD_REQUIRE(os.good(), "cannot open " + path + " for writing");
  write_partition(chi, os);
}

Coloring read_partition(std::istream& is, int k) {
  MMD_REQUIRE(k >= 1, "k must be >= 1");
  Coloring chi;
  chi.k = k;
  std::string line, tok;
  long lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    while (ls >> tok) {
      // Token-strict: a non-numeric entry is a ParseError, not a silent
      // early stop (operator>> would truncate the partition there).
      const long long c = parse_ll(tok.c_str(), lineno, "color");
      if (c < kUncolored || c >= k)
        throw ParseError(lineno, "color " + std::to_string(c) +
                                     " out of range [" +
                                     std::to_string(kUncolored) + ", " +
                                     std::to_string(k - 1) + "]");
      chi.color.push_back(static_cast<std::int32_t>(c));
    }
  }
  return chi;
}

}  // namespace mmd

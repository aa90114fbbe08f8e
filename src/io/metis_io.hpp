// METIS-style text I/O for weighted graphs and colorings.
//
// Format (a float-valued superset of the METIS graph format):
//   % comment lines
//   n m 011          <- header: counts + "vertex weights, edge costs"
//   w_v  u1 c1  u2 c2 ...   <- one line per vertex, neighbors 1-indexed
// Colorings are stored one color per line (METIS partition file format).
// Coordinates, when present, are stored in a companion "%coords d" comment
// block so grid instances survive a round trip.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace mmd {

/// Malformed input file.  Derives from std::invalid_argument (the library's
/// bad-input type) and carries the 1-based line number of the offending
/// line, already baked into what() — "METIS parse error at line N: ...".
/// The readers throw this for every malformed-input condition (negative or
/// overflowing counts, non-numeric tokens, out-of-range neighbor ids,
/// truncated adjacency pairs, edge-count mismatches); no malformed file may
/// crash, hang, or silently misparse.
class ParseError : public std::invalid_argument {
 public:
  ParseError(long line, const std::string& what)
      : std::invalid_argument("METIS parse error at line " +
                              std::to_string(line) + ": " + what),
        line_(line) {}
  /// 1-based line number the error was detected on.
  long line() const noexcept { return line_; }

 private:
  long line_;
};

struct GraphWithWeights {
  Graph graph;
  std::vector<double> weights;
};

void write_metis(const Graph& g, std::span<const double> weights,
                 std::ostream& os);
void write_metis_file(const Graph& g, std::span<const double> weights,
                      const std::string& path);

GraphWithWeights read_metis(std::istream& is);
GraphWithWeights read_metis_file(const std::string& path);

void write_partition(const Coloring& chi, std::ostream& os);
void write_partition_file(const Coloring& chi, const std::string& path);

Coloring read_partition(std::istream& is, int k);

}  // namespace mmd

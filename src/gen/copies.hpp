// Disjoint unions of isomorphic copies — the "similar instance" G~ of
// Theorem 5 / Lemma 40: G~ consists of floor(k/4) disjoint copies of a base
// graph, with costs c~ and weights w~ inherited copy-wise.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace mmd {

struct DisjointUnion {
  Graph graph;
  /// copy_of[v] = which copy vertex v belongs to, in [0, copies).
  std::vector<std::int32_t> copy_of;
  /// base_vertex[v] = the base-graph vertex v is a copy of.
  std::vector<Vertex> base_vertex;
};

/// `copies` disjoint isomorphic copies of `base`; edge costs replicated
/// (vertex weights are the caller's: see replicate_vertex_values).
/// Coordinates are replicated too but shifted apart along axis 0 so the
/// union of grid copies stays a valid grid graph.
DisjointUnion make_disjoint_copies(const Graph& base, int copies);

/// Replicate a per-vertex function of the base across all copies.
std::vector<double> replicate_vertex_values(const DisjointUnion& du,
                                            std::span<const double> base_values);

}  // namespace mmd

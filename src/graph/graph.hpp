// Immutable weighted graph in compressed sparse row (CSR) form.
//
// This is the substrate every algorithm in the library operates on: a
// finite undirected graph without self-loops or parallel edges (paper,
// "Notation"), carrying
//   * edge costs   c : E -> R+   (communication cost of a dependency)
//   * optionally integer coordinates in Z^d, marking the graph as a
//     d-dimensional grid graph (Section 6) or a geometric instance.
// Vertex weights w : V -> R+ (processing time of a job) are not stored
// here: every entry point takes the caller's w, the one weight store, so
// a graph serves any number of weight vectors.
//
// The graph is immutable after construction (GraphBuilder); algorithms
// address sub-instances as vertex subsets over the host graph instead of
// copying, which keeps each recursion level linear time as Theorem 4's
// running-time statement requires.
//
// Memory layout (PR 9): the CSR is stored compactly so 10M+-vertex
// instances fit comfortably.
//   * One packed (to, id) pair per half-edge is the single source of
//     adjacency truth; neighbors()/incident_edges()/incidence() are
//     zero-copy projected views over it.  Edge costs live once per edge
//     in ecost_ — incidence() materializes HalfEdge{to, id, cost} values
//     on the fly, so the fused-stride call sites are unchanged while the
//     per-half-edge cost copy is gone.
//   * Offsets are 32-bit (xadj_): GraphBuilder refuses 2^31 edges, so
//     2m < 2^32 always holds and one width serves every graph.
//   * Endpoints are a packed (tail, head) struct-of-arrays entry.
// Net: 32 bytes/edge of edge storage vs 64 in the pre-PR9 layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace mmd {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;

/// One directed copy of an undirected edge as seen from the incidence list
/// of its tail: target vertex, edge id, and cost.  This is the *value* type
/// yielded by Graph::incidence(); storage keeps only (to, id) per half-edge
/// and the cost once per edge.
struct HalfEdge {
  Vertex to;
  EdgeId id;
  double cost;
};

namespace graph_detail {

/// CSR storage unit: one packed half-edge (8 bytes).
struct PackedHalf {
  Vertex to;
  EdgeId id;
};

/// Packed endpoints of one undirected edge (8 bytes), tail < head.
struct EdgeEnds {
  Vertex tail;
  Vertex head;
};

/// Random-access proxy iterator over PackedHalf storage; each dereference
/// projects the packed entry through Proj (to a Vertex, an EdgeId, or a
/// materialized HalfEdge).  Values are returned by value — the packed
/// storage is never exposed.
template <class Value, class Proj>
class ProjIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Value;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Value;

  ProjIterator() = default;
  ProjIterator(const PackedHalf* p, Proj proj) : p_(p), proj_(proj) {}

  Value operator*() const { return proj_(*p_); }
  Value operator[](difference_type i) const { return proj_(p_[i]); }

  ProjIterator& operator++() { ++p_; return *this; }
  ProjIterator operator++(int) { ProjIterator t = *this; ++p_; return t; }
  ProjIterator& operator--() { --p_; return *this; }
  ProjIterator operator--(int) { ProjIterator t = *this; --p_; return t; }
  ProjIterator& operator+=(difference_type d) { p_ += d; return *this; }
  ProjIterator& operator-=(difference_type d) { p_ -= d; return *this; }
  friend ProjIterator operator+(ProjIterator it, difference_type d) { return it += d; }
  friend ProjIterator operator+(difference_type d, ProjIterator it) { return it += d; }
  friend ProjIterator operator-(ProjIterator it, difference_type d) { return it -= d; }
  friend difference_type operator-(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ - b.p_;
  }
  friend bool operator==(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ != b.p_;
  }
  friend bool operator<(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ < b.p_;
  }
  friend bool operator>(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ > b.p_;
  }
  friend bool operator<=(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ <= b.p_;
  }
  friend bool operator>=(const ProjIterator& a, const ProjIterator& b) {
    return a.p_ >= b.p_;
  }

 private:
  const PackedHalf* p_ = nullptr;
  Proj proj_{};
};

/// Sized random-access view over a contiguous PackedHalf run, projected
/// element-wise.  Mirrors the std::span surface the accessors used to
/// return (begin/end/size/empty/operator[]/front/back).
template <class Value, class Proj>
class ProjRange {
 public:
  using value_type = Value;
  using iterator = ProjIterator<Value, Proj>;
  using const_iterator = iterator;

  ProjRange(const PackedHalf* p, std::size_t n, Proj proj)
      : p_(p), n_(n), proj_(proj) {}

  iterator begin() const { return {p_, proj_}; }
  iterator end() const { return {p_ + n_, proj_}; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  Value operator[](std::size_t i) const { return proj_(p_[i]); }
  Value front() const { return proj_(p_[0]); }
  Value back() const { return proj_(p_[n_ - 1]); }

 private:
  const PackedHalf* p_;
  std::size_t n_;
  Proj proj_;
};

struct ToProj {
  Vertex operator()(const PackedHalf& h) const { return h.to; }
};
struct IdProj {
  EdgeId operator()(const PackedHalf& h) const { return h.id; }
};
struct HalfProj {
  const double* costs;
  HalfEdge operator()(const PackedHalf& h) const {
    return {h.to, h.id, costs[static_cast<std::size_t>(h.id)]};
  }
};

}  // namespace graph_detail

using NeighborRange = graph_detail::ProjRange<Vertex, graph_detail::ToProj>;
using IncidentEdgeRange = graph_detail::ProjRange<EdgeId, graph_detail::IdProj>;
using IncidenceRange = graph_detail::ProjRange<HalfEdge, graph_detail::HalfProj>;

class Graph {
 public:
  Graph() = default;

  Vertex num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  std::int64_t size() const { return static_cast<std::int64_t>(n_) + m_; }

  /// Neighbors of v (each undirected edge appears in both endpoint lists).
  NeighborRange neighbors(Vertex v) const {
    check_vertex(v);
    return neighbors_unchecked(v);
  }

  /// Edge ids incident to v, aligned with neighbors(v).
  IncidentEdgeRange incident_edges(Vertex v) const {
    check_vertex(v);
    return incident_edges_unchecked(v);
  }

  // --- hot-path accessors ----------------------------------------------
  // Interior loops of the decomposition pipeline have already validated
  // their vertex ids at the API boundary; these variants check only under
  // MMD_ASSERT (Debug builds) so Release code pays no branch per access.

  NeighborRange neighbors_unchecked(Vertex v) const {
    assert_vertex(v);
    const std::size_t b = offset(v);
    return {half_.data() + b, offset(v + 1) - b, {}};
  }

  IncidentEdgeRange incident_edges_unchecked(Vertex v) const {
    assert_vertex(v);
    const std::size_t b = offset(v);
    return {half_.data() + b, offset(v + 1) - b, {}};
  }

  /// Fused (neighbor, edge id, cost) triples of v in one pass; HalfEdge
  /// values are materialized from the packed storage plus ecost_.  Every
  /// adjacency view of v runs in ascending edge id (GraphBuilder emits the
  /// half-edges edge by edge), so a per-vertex sum adds in the order of an
  /// edge loop.
  IncidenceRange incidence(Vertex v) const {
    assert_vertex(v);
    const std::size_t b = offset(v);
    return {half_.data() + b, offset(v + 1) - b, {ecost_.data()}};
  }

  int degree(Vertex v) const {
    check_vertex(v);
    return static_cast<int>(offset(v + 1) - offset(v));
  }

  double edge_cost(EdgeId e) const {
    check_edge(e);
    return ecost_[static_cast<std::size_t>(e)];
  }

  /// The two endpoints of edge e, in construction order (u < v).
  std::pair<Vertex, Vertex> endpoints(EdgeId e) const {
    check_edge(e);
    const auto& en = ends_[static_cast<std::size_t>(e)];
    return {en.tail, en.head};
  }

  std::span<const double> edge_costs() const { return ecost_; }

  /// c-weighted degree c(delta(v)); Delta_c = max over v (Theorem 4).
  double weighted_degree(Vertex v) const {
    check_vertex(v);
    return wdeg_[static_cast<std::size_t>(v)];
  }
  std::span<const double> weighted_degrees() const { return wdeg_; }
  double max_weighted_degree() const { return max_wdeg_; }
  int max_degree() const { return max_deg_; }

  // --- coordinates (grid / geometric instances) -------------------------
  bool has_coords() const { return dim_ > 0; }
  int dim() const { return dim_; }
  std::span<const std::int32_t> coords(Vertex v) const {
    check_vertex(v);
    MMD_REQUIRE(dim_ > 0, "graph has no coordinates");
    return {coords_.data() + static_cast<std::size_t>(v) * dim_,
            static_cast<std::size_t>(dim_)};
  }

  /// Raw coordinate array (row-major, dim() entries per vertex); hot-path
  /// counterpart of coords() with MMD_ASSERT-only checking.
  const std::int32_t* coords_unchecked(Vertex v) const {
    assert_vertex(v);
    MMD_ASSERT(dim_ > 0, "graph has no coordinates");
    return coords_.data() + static_cast<std::size_t>(v) * dim_;
  }

  /// True iff coordinates are present and every edge joins vertices at
  /// L1-distance exactly 1 (grid graph in the sense of Section 6).
  /// Precomputed by GraphBuilder::build (the graph is immutable).
  bool is_grid_graph() const { return grid_graph_; }

  /// Identity of this graph's (immutable) content, unique per build();
  /// copies share it.  Caches key on this instead of the address, which
  /// can be reused by a different graph.
  std::uint64_t uid() const { return uid_; }

  /// Heap footprint of this instance (packed CSR, endpoints, costs,
  /// coordinates), by vector capacity.  The context cache of
  /// PartitionService budgets its entries with this plus the contexts'
  /// own estimates.
  std::size_t memory_bytes() const {
    return sizeof(*this) + xadj_.capacity() * sizeof(std::uint32_t) +
           half_.capacity() * sizeof(graph_detail::PackedHalf) +
           ends_.capacity() * sizeof(graph_detail::EdgeEnds) +
           (ecost_.capacity() + wdeg_.capacity()) * sizeof(double) +
           coords_.capacity() * sizeof(std::int32_t);
  }

 private:
  friend class GraphBuilder;

  /// Start of v's half-edge run in half_.
  std::size_t offset(Vertex v) const {
    return xadj_[static_cast<std::size_t>(v)];
  }

  void check_vertex(Vertex v) const {
    MMD_REQUIRE(v >= 0 && v < n_, "vertex id out of range");
  }
  void check_edge(EdgeId e) const {
    MMD_REQUIRE(e >= 0 && e < m_, "edge id out of range");
  }
  void assert_vertex([[maybe_unused]] Vertex v) const {
    MMD_ASSERT(v >= 0 && v < n_, "vertex id out of range");
  }

  Vertex n_ = 0;
  EdgeId m_ = 0;
  std::vector<std::uint32_t> xadj_;    // size n+1
  std::vector<graph_detail::PackedHalf> half_;  // size 2m, (to, id) packed
  std::vector<graph_detail::EdgeEnds> ends_;    // size m, tail < head
  std::vector<double> ecost_;          // size m
  std::vector<double> wdeg_;           // size n, c(delta(v))
  double max_wdeg_ = 0.0;
  int max_deg_ = 0;
  int dim_ = 0;
  std::vector<std::int32_t> coords_;  // size n*dim
  bool grid_graph_ = false;
  std::uint64_t uid_ = 0;
};

/// Incremental builder.  Duplicate edges are coalesced by summing their
/// costs; self-loops are rejected (the paper's graphs have neither).
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex num_vertices);

  /// Add an undirected edge; cost must be non-negative.  Fails here —
  /// before any CSR memory is spent — once the raw edge count would
  /// exceed the EdgeId range.
  void add_edge(Vertex u, Vertex v, double cost);

  /// Attach d-dimensional integer coordinates (call once per vertex).
  void set_coords(Vertex v, std::span<const std::int32_t> xyz);

  Vertex num_vertices() const { return n_; }

  /// Finalize.  The builder is left empty afterwards.  Streaming build:
  /// duplicates are coalesced in place (sort + unique, no side copy), the
  /// raw edge list is released before the half-edge array is allocated,
  /// and CSR emission uses the cursor-in-xadj trick — O(1) extra memory
  /// per edge beyond the final graph.
  Graph build();

 private:
  Vertex n_ = 0;
  int dim_ = 0;
  struct RawEdge {
    Vertex u, v;
    double cost;
  };
  std::vector<RawEdge> edges_;
  std::vector<std::int32_t> coords_;
  std::vector<bool> coords_set_;
};

}  // namespace mmd

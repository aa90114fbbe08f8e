// Vertex subsets and induced-subgraph quantities.
//
// Sub-instances G[W] are addressed as vertex lists over the host graph.
// Membership tests use an epoch-stamped marker so that switching between
// subsets costs O(|subset|), not O(n) — essential for the recursive
// algorithms whose per-level work must stay linear in the sub-instance.
// Stamps are one byte per vertex: every splitter lane and lane workspace
// holds n-sized markers, so the stamp width multiplies into peak memory,
// while the O(n) refill a one-byte epoch needs comes once per 255 clears.
//
// Quantities follow the paper's notation:
//   E(W)          edges running inside W
//   ||c|W||_p     p-norm of the costs of E(W)
//   delta(U)      cut induced by U in the host graph;  cost = boundary cost
//   delta_W(U)    cut induced by U inside G[W]         (paper: d_W U)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace mmd {

/// Epoch-stamped membership marker over the vertices of a fixed graph.
class Membership {
 public:
  Membership() = default;
  explicit Membership(Vertex n) : stamp_(static_cast<std::size_t>(n), 0) {}

  /// Grow (never shrink) to cover n vertices; new vertices are outside the
  /// current subset.  Lets long-lived scratch instances be re-targeted at
  /// graphs of different sizes without reallocating per use.
  void ensure(Vertex n) {
    if (static_cast<std::size_t>(n) > stamp_.size())
      stamp_.resize(static_cast<std::size_t>(n), 0);
  }

  Vertex size() const { return static_cast<Vertex>(stamp_.size()); }

  /// Heap footprint (stamp-array capacity); feeds the workspace/context
  /// size accounting of the service cache.
  std::size_t memory_bytes() const {
    return sizeof(*this) + stamp_.capacity() * sizeof(std::uint8_t);
  }

  /// Start a fresh (empty) subset; O(1), plus an O(n) refill of the
  /// stamps once every 255 clears when the one-byte epoch wraps.
  void clear() {
    if (++epoch_ == 0) {  // wrapped: reset stamps
      std::fill(stamp_.begin(), stamp_.end(), std::uint8_t{0});
      epoch_ = 1;
    }
  }

  void add(Vertex v) { stamp_[static_cast<std::size_t>(v)] = epoch_; }
  void remove(Vertex v) {
    stamp_[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(epoch_ - 1);
  }
  bool contains(Vertex v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

  /// clear() then add all of vs.
  void assign(std::span<const Vertex> vs) {
    clear();
    for (Vertex v : vs) add(v);
  }

 private:
  std::vector<std::uint8_t> stamp_;
  std::uint8_t epoch_ = 1;
};

/// Aggregate statistics of the edges running inside W.
struct InducedCostStats {
  std::int64_t num_edges = 0;
  double norm1 = 0.0;     ///< ||c|W||_1
  double norm_p = 0.0;    ///< ||c|W||_p for the requested p
  double norm_inf = 0.0;  ///< max edge cost inside W
};

/// Statistics of c|W, the restriction of the costs to E(W).
/// `in_w` must currently represent exactly the vertices of `w_list`.
InducedCostStats induced_cost_stats(const Graph& g, std::span<const Vertex> w_list,
                                    const Membership& in_w, double p);

/// Total measure of a vertex list: sum_{v in W} mu(v).
double set_measure(std::span<const double> mu, std::span<const Vertex> w_list);

/// Max measure over a vertex list (0 if empty).
double set_measure_max(std::span<const double> mu, std::span<const Vertex> w_list);

/// Boundary cost of U inside G[W]:  cost of edges of E(W) with exactly one
/// endpoint in U.  U must be a subset of W.
double boundary_cost_within(const Graph& g, std::span<const Vertex> u_list,
                            const Membership& in_u, const Membership& in_w);

/// The complement W \ U, given U as a membership.
std::vector<Vertex> set_difference(std::span<const Vertex> w_list,
                                   const Membership& in_u);

/// set_difference into a caller buffer (overwritten); no allocation once
/// the buffer's capacity has grown to the working-set size.
void set_difference_into(std::span<const Vertex> w_list, const Membership& in_u,
                         std::vector<Vertex>& out);

}  // namespace mmd

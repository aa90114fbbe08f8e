#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

namespace mmd {

namespace {

bool compute_is_grid_graph(const Graph& g) {
  if (!g.has_coords()) return false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    long l1 = 0;
    const auto cu = g.coords(u);
    const auto cv = g.coords(v);
    for (int i = 0; i < g.dim(); ++i)
      l1 += std::abs(static_cast<long>(cu[i]) - cv[i]);
    if (l1 != 1) return false;
  }
  return true;
}

}  // namespace

GraphBuilder::GraphBuilder(Vertex num_vertices) : n_(num_vertices) {
  MMD_REQUIRE(num_vertices >= 0, "negative vertex count");
}

void GraphBuilder::add_edge(Vertex u, Vertex v, double cost) {
  MMD_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, "edge endpoint out of range");
  MMD_REQUIRE(u != v, "self-loops are not allowed");
  MMD_REQUIRE(cost >= 0.0 && std::isfinite(cost), "edge cost must be finite and >= 0");
  MMD_REQUIRE(edges_.size() + 1 < static_cast<std::size_t>(1) << 31,
              "too many edges");
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v, cost});
}

void GraphBuilder::set_coords(Vertex v, std::span<const std::int32_t> xyz) {
  MMD_REQUIRE(v >= 0 && v < n_, "vertex id out of range");
  MMD_REQUIRE(!xyz.empty() && xyz.size() <= 16, "coordinate dimension out of range");
  if (dim_ == 0) {
    dim_ = static_cast<int>(xyz.size());
    coords_.assign(static_cast<std::size_t>(n_) * dim_, 0);
    coords_set_.assign(static_cast<std::size_t>(n_), false);
  }
  MMD_REQUIRE(static_cast<int>(xyz.size()) == dim_, "inconsistent coordinate dimension");
  std::copy(xyz.begin(), xyz.end(),
            coords_.begin() + static_cast<std::size_t>(v) * dim_);
  coords_set_[static_cast<std::size_t>(v)] = true;
}

Graph GraphBuilder::build() {
  if (dim_ > 0) {
    for (Vertex v = 0; v < n_; ++v)
      MMD_REQUIRE(coords_set_[static_cast<std::size_t>(v)],
                  "coordinates set for some but not all vertices");
  }

  // The raw edge list is the build's largest transient; drop its growth
  // slack before anything else is allocated.
  edges_.shrink_to_fit();

  std::sort(edges_.begin(), edges_.end(), [](const RawEdge& a, const RawEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  // Coalesce duplicate edges in place by summing costs (sort + unique —
  // no side copy of the edge list).
  std::size_t w = 0;
  for (std::size_t r = 0; r < edges_.size(); ++r) {
    if (w > 0 && edges_[w - 1].u == edges_[r].u && edges_[w - 1].v == edges_[r].v) {
      edges_[w - 1].cost += edges_[r].cost;
    } else {
      if (w != r) edges_[w] = edges_[r];
      ++w;
    }
  }
  edges_.resize(w);
  const std::size_t m = w;
  MMD_REQUIRE(m < static_cast<std::size_t>(1) << 31, "too many edges");

  Graph g;
  g.n_ = n_;
  g.m_ = static_cast<EdgeId>(m);
  g.dim_ = dim_;
  g.coords_ = std::move(coords_);

  // Endpoints and costs first: once they are packed, the raw list can be
  // released before the half-edge array exists — the two never coexist.
  g.ends_.resize(m);
  g.ecost_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    g.ends_[i] = {edges_[i].u, edges_[i].v};
    g.ecost_[i] = edges_[i].cost;
  }
  std::vector<RawEdge>().swap(edges_);

  // CSR emission with the xadj array doubling as the insertion cursor:
  // count degrees, prefix-sum, place half-edges at xadj[v]++, then shift
  // the offsets back one slot.  O(1) extra memory per edge.
  g.half_.resize(2 * m);
  std::vector<std::uint32_t>& xadj = g.xadj_;
  xadj.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& en : g.ends_) {
    ++xadj[static_cast<std::size_t>(en.tail) + 1];
    ++xadj[static_cast<std::size_t>(en.head) + 1];
  }
  for (Vertex v = 0; v < n_; ++v)
    xadj[static_cast<std::size_t>(v) + 1] += xadj[static_cast<std::size_t>(v)];
  for (std::size_t i = 0; i < m; ++i) {
    const auto e = static_cast<EdgeId>(i);
    const Vertex u = g.ends_[i].tail, v = g.ends_[i].head;
    g.half_[xadj[static_cast<std::size_t>(u)]++] = {v, e};
    g.half_[xadj[static_cast<std::size_t>(v)]++] = {u, e};
  }
  for (Vertex v = n_; v > 0; --v)
    xadj[static_cast<std::size_t>(v)] = xadj[static_cast<std::size_t>(v) - 1];
  xadj[0] = 0;

  g.wdeg_.assign(static_cast<std::size_t>(n_), 0.0);
  g.max_wdeg_ = 0.0;
  g.max_deg_ = 0;
  for (Vertex v = 0; v < n_; ++v) {
    double s = 0.0;
    for (EdgeId e : g.incident_edges(v)) s += g.ecost_[static_cast<std::size_t>(e)];
    g.wdeg_[static_cast<std::size_t>(v)] = s;
    g.max_wdeg_ = std::max(g.max_wdeg_, s);
    g.max_deg_ = std::max(g.max_deg_, g.degree(v));
  }

  g.grid_graph_ = compute_is_grid_graph(g);
  static std::atomic<std::uint64_t> next_uid{1};
  g.uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);

  edges_.clear();
  n_ = 0;
  return g;
}

}  // namespace mmd

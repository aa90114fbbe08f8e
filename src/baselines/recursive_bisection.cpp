#include "baselines/recursive_bisection.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "separators/sweep_eval.hpp"

namespace mmd {

namespace {

void orb_recurse(const Graph& g, std::span<const double> w,
                 std::vector<Vertex>& verts, int k, int first_class,
                 Coloring& out) {
  if (k <= 1 || verts.size() <= 1) {
    for (const Vertex v : verts)
      out.color[static_cast<std::size_t>(v)] = first_class;
    return;
  }
  // Widest axis of this block's bounding box.
  const int dim = g.dim();
  int axis = 0;
  std::int64_t best_extent = -1;
  for (int d = 0; d < dim; ++d) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (const Vertex v : verts) {
      const std::int64_t c = g.coords_unchecked(v)[d];
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    if (hi - lo > best_extent) {
      best_extent = hi - lo;
      axis = d;
    }
  }
  std::sort(verts.begin(), verts.end(), [&](Vertex a, Vertex b) {
    const std::int32_t ca = g.coords_unchecked(a)[axis];
    const std::int32_t cb = g.coords_unchecked(b)[axis];
    return ca != cb ? ca < cb : a < b;
  });
  double total = 0.0;
  for (const Vertex v : verts) total += w[static_cast<std::size_t>(v)];
  const int k1 = k / 2;
  const double target = total * static_cast<double>(k1) / k;
  const std::size_t cut = best_prefix(verts, w, target, total);
  std::vector<Vertex> low(verts.begin(),
                          verts.begin() + static_cast<std::ptrdiff_t>(cut));
  std::vector<Vertex> high(verts.begin() + static_cast<std::ptrdiff_t>(cut),
                           verts.end());
  orb_recurse(g, w, low, k1, first_class, out);
  orb_recurse(g, w, high, k - k1, first_class + k1, out);
}

}  // namespace

Coloring orthogonal_recursive_bisection(const Graph& g,
                                        std::span<const double> w, int k) {
  MMD_REQUIRE(g.has_coords(), "ORB needs coordinates");
  MMD_REQUIRE(k >= 1, "k must be >= 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  Coloring out;
  out.k = k;
  out.color.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> verts(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    verts[static_cast<std::size_t>(v)] = v;
  orb_recurse(g, w, verts, k, 0, out);
  return out;
}

}  // namespace mmd

#include "separators/grid_split.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "separators/sweep_eval.hpp"

namespace mmd {

namespace {

/// floor((x + alpha - 1) / l) with correct rounding for negative x.
std::int64_t cell_floor(std::int64_t x, std::int64_t alpha, std::int64_t l) {
  const std::int64_t t = x + alpha - 1;
  return t >= 0 ? t / l : -(((-t) + l - 1) / l);
}

}  // namespace

/// The recursion works on vertex lists only; level edge sets are implicit.
/// An induced edge of original scaled cost c carries, at recursion level r,
/// the reduced cost f_r(c) = c/2^r - (2^r - 1)/2^r (the paper's
/// c' = (c-1)/2 unfolded), and is dropped once f_r <= 0 — so each level
/// re-derives its edges from the host incidence lists instead of
/// materializing per-level LocalEdge arrays (the seed's dominant
/// allocation and memory-traffic cost).  Since dropped edges have
/// non-positive reduced cost, clamping to max(f_r, 0) makes the cost sums
/// identical to the materialized version.  The cell-sort scratch persists
/// in the owning splitter: each level is done with it before recursing.
class GridSplitRec {
 public:
  GridSplitRec(const Graph& g, std::span<const double> weights,
               OrderingCache& cache, OrderingScratch& radix,
               Membership& in_level, GridSplitter::Scratch& s,
               SweepEval& sweep, Membership& in_u, SweepMode mode)
      : g_(g), weights_(weights), cache_(cache), radix_(radix),
        in_level_(in_level), s_(s), sweep_(sweep), in_u_(in_u), mode_(mode),
        dim_(g.dim()) {}

  int depth = 0;

  /// `in_level_` must represent exactly `verts`; (a, b) define this
  /// level's cost transform f(c) = a*c - b.
  std::vector<Vertex> run(std::vector<Vertex> verts, double target, double a,
                          double b) {
    ++depth;
    MMD_REQUIRE(depth <= 200, "GridSplit recursion too deep (bad costs?)");

    // One fused pass: level cost mass, coordinate extents, vertex weights,
    // and a lean (low-coordinate, cost) record per live edge so the bucket
    // pass below reads a sequential array instead of re-probing the
    // incidence lists.
    double cost1 = 0.0;
    double total = 0.0;
    std::int64_t lo[16], hi[16];
    std::fill_n(lo, dim_, std::numeric_limits<std::int64_t>::max());
    std::fill_n(hi, dim_, std::numeric_limits<std::int64_t>::min());
    std::vector<GridSplitter::EdgeRec>& edges = s_.edges;
    edges.clear();
    for (const Vertex v : verts) {
      total += weights_[static_cast<std::size_t>(v)];
      const std::int32_t* cv = g_.coords_unchecked(v);
      for (int d = 0; d < dim_; ++d) {
        lo[d] = std::min(lo[d], static_cast<std::int64_t>(cv[d]));
        hi[d] = std::max(hi[d], static_cast<std::int64_t>(cv[d]));
      }
      for (const HalfEdge& h : g_.incidence(v)) {
        const Vertex u = h.to;
        if (u <= v || !in_level_.contains(u)) continue;
        const double c = a * h.cost - b;
        if (c <= 0.0) continue;
        cost1 += c;
        // Axis and low coordinate (grid edges differ in one axis by 1;
        // for non-grid geometric graphs use the dominant axis).
        const std::int32_t* cu = g_.coords_unchecked(u);
        std::int32_t low;
        if (dim_ == 2) {
          const std::int32_t d0 = cu[0] - cv[0], d1 = cu[1] - cv[1];
          const int axis = std::abs(d1) > std::abs(d0) ? 1 : 0;
          low = std::min(cv[axis], cu[axis]);
        } else {
          int axis = 0;
          std::int32_t diff = 0;
          for (int d = 0; d < dim_; ++d) {
            const std::int32_t dd = cu[d] - cv[d];
            if (std::abs(dd) > std::abs(diff)) {
              diff = dd;
              axis = d;
            }
          }
          low = std::min(cv[axis], cu[axis]);
        }
        edges.push_back({low, c});
      }
    }
    // l beyond the coordinate extent is pointless (everything lands in one
    // cell anyway) and would blow up the residue-bucket array, so cap it.
    std::int64_t extent = 1;
    if (!verts.empty())
      for (int d = 0; d < dim_; ++d) extent = std::max(extent, hi[d] - lo[d] + 2);
    const auto l = std::min(
        extent, static_cast<std::int64_t>(std::max(
                    1.0, std::ceil(std::pow(cost1 / dim_, 1.0 / dim_)))));
    if (l <= 1) return trivial(verts, target, total);

    // Lemma 20: bucket each edge by the unique shift alpha in [1, l] whose
    // coarsening cuts it; the cheapest bucket has cost <= ||c||_1 / l.
    // The edge (x, x+1) on its axis is cut by phi_alpha iff
    // (x + alpha) == 0 (mod l).  Low coordinates span the (small) level
    // bounding box, so the modulo is tabulated once per level.
    std::vector<double>& bucket = s_.bucket;
    bucket.assign(static_cast<std::size_t>(l), 0.0);
    std::int64_t lomin = lo[0], himax = hi[0];
    for (int d = 1; d < dim_; ++d) {
      lomin = std::min(lomin, lo[d]);
      himax = std::max(himax, hi[d]);
    }
    const std::int64_t span = verts.empty() ? 0 : himax - lomin + 1;
    if (span > 0 && span <= static_cast<std::int64_t>(4 * verts.size()) + 1024) {
      std::vector<std::uint32_t>& rtab = s_.count;
      rtab.resize(static_cast<std::size_t>(span));
      for (std::int64_t z = 0; z < span; ++z) {
        std::int64_t r = (-(lomin + z)) % l;
        if (r < 0) r += l;
        rtab[static_cast<std::size_t>(z)] = static_cast<std::uint32_t>(r);
      }
      for (const GridSplitter::EdgeRec& e : edges)
        bucket[rtab[static_cast<std::size_t>(e.low - lomin)]] += e.cost;
    } else {
      for (const GridSplitter::EdgeRec& e : edges) {
        std::int64_t r = (-static_cast<std::int64_t>(e.low)) % l;
        if (r < 0) r += l;
        bucket[static_cast<std::size_t>(r)] += e.cost;
      }
    }
    // Residue r corresponds to alpha == r (mod l); map r = 0 to alpha = l.
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(bucket.begin(), bucket.end()) - bucket.begin());
    const std::int64_t alpha = best == 0 ? l : static_cast<std::int64_t>(best);

    // Group vertices by cell, ordered lexicographically by cell coords.
    // In two dimensions the cells of this level form a small (rows x cols)
    // box (cell_floor is monotone, so the corner cells come from lo/hi),
    // which admits a compact per-vertex cell id and — whenever the box is
    // not much larger than the level — an O(|verts| + cells) counting sort
    // in place of the comparator sort.  Higher dimensions use the generic
    // per-axis comparator.
    std::vector<std::int64_t>& cell_key = s_.cell_key;
    std::vector<std::uint64_t>& packed = s_.packed;
    std::vector<std::int32_t>& perm = s_.perm;
    const std::int64_t range0 = dim_ >= 1 && !verts.empty() ? hi[0] - lo[0] + 1 : 0;
    const std::int64_t range1 = dim_ >= 2 && !verts.empty() ? hi[1] - lo[1] + 1 : 0;
    const bool use_packed =
        dim_ == 2 && !verts.empty() &&
        range0 + range1 <= static_cast<std::int64_t>(4 * verts.size()) + 1024;
    std::int64_t cells = 0;
    if (use_packed) {
      // The coordinate ranges of a level are tiny next to its vertex
      // count (grids: side vs side^2), so tabulating cell_floor over each
      // axis range replaces two int64 divisions per vertex with two loads.
      const std::int64_t flo0 = cell_floor(lo[0], alpha, l);
      const std::int64_t flo1 = cell_floor(lo[1], alpha, l);
      const std::int64_t rows = cell_floor(hi[1], alpha, l) - flo1 + 1;
      cells = (cell_floor(hi[0], alpha, l) - flo0 + 1) * rows;
      std::vector<std::uint64_t>& cf0 = s_.cf0;
      std::vector<std::uint64_t>& cf1 = s_.cf1;
      cf0.resize(static_cast<std::size_t>(range0));
      cf1.resize(static_cast<std::size_t>(range1));
      for (std::int64_t z = 0; z < range0; ++z)
        cf0[static_cast<std::size_t>(z)] = static_cast<std::uint64_t>(
            (cell_floor(lo[0] + z, alpha, l) - flo0) * rows);
      for (std::int64_t z = 0; z < range1; ++z)
        cf1[static_cast<std::size_t>(z)] = static_cast<std::uint64_t>(
            cell_floor(lo[1] + z, alpha, l) - flo1);
      packed.resize(verts.size());
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const std::int32_t* c = g_.coords_unchecked(verts[i]);
        packed[i] = cf0[static_cast<std::size_t>(c[0] - lo[0])] +
                    cf1[static_cast<std::size_t>(c[1] - lo[1])];
      }
    } else if (dim_ == 2 && !verts.empty()) {
      // Huge sparse ranges: per-vertex cell_floor, packed pair key.
      const std::int64_t flo0 = cell_floor(lo[0], alpha, l);
      const std::int64_t flo1 = cell_floor(lo[1], alpha, l);
      packed.resize(verts.size());
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const std::int32_t* c = g_.coords_unchecked(verts[i]);
        packed[i] =
            (static_cast<std::uint64_t>(cell_floor(c[0], alpha, l) - flo0) << 32) |
            static_cast<std::uint64_t>(cell_floor(c[1], alpha, l) - flo1);
      }
      cells = std::numeric_limits<std::int64_t>::max();  // comparator sort
    } else {
      cell_key.resize(verts.size() * static_cast<std::size_t>(dim_));
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const std::int32_t* c = g_.coords_unchecked(verts[i]);
        for (int d = 0; d < dim_; ++d)
          cell_key[i * static_cast<std::size_t>(dim_) + static_cast<std::size_t>(d)] =
              cell_floor(c[d], alpha, l);
      }
    }
    const bool have_packed = dim_ == 2 && !verts.empty();
    perm.resize(verts.size());
    auto key_less = [&](std::int32_t x, std::int32_t y) {
      if (have_packed)
        return packed[static_cast<std::size_t>(x)] < packed[static_cast<std::size_t>(y)];
      const auto* kx = &cell_key[static_cast<std::size_t>(x) * dim_];
      const auto* ky = &cell_key[static_cast<std::size_t>(y) * dim_];
      for (int d = 0; d < dim_; ++d)
        if (kx[d] != ky[d]) return kx[d] < ky[d];
      return false;
    };
    if (use_packed &&
        cells <= static_cast<std::int64_t>(4 * verts.size()) + 1024) {
      std::vector<std::uint32_t>& count = s_.count;
      count.assign(static_cast<std::size_t>(cells) + 1, 0u);
      for (std::size_t i = 0; i < verts.size(); ++i) ++count[packed[i] + 1];
      for (std::size_t c = 1; c < count.size(); ++c) count[c] += count[c - 1];
      for (std::size_t i = 0; i < verts.size(); ++i)
        perm[count[packed[i]]++] = static_cast<std::int32_t>(i);
    } else {
      std::iota(perm.begin(), perm.end(), 0);
      std::sort(perm.begin(), perm.end(), key_less);
    }
    auto same_cell = [&](std::int32_t x, std::int32_t y) {
      if (have_packed)
        return packed[static_cast<std::size_t>(x)] == packed[static_cast<std::size_t>(y)];
      return !key_less(x, y) && !key_less(y, x);
    };

    // Walk cells in lexicographic order accumulating weight.
    target = std::clamp(target, 0.0, total);
    std::vector<Vertex> inside;
    double acc = 0.0;
    std::size_t i = 0;
    std::size_t cell_begin = 0, cell_end = 0;
    bool have_straddle = false;
    while (i < perm.size()) {
      // Extent and weight of the next cell.
      std::size_t j = i;
      double wcell = 0.0;
      while (j < perm.size() && same_cell(perm[i], perm[j])) {
        wcell += weights_[static_cast<std::size_t>(verts[static_cast<std::size_t>(perm[j])])];
        ++j;
      }
      if (acc + wcell <= target) {
        for (std::size_t t = i; t < j; ++t)
          inside.push_back(verts[static_cast<std::size_t>(perm[t])]);
        acc += wcell;
        i = j;
        continue;
      }
      cell_begin = i;
      cell_end = j;
      have_straddle = true;
      break;
    }
    if (!have_straddle) return inside;  // target == total

    // Recurse into the straddling cell with reduced costs; the shared sort
    // scratch is free for the child to overwrite from here on.
    std::vector<Vertex> child;
    child.reserve(cell_end - cell_begin);
    for (std::size_t t = cell_begin; t < cell_end; ++t)
      child.push_back(verts[static_cast<std::size_t>(perm[t])]);
    in_level_.assign(child);
    const std::vector<Vertex> inner =
        run(std::move(child), target - acc, a / 2.0, (b + 1.0) / 2.0);
    inside.insert(inside.end(), inner.begin(), inner.end());
    return inside;
  }

 private:
  /// l == 1: lexicographic vertex order, prefix chosen by the stamped
  /// sweep mode — better-of-two presummed (the seed path, bit-identical),
  /// or a full SweepEval scan for WindowMin (any window prefix of
  /// the lexicographic order is monotone by Lemma 22, so the cheaper pick
  /// keeps the structural guarantee).  The level's total weight is already
  /// on hand from run()'s fused pass.
  std::vector<Vertex> trivial(const std::vector<Vertex>& verts, double target,
                              double total) const {
    std::vector<Vertex> order;
    // Lazy: most splits never reach the trivial level.  bind() is
    // internally synchronized and the query takes the owning splitter's
    // radix scratch, so lanes sharing this cache stay race-free.
    cache_.bind(g_);
    cache_.subset_order(/*lexicographic=*/0, verts, nullptr, order, radix_);
    if (mode_ == SweepMode::BetterOfTwo) {
      order.resize(best_prefix(order, weights_, target, total));
      return order;
    }
    // in_level_ represents exactly `verts` here (run() maintains it per
    // level), so it doubles as the eval's W marker; in_u_ is the owning
    // splitter's scratch, re-assigned by its final evaluate_split anyway.
    SubsetWeightStats stats;
    stats.total = total;
    for (const Vertex v : verts)
      stats.max = std::max(stats.max, weights_[static_cast<std::size_t>(v)]);
    const SweepEvalResult r =
        sweep_.eval(g_, order, weights_, target, stats, in_level_, in_u_,
                    mode_);
    order.resize(r.prefix_len);
    return order;
  }

  const Graph& g_;
  std::span<const double> weights_;
  OrderingCache& cache_;
  OrderingScratch& radix_;
  Membership& in_level_;
  GridSplitter::Scratch& s_;
  SweepEval& sweep_;
  Membership& in_u_;
  SweepMode mode_;
  int dim_;
};

SplitResult GridSplitter::split(const SplitRequest& request) {
  split_entry_checkpoint();
  MMD_REQUIRE(request.g != nullptr, "null graph in split request");
  const Graph& g = *request.g;
  MMD_REQUIRE(g.has_coords(), "GridSplitter needs coordinates");
  if (strict_) MMD_REQUIRE(g.is_grid_graph(), "GridSplitter(strict) needs a grid graph");

  in_w_.ensure(g.num_vertices());
  in_u_.ensure(g.num_vertices());
  in_level_.ensure(g.num_vertices());
  in_w_.assign(request.w_list);

  // Normalize so the minimum positive cost is 1 (the paper's
  // ||1/c||_inf = 1 normalization).  The global minimum positive cost is
  // cached per graph; the minimum over the induced edges can only be
  // larger, which keeps all scaled costs >= 1 as the analysis requires
  // while sparing a full incidence sweep per split.
  if (minpos_uid_ != g.uid()) {
    minpos_uid_ = g.uid();
    min_pos_ = 0.0;
    for (const double c : g.edge_costs())
      if (c > 0.0) min_pos_ = min_pos_ == 0.0 ? c : std::min(min_pos_, c);
  }
  const double scale = min_pos_ > 0.0 ? 1.0 / min_pos_ : 1.0;

  std::vector<Vertex> top(request.w_list.begin(), request.w_list.end());
  in_level_.assign(top);
  GridSplitRec rec(g, request.weights, *cache_, radix_, in_level_, scratch_,
                   sweep_, in_u_, sweep_mode());
  std::vector<Vertex> inside =
      rec.run(std::move(top), request.target, scale, 0.0);
  last_depth_ = rec.depth;

  return evaluate_split(g, request.w_list, request.weights, std::move(inside),
                        in_w_, in_u_);
}

bool is_monotone_set(const Graph& g, std::span<const Vertex> w_list,
                     std::span<const Vertex> u_list) {
  MMD_REQUIRE(g.has_coords(), "monotone check needs coordinates");
  Membership in_u(g.num_vertices());
  in_u.assign(u_list);
  const int dim = g.dim();
  for (Vertex y : u_list) {
    const auto cy = g.coords(y);
    for (Vertex x : w_list) {
      if (in_u.contains(x)) continue;
      const auto cx = g.coords(x);
      bool dominated = true;
      for (int d = 0; d < dim; ++d) {
        if (cx[static_cast<std::size_t>(d)] > cy[static_cast<std::size_t>(d)]) {
          dominated = false;
          break;
        }
      }
      if (dominated) return false;
    }
  }
  return true;
}

}  // namespace mmd

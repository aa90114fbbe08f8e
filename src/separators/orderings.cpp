#include "separators/orderings.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

namespace mmd {

namespace {
std::atomic<long> g_rebind_count{0};
}  // namespace

long ordering_cache_rebind_count() {
  return g_rebind_count.load(std::memory_order_relaxed);
}

std::vector<Vertex> pseudo_peripheral_bfs_order(const Graph& g,
                                                std::span<const Vertex> w_list,
                                                const Membership& in_w) {
  // Same double sweep as the scratch-reusing variant (one shared
  // implementation): the first sweep lands in the same buffer the second
  // overwrites, so no throwaway order is materialized.
  (void)in_w;  // kept for signature compatibility; the scratch tags W itself
  BfsScratch scratch;
  std::vector<Vertex> out;
  pseudo_peripheral_bfs_order_into(g, w_list, scratch, out);
  return out;
}

namespace {

/// BFS over G[W] from `source`, restarting on unreached component heads so
/// every vertex of w_list appears exactly once in `out` — or, with a
/// `horizon`, only through the first vertex whose running weight passes
/// it.  A vertex is "open" while state[v] == tag; visiting clears the
/// tag, so the inner loop pays a single random load per neighbor instead
/// of separate membership and visited probes.  The caller must (re)tag
/// w_list before each call.
void bfs_into(const Graph& g, std::span<const Vertex> w_list, Vertex source,
              std::uint32_t tag, BfsScratch& scratch, std::vector<Vertex>& out,
              const SweepHorizon* horizon) {
  out.clear();
  std::uint32_t* state = scratch.state.data();
  scratch.queue.clear();
  std::size_t head = 0;
  auto visit = [&](Vertex v) {
    state[static_cast<std::size_t>(v)] = tag - 1;
    scratch.queue.push_back(v);
  };
  if (source >= 0) {
    MMD_REQUIRE(state[static_cast<std::size_t>(source)] == tag,
                "bfs source not in subset");
    visit(source);
  }
  std::size_t restart = 0;
  double acc = 0.0;
  while (out.size() < w_list.size()) {
    if (head == scratch.queue.size()) {
      while (restart < w_list.size() &&
             state[static_cast<std::size_t>(w_list[restart])] != tag)
        ++restart;
      if (restart == w_list.size()) break;
      visit(w_list[restart]);
    }
    const Vertex v = scratch.queue[head++];
    out.push_back(v);
    if (horizon != nullptr) {
      acc += horizon->weights[static_cast<std::size_t>(v)];
      if (horizon->passed(acc)) break;
    }
    for (const Vertex u : g.neighbors_unchecked(v))
      if (state[static_cast<std::size_t>(u)] == tag) visit(u);
  }
}

}  // namespace

void pseudo_peripheral_bfs_order_into(const Graph& g,
                                      std::span<const Vertex> w_list,
                                      BfsScratch& scratch,
                                      std::vector<Vertex>& out,
                                      const SweepHorizon* horizon) {
  out.clear();
  if (w_list.empty()) return;
  scratch.state.resize(static_cast<std::size_t>(g.num_vertices()), 0);
  // The two sweeps are fused through the tag arithmetic: visiting under
  // tag T stamps T - 1, which is exactly the second sweep's open tag — so
  // W is tagged once per call, not once per sweep.  Two tags are consumed
  // per call (skip past 0 and wrap-reset so stale stamps never collide
  // with a live tag; after the first sweep stamps everything T - 1, the
  // second stamps T - 2, both below any future tag until the wrap reset).
  if (scratch.tag >= std::numeric_limits<std::uint32_t>::max() - 1) {
    std::fill(scratch.state.begin(), scratch.state.end(), 0u);
    scratch.tag = 0;
  }
  scratch.tag += 2;
  const std::uint32_t tag = scratch.tag;
  for (Vertex v : w_list) scratch.state[static_cast<std::size_t>(v)] = tag;
  bfs_into(g, w_list, w_list.front(), tag, scratch, out, nullptr);
  MMD_ASSERT(out.size() == w_list.size(), "bfs must cover subset");
  const Vertex peripheral = out.back();
  bfs_into(g, w_list, peripheral, tag - 1, scratch, out, horizon);
}

namespace {
int coord_compare(const Graph& g, Vertex a, Vertex b) {
  const auto ca = g.coords(a);
  const auto cb = g.coords(b);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i] != cb[i]) return ca[i] < cb[i] ? -1 : 1;
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}
}  // namespace

std::vector<Vertex> lexicographic_order(const Graph& g,
                                        std::span<const Vertex> w_list) {
  MMD_REQUIRE(g.has_coords(), "lexicographic order needs coordinates");
  std::vector<Vertex> order(w_list.begin(), w_list.end());
  std::sort(order.begin(), order.end(),
            [&](Vertex a, Vertex b) { return coord_compare(g, a, b) < 0; });
  return order;
}

std::vector<Vertex> axis_order(const Graph& g, std::span<const Vertex> w_list,
                               int axis) {
  MMD_REQUIRE(g.has_coords(), "axis order needs coordinates");
  MMD_REQUIRE(axis >= 0 && axis < g.dim(), "axis out of range");
  std::vector<Vertex> order(w_list.begin(), w_list.end());
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    const auto ca = g.coords(a);
    const auto cb = g.coords(b);
    if (ca[static_cast<std::size_t>(axis)] != cb[static_cast<std::size_t>(axis)])
      return ca[static_cast<std::size_t>(axis)] < cb[static_cast<std::size_t>(axis)];
    return coord_compare(g, a, b) < 0;
  });
  return order;
}

std::vector<Vertex> morton_order(const Graph& g, std::span<const Vertex> w_list) {
  MMD_REQUIRE(g.has_coords(), "morton order needs coordinates");
  const int dim = g.dim();
  // Offset coordinates to be non-negative, then compare by interleaved
  // bits without materializing the (dim*32)-bit keys: the classic
  // "most significant differing dimension" trick.
  std::vector<std::int64_t> offset(static_cast<std::size_t>(dim),
                                   std::numeric_limits<std::int64_t>::max());
  for (Vertex v : w_list) {
    const auto c = g.coords(v);
    for (int i = 0; i < dim; ++i)
      offset[static_cast<std::size_t>(i)] =
          std::min(offset[static_cast<std::size_t>(i)], static_cast<std::int64_t>(c[i]));
  }
  auto shifted = [&](Vertex v, int i) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(g.coords(v)[static_cast<std::size_t>(i)]) -
        offset[static_cast<std::size_t>(i)]);
  };
  auto less_msb = [](std::uint64_t a, std::uint64_t b) {
    return a < b && a < (a ^ b);
  };
  std::vector<Vertex> order(w_list.begin(), w_list.end());
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    int best_dim = 0;
    std::uint64_t best_xor = 0;
    for (int i = 0; i < dim; ++i) {
      const std::uint64_t x = shifted(a, i) ^ shifted(b, i);
      if (less_msb(best_xor, x)) {
        best_xor = x;
        best_dim = i;
      }
    }
    if (best_xor == 0) return a < b;
    return shifted(a, best_dim) < shifted(b, best_dim);
  });
  return order;
}

namespace {

/// Spread the low 32 bits of x to the even bit positions of a 64-bit word.
std::uint64_t interleave_even(std::uint64_t x) {
  x &= 0xffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// Sort `order` (stably) by precomputed 64-bit keys via LSD radix,
/// skipping byte positions on which no key differs.  Stability makes the
/// result identical to a comparator sort with vertex-id tie-break, because
/// `order` starts in id order.
void sort_by_key(std::span<const std::uint64_t> key, std::vector<Vertex>& order) {
  const std::size_t s = order.size();
  if (s < 2) return;
  std::uint64_t all_or = 0, all_and = ~0ull;
  for (const std::uint64_t k : key) {
    all_or |= k;
    all_and &= k;
  }
  const std::uint64_t varying = all_or ^ all_and;  // bytes where keys differ
  std::vector<Vertex> buf(s);
  Vertex* a = order.data();
  Vertex* b = buf.data();
  std::uint32_t count[256];
  for (int byte = 0; byte < 8; ++byte) {
    const int shift = 8 * byte;
    if (((varying >> shift) & 0xff) == 0) continue;
    std::fill(std::begin(count), std::end(count), 0u);
    for (std::size_t i = 0; i < s; ++i)
      ++count[(key[static_cast<std::size_t>(a[i])] >> shift) & 0xff];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t next = sum + c;
      c = sum;
      sum = next;
    }
    for (std::size_t i = 0; i < s; ++i)
      b[count[(key[static_cast<std::size_t>(a[i])] >> shift) & 0xff]++] = a[i];
    std::swap(a, b);
  }
  if (a != order.data()) std::copy(a, a + s, order.data());
}

/// Spread the low 21 bits of x to every third bit of a 64-bit word (bit i
/// lands on bit 3i).
std::uint64_t interleave_third(std::uint64_t x) {
  x &= 0x1fffffull;
  x = (x | (x << 32)) & 0x001f00000000ffffull;
  x = (x | (x << 16)) & 0x001f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

/// Exact Morton keys of w_list in D = 2 or 3 dimensions, anchored at the
/// subset minima (morton_order's offsets), into key[0..|W|).  Axis 0 takes
/// the highest bit of every level, which is the comparator's rule that the
/// first of several equally significant differing axes decides.  Two
/// offset 32-bit axes always fit one word; three fit only when every axis
/// spans fewer than 2^21 values — false (keys unwritten) otherwise.
template <int D>
bool morton_keys(const Graph& g, std::span<const Vertex> w_list,
                 std::uint64_t* key) {
  std::int64_t lo[D], hi[D];
  std::fill_n(lo, D, std::numeric_limits<std::int32_t>::max());
  std::fill_n(hi, D, std::numeric_limits<std::int32_t>::min());
  for (const Vertex v : w_list) {
    const std::int32_t* c = g.coords_unchecked(v);
    for (int d = 0; d < D; ++d) {
      lo[d] = std::min(lo[d], static_cast<std::int64_t>(c[d]));
      hi[d] = std::max(hi[d], static_cast<std::int64_t>(c[d]));
    }
  }
  if constexpr (D == 3) {
    for (int d = 0; d < D; ++d)
      if (hi[d] - lo[d] >= (std::int64_t{1} << 21)) return false;
  }
  for (std::size_t i = 0; i < w_list.size(); ++i) {
    const std::int32_t* c = g.coords_unchecked(w_list[i]);
    std::uint64_t k = 0;
    for (int d = 0; d < D; ++d) {
      const auto x = static_cast<std::uint64_t>(c[d] - lo[d]);
      k |= (D == 2 ? interleave_even(x) : interleave_third(x)) << (D - 1 - d);
    }
    key[i] = k;
  }
  return true;
}

/// Stable LSD radix sort of the pairs (ka[i], va[i]), i < s, by key: one
/// 8-bit counting pass per key byte on which some keys differ.  kb and vb
/// are scratch of length >= s.  The sorted vertices end in va; the
/// returned pointer (ka or kb) holds the sorted keys.
template <class Key>
const Key* radix_sort_pairs(Key* ka, Key* kb, Vertex* va, Vertex* vb,
                            std::size_t s) {
  Key all_or = 0, all_and = ~Key{0};
  for (std::size_t i = 0; i < s; ++i) {
    all_or |= ka[i];
    all_and &= ka[i];
  }
  const Key varying = all_or ^ all_and;
  Vertex* const out = va;
  std::uint32_t count[256];
  for (unsigned shift = 0; shift < 8 * sizeof(Key); shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::fill(std::begin(count), std::end(count), 0u);
    for (std::size_t i = 0; i < s; ++i) ++count[(ka[i] >> shift) & 0xff];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t next = sum + c;
      c = sum;
      sum = next;
    }
    for (std::size_t i = 0; i < s; ++i) {
      const std::uint32_t pos = count[(ka[i] >> shift) & 0xff]++;
      kb[pos] = ka[i];
      vb[pos] = va[i];
    }
    std::swap(ka, kb);
    std::swap(va, vb);
  }
  if (va != out) std::copy(va, va + s, out);
  return ka;
}

}  // namespace

void OrderingCache::rebind(const Graph& g) {
  // Caller holds bind_mu_.  Every field is written before the final
  // release store of g_, which the subset queries' acquire loads pair
  // with.
  g_rebind_count.fetch_add(1, std::memory_order_relaxed);
  uid_ = g.uid();
  n_ = g.num_vertices();
  if (!g.has_coords()) {
    num_orders_ = 0;
    perm_.clear();
    rank_.clear();
    g_.store(&g, std::memory_order_release);
    return;
  }
  const int dim = g.dim();
  num_orders_ = dim;  // lex, axis 1..dim-1
  std::vector<Vertex> all(static_cast<std::size_t>(n_));
  for (Vertex v = 0; v < n_; ++v) all[static_cast<std::size_t>(v)] = v;

  // In two dimensions every order has an exact 64-bit key (two offset
  // 32-bit coordinates fit one word), so the n log n global sorts run on
  // integers instead of the coordinate comparators.  Higher dimensions
  // fall back to the comparator-based orderings.
  std::vector<std::uint64_t> key;
  std::int64_t off[2] = {0, 0};
  if (dim == 2) {
    key.resize(static_cast<std::size_t>(n_));
    for (int d = 0; d < 2; ++d) {
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      for (Vertex v = 0; v < n_; ++v)
        lo = std::min(lo, static_cast<std::int64_t>(g.coords(v)[static_cast<std::size_t>(d)]));
      off[d] = n_ > 0 ? lo : 0;
    }
  }
  auto shifted2 = [&](Vertex v, int d) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(g.coords(v)[static_cast<std::size_t>(d)]) -
        off[d]);
  };

  perm_.resize(static_cast<std::size_t>(num_orders_) * n_);
  rank_.resize(static_cast<std::size_t>(num_orders_) * n_);
  for (int idx = 0; idx < num_orders_; ++idx) {
    std::vector<Vertex> order;
    if (dim == 2) {
      for (Vertex v = 0; v < n_; ++v) {
        std::uint64_t k;
        if (idx == 0) {  // lexicographic: (x0, x1)
          k = (shifted2(v, 0) << 32) | shifted2(v, 1);
        } else {  // axis 1: (x1, x0)
          k = (shifted2(v, 1) << 32) | shifted2(v, 0);
        }
        key[static_cast<std::size_t>(v)] = k;
      }
      order = all;
      sort_by_key(key, order);
    } else if (idx == 0) {
      order = lexicographic_order(g, all);
    } else {
      order = axis_order(g, all, idx);
    }
    const std::size_t base = static_cast<std::size_t>(idx) * n_;
    for (std::size_t i = 0; i < order.size(); ++i) {
      perm_[base + i] = order[i];
      rank_[base + static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
    }
  }
  g_.store(&g, std::memory_order_release);
}

void OrderingCache::subset_order(int idx, std::span<const Vertex> w_list,
                                 const Membership* in_w,
                                 std::vector<Vertex>& out,
                                 OrderingScratch& sc) const {
  MMD_REQUIRE(g_.load(std::memory_order_acquire) != nullptr && idx >= 0 &&
                  idx < num_orders_,
              "ordering cache not bound / index out of range");
  const std::size_t base = static_cast<std::size_t>(idx) * n_;
  // A gather over the global order costs one membership probe per graph
  // vertex; the sort path costs ~log2 |W| integer compares per subset
  // vertex.  Pick whichever is cheaper for this subset size.
  if (in_w != nullptr &&
      static_cast<std::size_t>(n_) <= 16 * w_list.size()) {
    out.clear();
    const Vertex* perm = perm_.data() + base;
    for (Vertex i = 0; i < n_; ++i) {
      const Vertex v = perm[i];
      if (in_w->contains(v)) out.push_back(v);
    }
    MMD_ASSERT(out.size() == w_list.size(),
               "in_w does not represent w_list");
    return;
  }
  out.assign(w_list.begin(), w_list.end());
  const std::int32_t* rank = rank_.data() + base;
  const std::size_t s = out.size();
  if (s >= 128) {
    // Gather the 32-bit ranks once (one random load per element), then
    // radix them: ranks are unique, so the stable sort is the restriction
    // of the cached order.
    sc.key32.resize(std::max(sc.key32.size(), s));
    sc.buf32.resize(std::max(sc.buf32.size(), s));
    sc.vbuf.resize(std::max(sc.vbuf.size(), s));
    for (std::size_t i = 0; i < s; ++i)
      sc.key32[i] =
          static_cast<std::uint32_t>(rank[static_cast<std::size_t>(out[i])]);
    radix_sort_pairs(sc.key32.data(), sc.buf32.data(), out.data(),
                     sc.vbuf.data(), s);
  } else {
    std::sort(out.begin(), out.end(), [rank](Vertex a, Vertex b) {
      return rank[static_cast<std::size_t>(a)] < rank[static_cast<std::size_t>(b)];
    });
  }
}

void OrderingCache::subset_morton_order(std::span<const Vertex> w_list,
                                        std::vector<Vertex>& out,
                                        OrderingScratch& sc) const {
  const Graph* bound = g_.load(std::memory_order_acquire);
  MMD_REQUIRE(bound != nullptr && bound->has_coords(),
              "ordering cache not bound to a coordinate graph");
  const Graph& g = *bound;
  const int dim = g.dim();
  if (dim != 2 && dim != 3) {
    out = morton_order(g, w_list);
    return;
  }
  // Exact interleaved keys, radix-sorted over the bytes on which they
  // differ; a 3-D box too wide for 21 bits per axis takes the comparator.
  const std::size_t s = w_list.size();
  sc.key.resize(std::max(sc.key.size(), s));
  if (!(dim == 2 ? morton_keys<2>(g, w_list, sc.key.data())
                 : morton_keys<3>(g, w_list, sc.key.data()))) {
    out = morton_order(g, w_list);
    return;
  }
  sc.buf.resize(std::max(sc.buf.size(), s));
  sc.vbuf.resize(std::max(sc.vbuf.size(), s));
  out.assign(w_list.begin(), w_list.end());
  const std::uint64_t* sorted = radix_sort_pairs(
      sc.key.data(), sc.buf.data(), out.data(), sc.vbuf.data(), s);
  if (dim == 2) return;  // ties keep w_list order
  // Equal keys mean identical coordinates, which morton_order orders by
  // vertex id; the stable radix left them in w_list order.
  for (std::size_t i = 0; i < s;) {
    std::size_t j = i + 1;
    while (j < s && sorted[j] == sorted[i]) ++j;
    if (j - i > 1)
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(i),
                out.begin() + static_cast<std::ptrdiff_t>(j));
    i = j;
  }
}

}  // namespace mmd

// Prefix splitter: the library's general-purpose splitting-set engine.
//
// Given an ordering v_1, ..., v_|W| of W, every prefix-sum crossing of the
// target admits one of two prefixes within ||w||_inf/2 of the target
// (better-of-two rule), so *any* ordering yields the hard weight window of
// Definition 3.  Quality comes from trying several sweep orderings (BFS
// from a pseudo-peripheral vertex, lexicographic / per-axis / Morton when
// coordinates exist), keeping the cheapest boundary, and optionally
// improving it with Fiduccia–Mattheyses-style local moves that respect the
// window (see fm_refine.hpp).  Candidate evaluation — order to prefix to
// boundary cost — runs on the shared SweepEval engine (sweep_eval.hpp):
// one fused scan per order, with dominated candidates pruned against the
// incumbent best.  The prefix-choice rule is the splitter's stamped
// SweepMode: the seed's better-of-two crossing (default) or the cheapest
// prefix anywhere inside the hard weight window (WindowMin).
#pragma once

#include <memory>

#include "separators/orderings.hpp"
#include "separators/splitter.hpp"
#include "separators/sweep_eval.hpp"

namespace mmd {

struct PrefixSplitterOptions {
  bool use_bfs = true;
  bool use_coordinate_sweeps = true;  ///< lex + per-axis + Morton if coords
  bool refine = true;                 ///< FM local refinement pass
};

class PrefixSplitter final : public ISplitter {
 public:
  explicit PrefixSplitter(PrefixSplitterOptions options = {})
      : options_(options), cache_(std::make_shared<OrderingCache>()) {}

  SplitResult split(const SplitRequest& request) override;
  std::string name() const override { return "prefix"; }

  /// Every candidate evaluation routes through SweepEval, so both
  /// prefix-choice rules are honored.
  bool supports_sweep_mode(SweepMode) const override { return true; }

  /// A lane shares the immutable OrderingCache (the O(n log n) per-graph
  /// global orders are computed once, by whoever binds first — bind() is
  /// serialized, so a whole lane-tree batch may race to it safely) and
  /// owns its W marker and evaluation slots — so any number of lanes and
  /// their parent may run concurrent split() calls on the same graph with
  /// bit-identical results (multi_split's lane tree holds 2^fork_depth of
  /// them, strictify's per-class extraction up to one per pool thread).
  std::unique_ptr<ISplitter> make_lane() override {
    return std::unique_ptr<ISplitter>(new PrefixSplitter(options_, cache_));
  }

 private:
  /// Lane constructor: adopt an existing shared cache.  (The base-class
  /// lane() stamp then copies the parent's live sweep mode.)
  PrefixSplitter(const PrefixSplitterOptions& options,
                 std::shared_ptr<OrderingCache> cache)
      : options_(options), cache_(std::move(cache)) {}

  // One candidate order's evaluation state.  The serial loop evaluates
  // every candidate in slot 0, and FM refinement borrows slot 0's marker;
  // the candidate fan-out gives candidate i slot i.  unique_ptr keeps slot
  // addresses stable while the vector grows.
  struct EvalSlot {
    std::vector<Vertex> order;
    Membership in_u;
    BfsScratch bfs;
    OrderingScratch radix;
    SweepEval sweep;
    SweepEvalResult res;
  };

  /// With a pool, and when split() is not itself running inside a pooled
  /// task, the candidate orders of one split (BFS + coordinate
  /// sweeps + Morton) are generated and costed concurrently, one
  /// index-addressed evaluation slot per candidate, and reduced in
  /// candidate-index order — bit-identical to the serial loop, which keeps
  /// the first candidate of strictly minimal boundary cost.  (The serial
  /// loop additionally prunes candidates against the incumbent best; a
  /// pruned candidate's exact cost is provably >= the incumbent, so the
  /// reduction picks the same winner either way.)
  SplitResult split_parallel(const SplitRequest& request,
                             const SubsetWeightStats& stats, int num_sweeps,
                             bool morton);

  PrefixSplitterOptions options_;
  // Per-instance scratch (ISplitter contract: splitters may keep scratch).
  // The coordinate sweep orders are cached per graph; memberships and
  // order buffers persist across splits so the steady-state per-split cost
  // is O(|W| log |W|), independent of |V|.  The cache is shared with lanes
  // (read-only after bind); every other member is lane-private — including
  // each slot's radix scratch for the shared cache's subset queries.
  std::shared_ptr<OrderingCache> cache_;
  Membership in_w_;
  std::vector<std::unique_ptr<EvalSlot>> slots_;
};

}  // namespace mmd

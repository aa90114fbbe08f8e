// Min-max boundary refinement (practical extension beyond the paper).
//
// Theorem 4's pipeline is constant-factor optimal but its constants are
// visible in practice.  This pass hill-climbs directly on the paper's
// objective: move single boundary vertices between classes whenever the
// move
//   (1) keeps the coloring strictly balanced (Definition 1), and
//   (2) lexicographically improves (max class boundary cost, total
//       boundary cost)
// — so every accepted move preserves all of Theorem 4's guarantees while
// typically shaving 20-50% off the realized maximum boundary cost
// (ablation: bench_e5's "ours" vs "ours, no refine" rows).
//
// The engine is a boundary worklist: an id-ordered queue of boundary
// vertices, seeded from cut edges and re-fed only with the neighborhood of
// accepted moves; the running maximum class boundary is tracked
// incrementally with a threshold counter over bc[], so evaluating a
// candidate costs O(deg).  A round ends when the queue drains; rounds
// repeat (re-seeding from the current boundary) until a round accepts no
// move.  Its trajectory is that of plain full sweeps over all vertices in
// id order — a dense boundary runs exactly such a pass — and the
// equivalence suite (tests/test_refine_worklist.cpp) holds it bit for bit
// to a test-local sweep with the same acceptance arithmetic.
#pragma once

#include "core/workspace.hpp"
#include "graph/coloring.hpp"
#include "util/exec_control.hpp"

namespace mmd {

/// Tuning of the min-max hill-climbing post-pass.
struct MinmaxRefineOptions {
  int max_passes = 8;  ///< cap on rounds until the fixpoint
  /// Keep |w(class) - avg| within this multiple of the Definition 1 slack
  /// (1.0 = strict balance; larger values explore the almost-strict room).
  double balance_slack = 1.0;
  /// Deadline/cancellation, checked at every round boundary — so a cancel
  /// request is honored within one round.  The coloring is left in a
  /// valid (strictly balanced, partially refined) state when the check
  /// throws.  decompose() copies its own exec here; standalone callers may
  /// set it directly.
  ExecControl exec;
  /// Seeded mode: round 0 visits only the boundary members of `seed`
  /// instead of the full cut.  Later rounds re-feed from accepted moves as
  /// usual, so the climb stays localized to the region `seed` can reach.
  /// With seeded == true and an empty span the round-0 queue is empty and
  /// the call is a no-op — "nothing changed" must not trigger a full
  /// sweep.
  /// `seed` is borrowed; duplicates are deduplicated, order is irrelevant
  /// (the queue is sorted by id before the round runs).
  bool seeded = false;
  std::span<const Vertex> seed;
};

/// Work and progress counters of one minmax_refine call.
struct MinmaxRefineStats {
  int moves = 0;          ///< accepted vertex moves
  int rounds = 0;         ///< rounds run
  std::int64_t pops = 0;  ///< queue pops (work measure)
  double max_boundary_before = 0.0;  ///< ||d chi^-1||_inf at entry
  double max_boundary_after = 0.0;   ///< ||d chi^-1||_inf at the fixpoint
};

/// Refine a total coloring in place.
///
/// Every accepted move keeps chi strictly balanced (scaled by
/// options.balance_slack) and lexicographically improves
/// (max class boundary cost, total boundary cost), so all Theorem 4
/// guarantees survive refinement.
///
/// \param g       host graph
/// \param chi     total k-coloring, refined in place
/// \param w       vertex weights the balance window is measured against
/// \param options round/slack/seed knobs
/// \param ws      optional scratch; when non-null its buffers are reused
///                (and grown on demand), so steady-state calls perform no
///                heap allocation
/// \return move/round/boundary statistics of this call
MinmaxRefineStats minmax_refine(const Graph& g, Coloring& chi,
                                std::span<const double> w,
                                const MinmaxRefineOptions& options = {},
                                RefineWorkspace* ws = nullptr);

}  // namespace mmd

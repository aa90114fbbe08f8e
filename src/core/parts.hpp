// Part extraction (Appendix A.1, Lemmas 28-30; Corollaries 16-18).
//
// The shrinking procedure moves vertex "parts" of weight about eps*Psi*
// between color classes.  Two dual extraction modes exist:
//   * extract_light_part (Lemmas 28/29, Corollaries 16/17): partition U
//     into chunks of the requested Psi-weight via repeated splitting sets
//     (procedure IterativePartition) and return the chunk carrying the
//     *smallest* share of every auxiliary measure (pigeonhole: with
//     enough chunks one is light in all measures at once);
//   * extract_hitting_part (Lemma 30, Corollary 18): return a part that
//     *contains* an argmax chunk of every auxiliary measure, padded with a
//     splitting set up to the requested weight, so that the remainder
//     U \ X loses a definite fraction of every measure.  It peels chunks
//     with IterativePartition's splits and stops as soon as every measure
//     has a chunk holding the share a full partition would guarantee,
//     usually after a few chunks instead of all of U.
// The boundary cost d(X) is handled by passing the boundary measure
// v -> c(delta(v) cap delta(U)) as one of the auxiliary measures (the
// corollaries' Phi(r) trick).
//
// The aux contract: both extractions read every auxiliary measure only at
// vertices of U, so a caller need only fill a measure on U and may leave
// anything (stale values of an earlier U, even NaN) everywhere else.
// shrink_once relies on this to reuse its n-sized deg_W and boundary
// buffers across classes and recursion levels without re-zeroing them.
#pragma once

#include "core/multi_split.hpp"
#include "separators/splitter.hpp"

namespace mmd {

/// Lemma 28 (procedure IterativePartition): partition U into chunks, each
/// of Psi-weight >= chunk_weight (except possibly when U itself is
/// lighter) and <= max(3*chunk_weight, chunk_weight + ||Psi|U||_inf).
/// Chunks are peeled off in order, one split each, and the final chunk is
/// the remainder; extract_hitting_part runs the same peel loop.
/// Adds the applied splitter cut costs to *cut_cost if given.  `ws`
/// (optional) lends the n-sized marker, here and in the two extractions
/// below, so repeated calls allocate no marker.
std::vector<std::vector<Vertex>> iterative_partition(
    const Graph& g, std::span<const Vertex> u_list, MeasureRef psi,
    double chunk_weight, ISplitter& splitter, double* cut_cost = nullptr,
    DecomposeWorkspace* ws = nullptr);

struct ExtractedPart {
  std::vector<Vertex> part;  ///< X, a subset of U
  double psi_weight = 0.0;
  double cut_cost = 0.0;     ///< splitter cost expended inside U
};

/// Corollaries 16/17 via Lemma 29: X with Psi(X) about chunk_weight whose
/// share of every measure in `aux` is (near-)minimal among the chunks.
ExtractedPart extract_light_part(const Graph& g, std::span<const Vertex> u_list,
                                 MeasureRef psi, double chunk_weight,
                                 std::span<const MeasureRef> aux,
                                 ISplitter& splitter,
                                 DecomposeWorkspace* ws = nullptr);

/// Corollary 18 via Lemma 30: X with Psi(X) in [target, target + wmax]
/// containing a maximal chunk of every measure in `aux`.
///
/// The chunks have weight c = target / (r+1), r = max(|aux|, 1), and are
/// peeled exactly as iterative_partition peels them, but only until the
/// certificate Lemma 30 needs holds: the peel stops before its next split
/// once every measure m_j has a peeled chunk holding at least
/// tau_j = m_j(U) * c / Psi(U), the share a full partition's argmax chunk
/// is guaranteed.  X takes, per measure, the argmax among the peeled
/// chunks (ties to the earliest; a chunk that would push Psi(X) past the
/// target is skipped).  When the peel runs out first, the remainder joins
/// as the last chunk and the result is the full partition's.  Either way X
/// is then padded with one splitting set of U minus the taken chunks.  The
/// result is a pure function of the inputs, so concurrent extractions on
/// distinct classes answer as a serial loop.
ExtractedPart extract_hitting_part(const Graph& g, std::span<const Vertex> u_list,
                                   MeasureRef psi, double target,
                                   std::span<const MeasureRef> aux,
                                   ISplitter& splitter,
                                   DecomposeWorkspace* ws = nullptr);

}  // namespace mmd

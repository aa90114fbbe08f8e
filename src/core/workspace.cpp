#include "core/workspace.hpp"

#include "core/multi_split.hpp"

namespace mmd {

// Out-of-line: MultiSplitTreeScratch (multi_split.hpp) is incomplete in
// the workspace header, which only stores it behind a unique_ptr.
DecomposeWorkspace::DecomposeWorkspace() = default;
DecomposeWorkspace::~DecomposeWorkspace() = default;

MultiSplitTreeScratch& DecomposeWorkspace::tree_scratch() {
  if (tree_scratch_ == nullptr)
    tree_scratch_ = std::make_unique<MultiSplitTreeScratch>();
  return *tree_scratch_;
}

std::size_t DecomposeWorkspace::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& m : owned_) total += m->memory_bytes();
  for (const auto& l : owned_lists_)
    total += sizeof(*l) + l->capacity() * sizeof(Vertex);
  for (const auto& ws : lane_ws_) total += ws->memory_bytes();
  for (const auto& l : tree_lists_)
    total += sizeof(*l) + l->capacity() * sizeof(Vertex);
  if (tree_scratch_ != nullptr) {
    const MultiSplitTreeScratch& t = *tree_scratch_;
    total += sizeof(t) + t.lanes.capacity() * sizeof(ISplitter*) +
             t.lane_ws.capacity() * sizeof(DecomposeWorkspace*) +
             t.lists.capacity() * sizeof(std::vector<Vertex>*) +
             t.split_cost.capacity() * sizeof(double);
    for (const TwoColoring& r : t.res)
      total += (r.side[0].capacity() + r.side[1].capacity()) * sizeof(Vertex);
  }
  total += (refine.bc.capacity() + refine.cw.capacity() +
            refine.toward.capacity()) *
           sizeof(double);
  total += (refine.touched.capacity() + refine.class_seen.capacity() +
            refine.in_queue.capacity()) *
           sizeof(std::int32_t);
  total += (refine.queue.capacity() + refine.heap.capacity() +
            refine.dirty.capacity() + refine.cand.capacity() +
            refine.seed.capacity()) *
           sizeof(Vertex);
  total += refine.class_dirty.capacity() * sizeof(std::uint8_t);
  total += (shrink.deg_w.capacity() + shrink.bnd.capacity()) * sizeof(double);
  return total;
}

}  // namespace mmd

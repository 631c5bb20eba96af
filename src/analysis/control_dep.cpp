#include "analysis/control_dep.h"

namespace safeflow::analysis {

ControlDependence ControlDependence::compute(const ir::Function& fn) {
  ControlDependence cd;
  cd.deps_.resize(fn.blocks().size());
  if (!fn.isDefined()) return cd;
  const ir::DominatorTree pdt = ir::DominatorTree::computePost(fn);

  // Branch blocks are visited in block order, so each controller list
  // comes out sorted; the back() check drops the repeat when both
  // successors' walks reach the same block.
  for (const auto& a : fn.blocks()) {
    const ir::Instruction* term = a->terminator();
    if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) continue;
    const ir::BasicBlock* stop = pdt.idom(a.get());  // may be null (vexit)
    for (const ir::BasicBlock* s : a->successors()) {
      // Skip the edge when A's immediate post-dominator already covers it
      // (i.e. S post-dominates A): no control dependence through it.
      if (pdt.dominates(s, a.get())) continue;
      // The idom chain climbs the tree strictly, so the walk ends.
      for (const ir::BasicBlock* runner = s;
           runner != nullptr && runner != stop; runner = pdt.idom(runner)) {
        auto& deps = cd.deps_[runner->index()];
        if (deps.empty() || deps.back() != a.get()) deps.push_back(a.get());
      }
    }
  }
  return cd;
}

}  // namespace safeflow::analysis

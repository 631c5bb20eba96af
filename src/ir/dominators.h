// Dominator and post-dominator trees (iterative Cooper–Harvey–Kennedy),
// plus dominance frontiers — the ingredients for SSA construction and for
// control-dependence analysis. Everything is stored by BasicBlock::index(),
// and child and frontier lists are in block order, so walks over the tree
// never depend on heap addresses.
#pragma once

#include <span>
#include <vector>

#include "ir/ir.h"

namespace safeflow::ir {

class DominatorTree {
 public:
  /// Forward dominators rooted at the entry block.
  static DominatorTree compute(const Function& fn);
  /// Post-dominators; a virtual exit joins all Ret blocks (and, for
  /// infinite loops, blocks with no path to any exit are parented to the
  /// virtual exit as a conservative fallback).
  static DominatorTree computePost(const Function& fn);

  /// Immediate dominator; nullptr for the root, for blocks outside the
  /// tree, and for blocks whose idom is the virtual exit in the
  /// post-dominator tree.
  [[nodiscard]] const BasicBlock* idom(const BasicBlock* bb) const {
    return idom_[bb->index()];
  }
  /// Reflexive dominance query.
  [[nodiscard]] bool dominates(const BasicBlock* a,
                               const BasicBlock* b) const;
  /// Dominance frontier of a block, in block order.
  [[nodiscard]] std::span<const BasicBlock* const> frontier(
      const BasicBlock* bb) const {
    return frontiers_[bb->index()];
  }
  /// Children in the dominator tree, in block order.
  [[nodiscard]] std::span<const BasicBlock* const> children(
      const BasicBlock* bb) const {
    return children_[bb->index()];
  }

 private:
  static DominatorTree computeImpl(const Function& fn, bool post);

  std::vector<const BasicBlock*> idom_;                   // by block index
  std::vector<std::vector<const BasicBlock*>> children_;  // by block index
  std::vector<std::vector<const BasicBlock*>> frontiers_;  // by block index
};

}  // namespace safeflow::ir

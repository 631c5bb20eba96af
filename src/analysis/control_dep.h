// Control-dependence computation (Ferrante–Ottenstein–Warren) from the
// post-dominator tree. Used by the taint phase to model implicit flows:
// a value assigned under a branch on unsafe data is control dependent on
// that data — the source of the paper's false-positive class.
#pragma once

#include <span>
#include <vector>

#include "ir/dominators.h"
#include "ir/ir.h"

namespace safeflow::analysis {

class ControlDependence {
 public:
  static ControlDependence compute(const ir::Function& fn);

  /// Blocks whose branch condition this block is control dependent on,
  /// in block order.
  [[nodiscard]] std::span<const ir::BasicBlock* const> controllers(
      const ir::BasicBlock* bb) const {
    return deps_[bb->index()];
  }

 private:
  std::vector<std::vector<const ir::BasicBlock*>> deps_;  // by block index
};

}  // namespace safeflow::analysis

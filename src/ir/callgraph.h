// Call graph with Tarjan SCCs, providing the bottom-up traversal order
// used by the paper's interprocedural phases. Indirect calls (through
// function pointers) are resolved conservatively to every address-taken
// function. Edges and SCCs follow Function::index() order, so no order
// here depends on where the allocator placed the IR.
#pragma once

#include <span>
#include <vector>

#include "ir/ir.h"

namespace safeflow::ir {

class CallGraph {
 public:
  explicit CallGraph(const Module& module);

  /// Distinct callees / callers of fn, sorted by Function::index().
  [[nodiscard]] std::span<const Function* const> callees(
      const Function* fn) const {
    return callees_[fn->index()];
  }
  [[nodiscard]] std::span<const Function* const> callers(
      const Function* fn) const {
    return callers_[fn->index()];
  }

  /// Possible targets of one call instruction (singleton for direct calls).
  [[nodiscard]] std::span<const Function* const> targets(
      const Instruction& call) const;

  /// Strongly connected components in bottom-up (callee-first) order.
  [[nodiscard]] const std::vector<std::vector<const Function*>>&
  sccsBottomUp() const {
    return sccs_;
  }

  /// True when fn participates in a cycle (including self-recursion).
  [[nodiscard]] bool isRecursive(const Function* fn) const {
    return recursive_[fn->index()];
  }

 private:
  void computeSccs(const Module& module);

  std::vector<std::vector<const Function*>> callees_;  // by function index
  std::vector<std::vector<const Function*>> callers_;  // by function index
  std::vector<const Function*> address_taken_;
  std::vector<std::vector<const Function*>> sccs_;
  std::vector<bool> recursive_;  // by function index
};

}  // namespace safeflow::ir

#include "ir/callgraph.h"

#include <algorithm>
#include <cassert>

#include "support/metrics.h"

namespace safeflow::ir {

namespace {
constexpr std::string_view kFnAddrPrefix = "@fnaddr.";

bool byIndex(const Function* a, const Function* b) {
  return a->index() < b->index();
}
}  // namespace

CallGraph::CallGraph(const Module& module) {
  const support::ScopedTimer timer("phase.callgraph");
  // Address-taken functions (represented by @fnaddr.<name> globals created
  // during lowering).
  for (const auto& g : module.globals()) {
    const std::string& name = g->name();
    if (name.rfind(kFnAddrPrefix, 0) == 0) {
      if (const Function* f =
              module.findFunction(name.substr(kFnAddrPrefix.size()))) {
        address_taken_.push_back(f);
      }
    }
  }

  const std::size_t n = module.functions().size();
  callees_.resize(n);
  callers_.resize(n);
  for (const auto& fn : module.functions()) {
    if (!fn->isDefined()) continue;
    auto& out = callees_[fn->index()];
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != Opcode::kCall) continue;
        const auto ts = targets(*inst);
        out.insert(out.end(), ts.begin(), ts.end());
      }
    }
    std::sort(out.begin(), out.end(), byIndex);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    // Callers are visited in index order, so each list stays sorted.
    for (const Function* target : out) {
      callers_[target->index()].push_back(fn.get());
    }
  }
  computeSccs(module);
  std::size_t edges = 0;
  for (const auto& cs : callees_) edges += cs.size();
  SAFEFLOW_COUNT_N("callgraph.edges", edges);
  SAFEFLOW_COUNT_N("callgraph.address_taken", address_taken_.size());
  SAFEFLOW_GAUGE("callgraph.sccs", sccs_.size());
  SAFEFLOW_GAUGE("callgraph.recursive_functions",
                 std::count(recursive_.begin(), recursive_.end(), true));
}

std::span<const Function* const> CallGraph::targets(
    const Instruction& call) const {
  assert(call.opcode() == Opcode::kCall);
  if (call.direct_callee != nullptr) return {&call.direct_callee, 1};
  return address_taken_;  // conservative indirect resolution
}

void CallGraph::computeSccs(const Module& module) {
  // Tarjan's algorithm over function indices, iterative to survive deep
  // graphs.
  const std::size_t n = module.functions().size();
  constexpr int kUnvisited = -1;
  std::vector<int> order(n, kUnvisited);
  std::vector<int> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  recursive_.assign(n, false);
  int next_order = 0;

  struct Frame {
    std::uint32_t fn;
    std::size_t next_succ = 0;
  };
  std::vector<Frame> frames;
  const auto open = [&](std::uint32_t fn) {
    order[fn] = lowlink[fn] = next_order++;
    stack.push_back(fn);
    on_stack[fn] = true;
    frames.push_back(Frame{fn});
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (order[root] != kUnvisited) continue;
    open(root);
    while (!frames.empty()) {
      Frame& top = frames.back();
      const auto& succs = callees_[top.fn];
      if (top.next_succ < succs.size()) {
        const std::uint32_t succ = succs[top.next_succ++]->index();
        if (order[succ] == kUnvisited) {
          open(succ);
        } else if (on_stack[succ]) {
          lowlink[top.fn] = std::min(lowlink[top.fn], order[succ]);
        }
        continue;
      }
      // Close this frame.
      const std::uint32_t closed = top.fn;
      if (lowlink[closed] == order[closed]) {
        std::vector<const Function*> scc;
        while (true) {
          const std::uint32_t v = stack.back();
          stack.pop_back();
          on_stack[v] = false;
          scc.push_back(module.functions()[v].get());
          if (v == closed) break;
        }
        const bool self_call =
            std::binary_search(succs.begin(), succs.end(), scc[0], byIndex);
        if (scc.size() > 1 || self_call) {
          for (const Function* f : scc) recursive_[f->index()] = true;
        }
        sccs_.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().fn] =
            std::min(lowlink[frames.back().fn], lowlink[closed]);
      }
    }
  }
  // Tarjan emits SCCs in reverse topological order of the condensation,
  // which for a call graph is exactly callee-before-caller (bottom-up).
}

}  // namespace safeflow::ir

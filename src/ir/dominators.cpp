#include "ir/dominators.h"

#include <algorithm>

namespace safeflow::ir {

namespace {

/// Explicit graph over block indices; index n (== blocks.size()) is the
/// virtual root used for post-dominators.
struct Graph {
  std::vector<std::vector<int>> succs;
  std::vector<std::vector<int>> preds;
  int root = 0;
};

Graph buildGraph(const Function& fn, bool post) {
  Graph g;
  const int n = static_cast<int>(fn.blocks().size());
  const int total = post ? n + 1 : n;  // +1 virtual exit
  g.succs.assign(total, {});
  g.preds.assign(total, {});

  auto addEdge = [&g](int from, int to) {
    g.succs[from].push_back(to);
    g.preds[to].push_back(from);
  };

  for (int i = 0; i < n; ++i) {
    const BasicBlock* bb = fn.blocks()[i].get();
    for (BasicBlock* s : bb->successors()) addEdge(i, s->index());
    if (post && bb->terminator() != nullptr &&
        bb->terminator()->opcode() == Opcode::kRet) {
      addEdge(i, n);  // ret -> virtual exit
    }
  }

  if (!post) {
    g.root = 0;  // entry block
    return g;
  }

  // Reverse the graph for post-dominance; root is the virtual exit.
  std::swap(g.succs, g.preds);
  g.root = n;

  // Blocks with no path to the exit (infinite loops) would be unreachable
  // in the reversed graph; attach them to the root so every block gets an
  // idom (conservative: nothing is control dependent on exits of an
  // infinite loop we cannot see).
  std::vector<bool> reachable(total, false);
  std::vector<int> stack{g.root};
  reachable[g.root] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int s : g.succs[v]) {
      if (!reachable[s]) {
        reachable[s] = true;
        stack.push_back(s);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!reachable[i]) {
      g.succs[g.root].push_back(i);
      g.preds[i].push_back(g.root);
      reachable[i] = true;
    }
  }
  return g;
}

}  // namespace

DominatorTree DominatorTree::compute(const Function& fn) {
  return computeImpl(fn, /*post=*/false);
}

DominatorTree DominatorTree::computePost(const Function& fn) {
  return computeImpl(fn, /*post=*/true);
}

DominatorTree DominatorTree::computeImpl(const Function& fn, bool post) {
  DominatorTree tree;
  if (fn.blocks().empty()) return tree;
  Graph g = buildGraph(fn, post);
  const int total = static_cast<int>(g.succs.size());

  // Reverse postorder from the root.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(total));
  std::vector<bool> visited(total, false);
  // Iterative DFS computing postorder.
  std::vector<std::pair<int, std::size_t>> stack{{g.root, 0}};
  visited[g.root] = true;
  while (!stack.empty()) {
    auto& [v, i] = stack.back();
    if (i < g.succs[v].size()) {
      const int s = g.succs[v][i++];
      if (!visited[s]) {
        visited[s] = true;
        stack.emplace_back(s, 0);
      }
    } else {
      order.push_back(v);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());  // now RPO
  std::vector<int> rpo_number(total, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rpo_number[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }

  // Cooper–Harvey–Kennedy iteration.
  std::vector<int> idom(total, -1);
  idom[g.root] = g.root;
  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (rpo_number[a] > rpo_number[b]) a = idom[a];
      while (rpo_number[b] > rpo_number[a]) b = idom[b];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const int v : order) {
      if (v == g.root) continue;
      int new_idom = -1;
      for (const int p : g.preds[v]) {
        if (idom[p] == -1) continue;
        new_idom = (new_idom == -1) ? p : intersect(p, new_idom);
      }
      if (new_idom != -1 && idom[v] != new_idom) {
        idom[v] = new_idom;
        changed = true;
      }
    }
  }

  const int n = static_cast<int>(fn.blocks().size());
  const auto block = [&fn](int v) { return fn.blocks()[v].get(); };
  tree.idom_.assign(n, nullptr);
  tree.children_.resize(n);
  tree.frontiers_.resize(n);
  for (int v = 0; v < n; ++v) {
    // Unreachable blocks (-1), the root and virtual-exit children keep
    // a null idom.
    if (idom[v] == -1 || idom[v] == v || idom[v] >= n) continue;
    tree.idom_[v] = block(idom[v]);
    tree.children_[idom[v]].push_back(block(v));
  }

  // Dominance frontiers (per Cytron et al.): for each join node, walk up
  // from each predecessor to the idom. Join nodes are visited in block
  // order, so each frontier list comes out sorted; the back() check drops
  // the repeat when two predecessors' walks meet the same runner.
  for (int v = 0; v < n; ++v) {
    if (g.preds[v].size() < 2 || idom[v] == -1) continue;
    for (const int p : g.preds[v]) {
      if (idom[p] == -1) continue;
      int runner = p;
      while (runner != idom[v] && runner != g.root) {
        if (runner < n) {
          auto& df = tree.frontiers_[runner];
          if (df.empty() || df.back() != block(v)) df.push_back(block(v));
        }
        if (runner == idom[runner]) break;
        runner = idom[runner];
        if (runner == -1) break;
      }
    }
  }
  return tree;
}

bool DominatorTree::dominates(const BasicBlock* a,
                              const BasicBlock* b) const {
  for (const BasicBlock* cur = b; cur != nullptr; cur = idom(cur)) {
    if (cur == a) return true;
  }
  return false;
}

}  // namespace safeflow::ir

#include "analysis/alias.h"

#include <algorithm>
#include <set>

#include "cfront/types.h"
#include "support/metrics.h"

namespace safeflow::analysis {

namespace {

// Byte size of the element a pointer value addresses, or 0 when unknown.
std::int64_t pointeeSize(const ir::Value* v) {
  if (v == nullptr || v->type() == nullptr || !v->type()->isPointer()) {
    return 0;
  }
  const auto* pt = static_cast<const cfront::PointerType*>(v->type());
  return pt->pointee() != nullptr
             ? static_cast<std::int64_t>(pt->pointee()->size())
             : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Word-sparse bitsets
// ---------------------------------------------------------------------------

bool WordSet::insert(ObjId obj) {
  const auto index = static_cast<std::uint32_t>(obj) / 64;
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<unsigned>(obj) % 64);
  const auto it =
      std::lower_bound(words_.begin(), words_.end(), index, byIndex);
  if (it != words_.end() && it->index == index) {
    if ((it->bits & bit) != 0) return false;
    it->bits |= bit;
    return true;
  }
  words_.insert(it, Word{index, bit});
  return true;
}

void WordSet::unite(const WordSet& src, WordSet* added) {
  if (added != nullptr) added->words_.clear();
  // One forward merge. Words both sets hold are ORed in place; the
  // merged vector is only built once src holds a word this set lacks.
  std::vector<Word> merged;
  bool grown = false;
  auto at = words_.begin();
  for (const Word& w : src.words_) {
    // Binary search, not a linear walk: a small delta skips over a
    // large destination.
    const auto next = std::lower_bound(at, words_.end(), w.index, byIndex);
    if (grown) merged.insert(merged.end(), at, next);
    at = next;
    const bool shared = at != words_.end() && at->index == w.index;
    const std::uint64_t fresh = shared ? w.bits & ~at->bits : w.bits;
    if (fresh != 0 && added != nullptr) {
      added->words_.push_back(Word{w.index, fresh});
    }
    if (shared) {
      at->bits |= fresh;
      if (grown) merged.push_back(*at);
      ++at;
      continue;
    }
    if (!grown) {
      merged.reserve(words_.size() + src.words_.size());
      merged.assign(words_.begin(), at);
      grown = true;
    }
    merged.push_back(w);
  }
  if (!grown) return;
  merged.insert(merged.end(), at, words_.end());
  words_ = std::move(merged);
}

AliasAnalysis::AliasAnalysis(const ir::Module& module,
                             const ShmRegionTable& regions,
                             const ir::CallGraph& callgraph,
                             AliasOptions options,
                             support::AnalysisBudget* budget)
    : module_(module),
      regions_(regions),
      callgraph_(callgraph),
      options_(options),
      budget_(budget),
      value_nodes_(module.valueCount(), -1),
      value_objects_(module.valueCount(), -1) {
  Object unknown;
  unknown.kind = ObjKind::kUnknown;
  unknown.name = "<unknown>";
  unknown_ = internObject(std::move(unknown));
  // Externals can return pointers into graphs of unknown memory: the
  // unknown object's contents include a pointer to itself.
  addPts(objNode(unknown_), unknown_);
}

// ---------------------------------------------------------------------------
// Nodes and union-find
// ---------------------------------------------------------------------------

int AliasAnalysis::newNode() {
  nodes_.emplace_back();
  rep_.push_back(static_cast<int>(nodes_.size()) - 1);
  node_values_.push_back(nullptr);
  if (nodes_.size() > worklist_.size() * 64) worklist_.push_back(0);
  return static_cast<int>(nodes_.size()) - 1;
}

int AliasAnalysis::valueNode(const ir::Value* v) {
  std::int32_t& slot = value_nodes_[v->id()];
  if (slot >= 0) return slot;
  slot = newNode();
  node_values_[static_cast<std::size_t>(slot)] = v;
  return slot;
}

int AliasAnalysis::objNode(ObjId obj) {
  if (objects_[static_cast<std::size_t>(obj)].node >= 0) {
    return objects_[static_cast<std::size_t>(obj)].node;
  }
  const int n = newNode();
  objects_[static_cast<std::size_t>(obj)].node = n;
  return n;
}

int AliasAnalysis::find(int n) {
  while (rep_[static_cast<std::size_t>(n)] != n) {
    rep_[static_cast<std::size_t>(n)] =
        rep_[static_cast<std::size_t>(rep_[static_cast<std::size_t>(n)])];
    n = rep_[static_cast<std::size_t>(n)];
  }
  return n;
}

void AliasAnalysis::enqueue(int node) {
  const auto word = static_cast<std::size_t>(node) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (node % 64);
  if ((worklist_[word] & bit) != 0) return;
  worklist_[word] |= bit;
  ++worklist_size_;
  worklist_min_ = std::min(worklist_min_, word);
}

int AliasAnalysis::dequeue() {
  while (worklist_[worklist_min_] == 0) ++worklist_min_;
  std::uint64_t& bits = worklist_[worklist_min_];
  const int node =
      static_cast<int>(worklist_min_ * 64) + std::countr_zero(bits);
  bits &= bits - 1;
  --worklist_size_;
  return node;
}

int AliasAnalysis::unite(int a, int b) {
  a = find(a);
  b = find(b);
  if (a == b) return a;
  // The smaller index survives so collapse order is deterministic.
  if (b < a) std::swap(a, b);
  Node& na = nodes_[static_cast<std::size_t>(a)];
  Node& nb = nodes_[static_cast<std::size_t>(b)];
  std::vector<int> succs;
  succs.reserve(na.succs.size() + nb.succs.size());
  std::set_union(na.succs.begin(), na.succs.end(), nb.succs.begin(),
                 nb.succs.end(), std::back_inserter(succs));
  na.succs = std::move(succs);
  na.pts.unite(nb.pts);
  na.constraints.insert(na.constraints.end(), nb.constraints.begin(),
                        nb.constraints.end());
  // The adopted constraints have never seen the survivor's objects (and
  // vice versa): refire everything once over the merged set.
  na.pending = na.pts;
  nb = Node{};
  rep_[static_cast<std::size_t>(b)] = a;
  enqueue(a);
  ++n_collapsed_;
  return a;
}

bool AliasAnalysis::addEdge(int from, int to) {
  from = find(from);
  to = find(to);
  if (from == to) return false;
  std::vector<int>& succs = nodes_[static_cast<std::size_t>(from)].succs;
  const auto it = std::lower_bound(succs.begin(), succs.end(), to);
  if (it != succs.end() && *it == to) return false;
  succs.insert(it, to);
  edges_dirty_ = true;
  // A brand-new edge must carry everything already known at the source;
  // afterwards only deltas flow across it.
  flowInto(to, nodes_[static_cast<std::size_t>(from)].pts);
  return true;
}

bool AliasAnalysis::addPts(int node, ObjId obj) {
  node = find(node);
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!n.pts.insert(obj)) return false;
  n.pending.insert(obj);
  enqueue(node);
  return true;
}

void AliasAnalysis::flowInto(int dst, const WordSet& src) {
  Node& d = nodes_[static_cast<std::size_t>(dst)];
  d.pts.unite(src, &scratch_);
  if (scratch_.empty()) return;
  d.pending.unite(scratch_);
  enqueue(dst);
}

// ---------------------------------------------------------------------------
// Abstract objects and field cells
// ---------------------------------------------------------------------------

ObjId AliasAnalysis::internObject(Object obj) {
  objects_.push_back(std::move(obj));
  return static_cast<ObjId>(objects_.size() - 1);
}

namespace {

// Fills size / element stride / element layout for a root object.
// Arrays collapse element-wise: the stride is the element size and the
// layout describes one element, so constant offsets normalize modulo the
// stride. Non-array objects have stride == size.
void setRootLayout(std::int64_t& size, std::int64_t& stride,
                   const cfront::StructType*& layout, const cfront::Type* t) {
  if (t == nullptr) {
    size = 0;
    stride = 0;
    layout = nullptr;
    return;
  }
  size = static_cast<std::int64_t>(t->size());
  if (t->isArray()) {
    const auto* at = static_cast<const cfront::ArrayType*>(t);
    stride = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(at->element()->size()));
    layout = at->element()->isStruct()
                 ? static_cast<const cfront::StructType*>(at->element())
                 : nullptr;
  } else {
    stride = size;
    layout = t->isStruct() ? static_cast<const cfront::StructType*>(t)
                           : nullptr;
  }
}

}  // namespace

ObjId AliasAnalysis::objectForAlloca(const ir::Instruction* alloca) {
  if (value_objects_[alloca->id()] >= 0) return value_objects_[alloca->id()];
  Object o;
  o.kind = ObjKind::kAlloca;
  o.anchor = alloca;
  // Qualify with the owning function: bare alloca names are not unique
  // across functions and diagnostics must be unambiguous.
  const ir::Function* fn =
      alloca->parent() != nullptr ? alloca->parent()->parent() : nullptr;
  const std::string base =
      alloca->name().empty() ? std::string("<tmp>") : alloca->name();
  o.name = (fn != nullptr ? fn->name() + "::" : std::string()) + base;
  setRootLayout(o.size, o.stride, o.layout, alloca->allocated_type);
  const ObjId id = internObject(std::move(o));
  value_objects_[alloca->id()] = id;
  return id;
}

ObjId AliasAnalysis::objectForGlobal(const ir::GlobalVar* g) {
  if (value_objects_[g->id()] >= 0) return value_objects_[g->id()];
  Object o;
  o.kind = ObjKind::kGlobal;
  o.anchor = g;
  o.name = g->name();
  setRootLayout(o.size, o.stride, o.layout, g->valueType());
  const ObjId id = internObject(std::move(o));
  value_objects_[g->id()] = id;
  return id;
}

ObjId AliasAnalysis::cellFor(ObjId root, std::int64_t offset,
                              std::int64_t size) {
  // Each root keeps its cells ordered by (offset, size).
  const auto key = std::make_pair(offset, size);
  const auto before = [this](ObjId cell,
                             std::pair<std::int64_t, std::int64_t> k) {
    return extentOf(cell) < k;
  };
  {
    const std::vector<ObjId>& cells =
        objects_[static_cast<std::size_t>(root)].cells;
    const auto it = std::lower_bound(cells.begin(), cells.end(), key, before);
    if (it != cells.end() && extentOf(*it) == key) return *it;
  }
  Object c;
  c.kind = ObjKind::kField;
  c.parent = root;
  c.region_id = objects_[static_cast<std::size_t>(root)].region_id;
  c.offset = offset;
  c.size = size;
  // Recover the declared field identity when the cell lines up with the
  // element layout; byte-offset views keep a positional name.
  std::string suffix =
      "+" + std::to_string(offset) + ":" + std::to_string(size);
  if (const cfront::StructType* st =
          objects_[static_cast<std::size_t>(root)].layout) {
    const auto& fs = st->fields();
    for (unsigned i = 0; i < fs.size(); ++i) {
      const auto fo = static_cast<std::int64_t>(fs[i].offset);
      const auto fsz = static_cast<std::int64_t>(fs[i].type->size());
      if (fo == offset && fsz == size) {
        c.field = i;
        suffix = "." + fs[i].name;
        break;
      }
      if (fo <= offset && offset + size <= fo + fsz) c.field = i;
    }
  }
  c.name = objects_[static_cast<std::size_t>(root)].name + suffix;
  const ObjId id = internObject(std::move(c));
  std::vector<ObjId>& cells = objects_[static_cast<std::size_t>(root)].cells;
  cells.insert(std::lower_bound(cells.begin(), cells.end(), key, before), id);
  ++n_cells_;
  // Link overlapping sibling cells (union punning, byte views): their
  // stored pointers are mutually visible, and consumers see siblings in
  // the expanded points-to sets so taint crosses the pun. Only this
  // root's cells can overlap, visited in (offset, size) order.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ObjId sib = cells[i];
    if (sib == id) continue;
    const auto [so, ss] = extentOf(sib);
    if (offset < so + ss && so < offset + size) {
      objects_[static_cast<std::size_t>(id)].overlaps.push_back(sib);
      objects_[static_cast<std::size_t>(sib)].overlaps.push_back(id);
      addEdge(objNode(id), objNode(sib));
      addEdge(objNode(sib), objNode(id));
    }
  }
  return id;
}

ObjId AliasAnalysis::resolveOffset(ObjId obj, std::int64_t delta,
                                    std::int64_t size) {
  if (isUnknown(obj)) return unknown_;
  if (!options_.field_sensitive) return obj;
  const Object& o = objects_[static_cast<std::size_t>(obj)];
  const ObjId root = o.parent >= 0 ? o.parent : obj;
  const std::int64_t raw = (o.parent >= 0 ? o.offset : 0) + delta;
  const std::int64_t total =
      objects_[static_cast<std::size_t>(root)].size;
  const std::int64_t stride =
      objects_[static_cast<std::size_t>(root)].stride;
  if (total <= 0) return obj;  // unsized object: stay put
  const std::int64_t want = std::max<std::int64_t>(1, size);
  const bool array_like = stride > 0 && stride < total;
  std::int64_t off = raw;
  if (array_like) {
    // Array collapse: all elements share one set of cells.
    off = ((raw % stride) + stride) % stride;
    if (off + want > stride) return root;  // spans elements
  } else if (raw < 0 || raw + want > total) {
    // A constant offset provably outside the object: unknown memory.
    return unknown_;
  }
  const std::int64_t bound = array_like ? stride : total;
  const Object& r = objects_[static_cast<std::size_t>(root)];
  // A (0, whole-size) view is the root itself — except for unions, where
  // every member view must stay a cell so that overlap linking connects
  // it to the sibling members it shares bytes with.
  const bool union_root = r.layout != nullptr && r.layout->isUnion();
  if (off == 0 && want >= bound && !union_root) return root;
  return cellFor(root, off, want);
}

// ---------------------------------------------------------------------------
// Constraint generation
// ---------------------------------------------------------------------------

void AliasAnalysis::buildRegionObjects() {
  for (const ShmRegion& rg : regions_.regions()) {
    Object o;
    o.kind = ObjKind::kRegion;
    o.region_id = rg.id;
    o.name = "shm:" + rg.name;
    o.size = rg.size;
    std::int64_t stride =
        rg.pointee_type != nullptr
            ? static_cast<std::int64_t>(rg.pointee_type->size())
            : 0;
    if (stride <= 0 || stride > o.size) stride = o.size;
    o.stride = stride;
    if (rg.pointee_type != nullptr && rg.pointee_type->isStruct()) {
      o.layout = static_cast<const cfront::StructType*>(rg.pointee_type);
    }
    const ObjId id = internObject(std::move(o));
    // The declared global pointer variable holds a pointer to the region.
    if (rg.pointer_global != nullptr) {
      addPts(objNode(objectForGlobal(rg.pointer_global)), id);
      ++n_constraints_;
    }
  }
}

void AliasAnalysis::genInstruction(const ir::Instruction* inst) {
  switch (inst->opcode()) {
    case ir::Opcode::kAlloca:
      addPts(valueNode(inst), objectForAlloca(inst));
      ++n_constraints_;
      break;
    case ir::Opcode::kLoad:
      if (inst->type()->isPointer()) {
        const int pn = valueNode(inst->operand(0));
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kLoad, dn, 0, 0});
        enqueue(find(pn));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kStore:
      if (inst->operand(0)->type()->isPointer()) {
        const int pn = valueNode(inst->operand(1));
        const int vn = valueNode(inst->operand(0));
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kStore, vn, 0, 0});
        enqueue(find(pn));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kCast:
      addEdge(valueNode(inst->operand(0)), valueNode(inst));
      ++n_constraints_;
      break;
    case ir::Opcode::kIndexAddr: {
      const std::int64_t elem = pointeeSize(inst);
      const ir::Value* idx = inst->operand(1);
      if (options_.field_sensitive && elem > 0 &&
          idx->kind() == ir::Value::Kind::kConstantInt) {
        const std::int64_t k =
            static_cast<const ir::ConstantInt*>(idx)->value();
        const int pn = valueNode(inst->operand(0));
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kOffset, dn, k * elem, elem});
        enqueue(find(pn));
      } else {
        // Variable index: the element pointer aliases the base cells.
        addEdge(valueNode(inst->operand(0)), valueNode(inst));
      }
      ++n_constraints_;
      break;
    }
    case ir::Opcode::kFieldAddr: {
      std::int64_t delta = 0;
      std::int64_t fsize = pointeeSize(inst);
      const ir::Value* base = inst->operand(0);
      if (base->type()->isPointer()) {
        const auto* pt =
            static_cast<const cfront::PointerType*>(base->type())
                ->pointee();
        if (pt != nullptr && pt->isStruct()) {
          const auto* st = static_cast<const cfront::StructType*>(pt);
          if (inst->field_index < st->fields().size()) {
            const auto& f = st->fields()[inst->field_index];
            delta = static_cast<std::int64_t>(f.offset);
            fsize = static_cast<std::int64_t>(f.type->size());
          }
        }
      }
      if (options_.field_sensitive) {
        const int pn = valueNode(base);
        const int dn = valueNode(inst);
        nodes_[static_cast<std::size_t>(pn)].constraints.push_back(
            Constraint{Constraint::Kind::kOffset, dn, delta, fsize});
        enqueue(find(pn));
      } else {
        addEdge(valueNode(base), valueNode(inst));
      }
      ++n_constraints_;
      break;
    }
    case ir::Opcode::kPhi:
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        addEdge(valueNode(inst->operand(i)), valueNode(inst));
        ++n_constraints_;
      }
      break;
    case ir::Opcode::kCall: {
      const std::size_t first_arg = inst->direct_callee == nullptr ? 1 : 0;
      bool handled = false;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (target->isIntrinsic()) {
          handled = true;
          continue;
        }
        if (!target->isDefined()) continue;
        handled = true;
        for (std::size_t i = first_arg; i < inst->numOperands(); ++i) {
          const std::size_t p = i - first_arg;
          if (p >= target->args().size()) break;
          addEdge(valueNode(inst->operand(i)),
                  valueNode(target->args()[p].get()));
          ++n_constraints_;
        }
        if (inst->type()->isPointer()) {
          for (const auto& tbb : target->blocks()) {
            const ir::Instruction* term = tbb->terminator();
            if (term != nullptr && term->opcode() == ir::Opcode::kRet &&
                term->numOperands() == 1) {
              addEdge(valueNode(term->operand(0)), valueNode(inst));
              ++n_constraints_;
            }
          }
        }
      }
      if (!handled && inst->type()->isPointer()) {
        // External returning a pointer: unknown memory.
        addPts(valueNode(inst), unknown_);
        ++n_constraints_;
      }
      break;
    }
    default:
      break;
  }
  // Globals referenced as operands point at their own storage.
  for (const ir::Value* op : inst->operands()) {
    if (op->kind() == ir::Value::Kind::kGlobalVar) {
      addPts(valueNode(op),
             objectForGlobal(static_cast<const ir::GlobalVar*>(op)));
    }
  }
}

void AliasAnalysis::genConstraints() {
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!support::budgetStep(budget_)) {
          live_ = false;
          return;
        }
        genInstruction(inst.get());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solving: periodic SCC condensation + worklist propagation
// ---------------------------------------------------------------------------

void AliasAnalysis::condense() {
  const int n = static_cast<int>(nodes_.size());
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> onstack(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next = 0;

  struct Frame {
    int node;
    std::vector<int> succs;
    std::size_t i;
  };
  std::vector<Frame> frames;

  for (int start = 0; start < n; ++start) {
    if (find(start) != start || index[static_cast<std::size_t>(start)] >= 0) {
      continue;
    }
    frames.push_back(Frame{start, {}, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto un = static_cast<std::size_t>(f.node);
      if (f.i == 0) {
        index[un] = low[un] = next++;
        stack.push_back(f.node);
        onstack[un] = 1;
        for (int s : nodes_[un].succs) {
          const int r = find(s);
          if (r != f.node) f.succs.push_back(r);
        }
      }
      bool descended = false;
      while (f.i < f.succs.size()) {
        const int s = f.succs[f.i];
        const auto us = static_cast<std::size_t>(s);
        if (index[us] < 0) {
          ++f.i;
          frames.push_back(Frame{s, {}, 0});
          descended = true;
          break;
        }
        if (onstack[us] != 0) low[un] = std::min(low[un], index[us]);
        ++f.i;
      }
      if (descended) continue;
      if (low[un] == index[un]) {
        std::vector<int> scc;
        while (true) {
          const int v = stack.back();
          stack.pop_back();
          onstack[static_cast<std::size_t>(v)] = 0;
          scc.push_back(v);
          if (v == f.node) break;
        }
        if (scc.size() > 1) sccs.push_back(std::move(scc));
      }
      const int child = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        Frame& p = frames.back();
        const auto up = static_cast<std::size_t>(p.node);
        low[up] =
            std::min(low[up], low[static_cast<std::size_t>(child)]);
      }
    }
  }

  // Merge after the pass so the DFS never sees a mutating forest.
  for (const auto& scc : sccs) {
    int survivor = scc.front();
    for (std::size_t i = 1; i < scc.size(); ++i) {
      survivor = unite(survivor, scc[i]);
    }
  }
}

bool AliasAnalysis::propagate() {
  edges_dirty_ = false;
  while (worklist_size_ > 0 && live_) {
    if (!support::budgetStep(budget_)) {
      live_ = false;
      break;
    }
    ++n_iterations_;
    const int node = find(dequeue());
    // Difference propagation: only the objects that arrived since the
    // last visit flow through the constraints and copy edges. (A stale
    // entry for a merged node drains the representative's delta, which
    // is a superset of what the stale node owed.)
    const WordSet delta =
        std::move(nodes_[static_cast<std::size_t>(node)].pending);
    nodes_[static_cast<std::size_t>(node)].pending.clear();
    if (delta.empty()) continue;
    // Firing may create cells/content nodes and add copy edges.
    const std::size_t ncons =
        nodes_[static_cast<std::size_t>(node)].constraints.size();
    for (std::size_t ci = 0; ci < ncons; ++ci) {
      const Constraint c =
          nodes_[static_cast<std::size_t>(node)].constraints[ci];
      switch (c.kind) {
        case Constraint::Kind::kLoad:
          delta.forEach([&](ObjId o) { addEdge(objNode(o), c.other); });
          break;
        case Constraint::Kind::kStore:
          delta.forEach([&](ObjId o) { addEdge(c.other, objNode(o)); });
          break;
        case Constraint::Kind::kOffset:
          delta.forEach([&](ObjId o) {
            addPts(c.other, resolveOffset(o, c.delta, c.size));
          });
          break;
      }
    }
    // Push the delta along copy edges (no node is created from here on,
    // so the successor list stays put).
    for (const int s0 : nodes_[static_cast<std::size_t>(node)].succs) {
      const int s = find(s0);
      if (s == node) continue;
      flowInto(s, delta);
    }
  }
  return edges_dirty_;
}

void AliasAnalysis::degrade() {
  // The solve was cut short: sets may under-approximate. Widen every
  // tracked pointer and every object's contents with unknown so
  // consumers treat partially-resolved pointers as unresolved (unsafe).
  // Every node is a value or object-content node, so this visits every
  // tracked pointer's representative.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (rep_[i] != static_cast<int>(i)) continue;
    if (!nodes_[i].pts.empty()) nodes_[i].pts.insert(unknown_);
  }
}

void AliasAnalysis::finalize() {
  // Expand each representative's set with overlap siblings once and
  // intern it. Value nodes are visited in node-id order, so pool indices
  // follow constraint generation, never heap addresses.
  node_sets_.assign(nodes_.size(), -1);
  std::vector<int> rep_sets(nodes_.size(), -1);
  const auto by_contents = [this](int a, int b) {
    return pool_[static_cast<std::size_t>(a)] <
           pool_[static_cast<std::size_t>(b)];
  };
  std::set<int, decltype(by_contents)> interned(by_contents);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (node_values_[n] == nullptr) continue;
    const auto r = static_cast<std::size_t>(find(static_cast<int>(n)));
    const WordSet& pts = nodes_[r].pts;
    if (pts.empty()) continue;
    int& id = rep_sets[r];
    if (id < 0) {
      ObjSet out;
      bool overlapping = false;
      pts.forEach([&](ObjId o) {
        out.push_back(o);
        overlapping |= !objects_[static_cast<std::size_t>(o)].overlaps.empty();
      });
      if (overlapping) {
        const std::size_t own = out.size();
        for (std::size_t i = 0; i < own; ++i) {
          const auto& sibs =
              objects_[static_cast<std::size_t>(out[i])].overlaps;
          out.insert(out.end(), sibs.begin(), sibs.end());
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      }
      pool_.push_back(std::move(out));
      const auto [it, fresh] =
          interned.insert(static_cast<int>(pool_.size()) - 1);
      if (!fresh) pool_.pop_back();
      id = *it;
    }
    node_sets_[n] = id;
  }
  exposed_.clear();
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (node_sets_[n] < 0) continue;
    exposed_.emplace_back(node_values_[n],
                          &pool_[static_cast<std::size_t>(node_sets_[n])]);
  }
}

void AliasAnalysis::emitCounters() const {
  SAFEFLOW_COUNT_N("pointsto.constraints", n_constraints_);
  SAFEFLOW_COUNT_N("pointsto.scc_collapsed", n_collapsed_);
  SAFEFLOW_COUNT_N("pointsto.worklist_iterations", n_iterations_);
  SAFEFLOW_COUNT_N("pointsto.field_cells", n_cells_);
  // Precision feed for the CI alias baseline: how many values resolved
  // to concrete objects only (no unknown), how many reach a shm region,
  // and how many carry exact field/offset cells.
  std::size_t edges = 0;
  std::size_t resolved = 0;
  std::size_t shm_resolved = 0;
  std::size_t field_precise = 0;
  for (const auto& [v, objs] : exposed_) {
    edges += objs->size();
    bool any_unknown = false;
    bool any_region = false;
    bool any_field = false;
    for (ObjId o : *objs) {
      const Object& obj = objects_[static_cast<std::size_t>(o)];
      any_unknown |= o == unknown_;
      any_region |= obj.region_id >= 0;
      any_field |= obj.kind == ObjKind::kField;
    }
    if (!any_unknown) ++resolved;
    // Region association is counted independently of unknown: the shmat
    // return is external (unknown), so every region pointer global also
    // holds unknown — what matters is whether the region survives at all.
    if (any_region) ++shm_resolved;
    if (any_field) ++field_precise;
  }
  SAFEFLOW_COUNT_N("alias.points_to_edges", edges);
  SAFEFLOW_COUNT_N("alias.resolved_pointers", resolved);
  SAFEFLOW_COUNT_N("alias.shm_pointers_resolved", shm_resolved);
  SAFEFLOW_COUNT_N("alias.field_precise_pointers", field_precise);
  SAFEFLOW_GAUGE("alias.objects", objects_.size());
}

void AliasAnalysis::run() {
  const support::ScopedTimer timer("phase.alias");
  support::budgetBeginPhase(budget_, "alias");
  buildRegionObjects();
  genConstraints();
  while (live_) {
    condense();
    if (!propagate()) break;
  }
  if (!live_) {
    degraded_ = true;
    degrade();
  }
  finalize();
  emitCounters();
}

// ---------------------------------------------------------------------------
// Read API
// ---------------------------------------------------------------------------

const ObjSet& AliasAnalysis::pointsTo(const ir::Value* v) const {
  const std::int32_t node = value_nodes_[v->id()];
  if (node < 0 || static_cast<std::size_t>(node) >= node_sets_.size()) {
    return empty_;
  }
  const int id = node_sets_[static_cast<std::size_t>(node)];
  return id < 0 ? empty_ : pool_[static_cast<std::size_t>(id)];
}

ObjId AliasAnalysis::parentOf(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return -1;
  }
  return objects_[static_cast<std::size_t>(obj)].parent;
}

int AliasAnalysis::regionOf(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return -1;
  }
  return objects_[static_cast<std::size_t>(obj)].region_id;
}

std::vector<ObjId> AliasAnalysis::objectsOfRegion(int region_id) const {
  std::vector<ObjId> out;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (objects_[i].region_id == region_id) {
      out.push_back(static_cast<ObjId>(i));
    }
  }
  return out;
}

std::pair<std::int64_t, std::int64_t> AliasAnalysis::extentOf(
    ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return {0, 0};
  }
  const Object& o = objects_[static_cast<std::size_t>(obj)];
  return {o.offset, o.size};
}

std::string AliasAnalysis::describe(ObjId obj) const {
  if (obj < 0 || static_cast<std::size_t>(obj) >= objects_.size()) {
    return "<bad-object>";
  }
  return objects_[static_cast<std::size_t>(obj)].name;
}

}  // namespace safeflow::analysis

// Andersen-style inclusion-based points-to analysis — the stand-in for
// the paper's Data Structure Analysis (DSA), consumed by taint, ranges
// and the summary store. A constraint graph (addr-of / copy / load /
// store / field-offset) is generated from the SSA IR and solved with a
// worklist plus periodic Tarjan SCC condensation: copy cycles (the
// classic worklist killer) collapse onto one representative node, so the
// solve stays near-linear on the deep phi/copy chains embedded control
// code produces.
//
// Objects are allocas, globals, declared shm regions, their field cells,
// and one "unknown" object for externals. Field sensitivity is byte-offset
// based: every struct/union/region base object can grow sub-object
// "cells" identified by (byte offset, size) within the base. Constant
// pointer arithmetic (`p + k`) resolves to the cell at the right offset
// instead of collapsing to the whole object; arrays still collapse
// element-wise (offsets are normalized modulo the element stride — the
// paper treats an array in shared memory as one unit); a constant offset
// that lands outside a non-array base resolves to the unknown object.
// Union members become distinct overlapping cells (per Miné's
// field-sensitive model) linked so stores through one member's cell are
// visible through the others, rather than punting the whole union to
// unknown.
//
// Degradation contract (AnalysisBudget): if the budget trips mid-solve,
// every tracked pointer additionally points at the unknown object —
// results only ever widen, never tighten.
//
// Representation: objects and nodes are dense ints. During the solve a
// node's points-to and pending sets are word-sparse bitsets (WordSet), so
// every inclusion step is one word-wise `new = src & ~dst` pass. Results
// are interned: each distinct expanded set is stored once as a sorted
// ObjSet in a pool filled in node-id order, so consumers iterate objects
// in ascending ObjId order and nothing depends on heap addresses.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/shm_regions.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

using ObjId = int;
/// A points-to result: sorted, unique object ids.
using ObjSet = std::vector<ObjId>;

struct AliasOptions {
  /// Off: field and offset addressing resolve to the whole base object
  /// (the paper's field-sensitivity ablation).
  bool field_sensitive = true;
};

/// A set of ObjIds as sorted (word index, 64-bit word) pairs holding only
/// the non-zero words: memory follows the occupied words, and iteration
/// yields ids in ascending order. The solver's points-to and pending sets.
class WordSet {
 public:
  [[nodiscard]] bool empty() const { return words_.empty(); }
  void clear() { words_.clear(); }
  /// Adds one id; true when it was not present.
  bool insert(ObjId obj);
  /// The word-wise difference step: `*this |= src`; when `added` is
  /// given it receives `src & ~*this` as it was before.
  void unite(const WordSet& src, WordSet* added = nullptr);
  template <typename F>
  void forEach(F&& f) const {
    for (const Word& w : words_) {
      for (std::uint64_t b = w.bits; b != 0; b &= b - 1) {
        f(static_cast<ObjId>(w.index * 64 + std::countr_zero(b)));
      }
    }
  }

 private:
  struct Word {
    std::uint32_t index;
    std::uint64_t bits;
  };
  static bool byIndex(const Word& w, std::uint32_t index) {
    return w.index < index;
  }
  std::vector<Word> words_;
};

class AliasAnalysis {
 public:
  /// Structural identity of an object, exposed so the summary layer can
  /// derive names that are stable across runs (ObjId allocation order is
  /// an implementation detail).
  enum class ObjKind { kAlloca, kGlobal, kRegion, kField, kUnknown };

  AliasAnalysis(const ir::Module& module, const ShmRegionTable& regions,
                const ir::CallGraph& callgraph, AliasOptions options = {},
                support::AnalysisBudget* budget = nullptr);

  /// The alias phase: generates constraints and solves to a fixpoint (or
  /// until the budget trips, after which every pointer also points at
  /// unknown), then emits the pointsto.* and alias.* counters.
  void run();

  /// Objects the pointer value may point at, in ascending ObjId order
  /// (empty when not a pointer or nothing is known — treat as "no memory
  /// effect"). Equal sets share one interned ObjSet, so its address
  /// identifies the set for per-run caches.
  [[nodiscard]] const ObjSet& pointsTo(const ir::Value* v) const;

  /// The shm region an object denotes, or -1.
  [[nodiscard]] int regionOf(ObjId obj) const;
  /// Region sub-objects of one region (all field cells plus the base).
  [[nodiscard]] std::vector<ObjId> objectsOfRegion(int region_id) const;
  /// (byte offset within the root object, size). Cells report their
  /// exact resolved extent; base objects report (0, object size).
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> extentOf(
      ObjId obj) const;
  [[nodiscard]] bool isUnknown(ObjId obj) const { return obj == unknown_; }
  /// Root object of a field cell, or -1 for base objects.
  [[nodiscard]] ObjId parentOf(ObjId obj) const;
  /// Display name. Alloca objects are qualified with their owning
  /// function ("fn::name") so names are unambiguous across functions.
  [[nodiscard]] std::string describe(ObjId obj) const;
  [[nodiscard]] std::size_t objectCount() const { return objects_.size(); }
  [[nodiscard]] ObjKind kindOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].kind;
  }
  /// Alloca instruction or global var anchoring the object (null for
  /// regions/cells/unknown).
  [[nodiscard]] const ir::Value* anchorOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].anchor;
  }
  /// Declared field index within the root (meaningful for kField only).
  [[nodiscard]] unsigned fieldIndexOf(ObjId obj) const {
    return objects_[static_cast<std::size_t>(obj)].field;
  }
  /// True when the budget tripped mid-solve (results were widened).
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Every value with a non-empty (expanded) points-to set, in node-id
  /// order, each pointing into pool() — the feed for the alias.*
  /// precision counters.
  using ValuePointsTo = std::pair<const ir::Value*, const ObjSet*>;
  [[nodiscard]] const std::vector<ValuePointsTo>& allPointsTo() const {
    return exposed_;
  }
  /// The distinct expanded points-to sets, each stored once, in the order
  /// their first value node appears.
  [[nodiscard]] const std::vector<ObjSet>& pool() const { return pool_; }

 private:
  struct Object {
    ObjKind kind = ObjKind::kUnknown;
    const ir::Value* anchor = nullptr;  // alloca inst or global var
    int region_id = -1;
    ObjId parent = -1;       // root base object (cells only)
    unsigned field = 0;      // declared field index (cells only)
    std::int64_t offset = 0;  // byte offset within the root (cells only)
    std::int64_t size = 0;
    // Root objects: element stride for array collapse (== size when the
    // object is not array-like) and the element layout for field naming.
    std::int64_t stride = 0;
    const cfront::StructType* layout = nullptr;
    std::string name;
    int node = -1;  // lazily-created content node
    // Cells of the same root whose byte ranges intersect this one
    // (union punning, misaligned views). Kept sorted/deduped.
    std::vector<ObjId> overlaps;
    // Root objects: their cells, ordered by (offset, size).
    std::vector<ObjId> cells;
  };

  // A complex constraint attached to the pointer node whose points-to
  // set drives it.
  struct Constraint {
    enum class Kind {
      kLoad,   // dst ⊇ *this: content(o) → other for each o in pts
      kStore,  // *this ⊇ src: other → content(o) for each o in pts
      kOffset  // dst ⊇ this ⊕ delta: resolve cell at +delta, size bytes
    };
    Kind kind;
    int other;  // node index (dst for kLoad/kOffset, src for kStore)
    std::int64_t delta = 0;
    std::int64_t size = 0;
  };

  struct Node {
    // Copy edges (inclusion: succ ⊇ this), sorted and deduplicated.
    std::vector<int> succs;
    WordSet pts;
    // Difference propagation: objects added to pts but not yet pushed
    // through this node's constraints and copy edges. Each (constraint,
    // object) pair fires once; a full refire happens only on SCC merge.
    WordSet pending;
    std::vector<Constraint> constraints;
  };

  int newNode();
  int valueNode(const ir::Value* v);
  int objNode(ObjId obj);
  int find(int n);
  void enqueue(int node);
  int dequeue();
  /// Union-find merge of two representatives; returns the survivor.
  int unite(int a, int b);
  bool addEdge(int from, int to);
  bool addPts(int node, ObjId obj);
  /// dst.pts ⊇ src: one word-wise pass; new ids also enter dst.pending.
  void flowInto(int dst, const WordSet& src);

  ObjId internObject(Object obj);
  ObjId objectForAlloca(const ir::Instruction* alloca);
  ObjId objectForGlobal(const ir::GlobalVar* g);
  /// Resolves `obj ⊕ delta` addressing `size` bytes to a cell of obj's
  /// root (or the root itself, or unknown for out-of-bounds constants).
  ObjId resolveOffset(ObjId obj, std::int64_t delta, std::int64_t size);
  ObjId cellFor(ObjId root, std::int64_t offset, std::int64_t size);

  void buildRegionObjects();
  void genConstraints();
  void genInstruction(const ir::Instruction* inst);
  /// Tarjan SCC pass over the copy-edge graph; collapses cycles.
  void condense();
  /// Worklist propagation; returns true when a complex constraint added
  /// a new copy edge (the graph needs re-condensing).
  bool propagate();
  void degrade();
  void finalize();
  void emitCounters() const;

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ir::CallGraph& callgraph_;
  AliasOptions options_;
  support::AnalysisBudget* budget_ = nullptr;

  std::vector<Object> objects_;
  std::vector<Node> nodes_;
  std::vector<int> rep_;  // union-find forest over nodes_
  std::vector<std::int32_t> value_nodes_;  // by value id, -1 = none
  // The value each node stands for (null for object content nodes).
  std::vector<const ir::Value*> node_values_;
  std::vector<ObjId> value_objects_;  // by alloca/global id, -1 = none
  ObjId unknown_ = -1;

  // One bit per queued node: pops the lowest queued node id first, each
  // queued node once. No bit below word worklist_min_ is set.
  std::vector<std::uint64_t> worklist_;
  std::size_t worklist_min_ = 0;
  std::size_t worklist_size_ = 0;
  WordSet scratch_;  // flowInto's newly added words
  bool live_ = true;
  bool degraded_ = false;
  bool edges_dirty_ = false;

  // Final view: points-to sets expanded with overlap siblings, interned.
  std::vector<ObjSet> pool_;
  std::vector<int> node_sets_;  // pool index per value node, or -1
  std::vector<ValuePointsTo> exposed_;
  ObjSet empty_;

  // Counter feeds for --stats-json (pointsto.* namespace).
  std::size_t n_constraints_ = 0;
  std::size_t n_collapsed_ = 0;
  std::size_t n_iterations_ = 0;
  std::size_t n_cells_ = 0;
};

}  // namespace safeflow::analysis

// The alias layer consumed by taint, ranges, and the summary store — the
// stand-in for the paper's Data Structure Analysis (DSA). Since 0.9.0
// the default engine is the Andersen-style inclusion-based solver in
// analysis/pointsto.h (constraint graph + SCC condensation, byte-offset
// field cells, union overlap, constant pointer arithmetic); the previous
// ad-hoc flow-insensitive fixpoint is kept behind
// AliasOptions::Engine::kLegacy as an escape hatch (--alias=legacy).
//
// Both engines share this facade: objects are allocas, globals, declared
// shm regions, field sub-objects, and one "unknown" object for
// externals. Arrays collapse to a single cell (the paper treats an array
// in shared memory as one unit); struct fields become distinct
// sub-objects when field sensitivity is on.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/pointsto.h"
#include "analysis/shm_regions.h"
#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/limits.h"

namespace safeflow::analysis {

struct AliasOptions {
  bool field_sensitive = true;
  /// kAndersen: inclusion-based constraint solver (pointsto.h).
  /// kLegacy: the pre-0.9.0 ad-hoc fixpoint (--alias=legacy). The flag
  /// participates in cache keys and the summary config fingerprint.
  enum class Engine { kAndersen, kLegacy };
  Engine engine = Engine::kAndersen;
};

class AliasAnalysis {
 public:
  AliasAnalysis(const ir::Module& module, const ShmRegionTable& regions,
                const ir::CallGraph& callgraph, AliasOptions options = {},
                support::AnalysisBudget* budget = nullptr);

  /// Runs to a fixpoint, or until the budget trips. On exhaustion every
  /// tracked pointer additionally points at the unknown object, so
  /// consumers treat partially-resolved pointers as unresolved (unsafe).
  void run();

  /// Objects the pointer value may point at, in ascending ObjId order
  /// (empty when not a pointer or nothing is known — treat as "no memory
  /// effect"). Under the Andersen engine equal sets share one interned
  /// ObjSet, so its address identifies the set for per-run caches.
  [[nodiscard]] const ObjSet& pointsTo(const ir::Value* v) const;

  /// The shm region an object denotes, or -1.
  [[nodiscard]] int regionOf(ObjId obj) const;
  /// Region sub-objects of one region (all field cells plus the base).
  [[nodiscard]] std::vector<ObjId> objectsOfRegion(int region_id) const;
  /// Byte offset of a (possibly field) object within its base, and size.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> extentOf(
      ObjId obj) const;

  [[nodiscard]] bool isUnknown(ObjId obj) const {
    return solver_ ? solver_->isUnknown(obj) : obj == unknown_;
  }
  /// Parent of a field sub-object, or -1 for base objects.
  [[nodiscard]] ObjId parentOf(ObjId obj) const;
  /// Display name. Alloca objects are qualified with their owning
  /// function ("fn::name") so names are unambiguous across functions.
  [[nodiscard]] std::string describe(ObjId obj) const;
  [[nodiscard]] std::size_t objectCount() const {
    return solver_ ? solver_->objectCount() : infos_.size();
  }

  /// Structural identity of an object, exposed so the summary layer can
  /// derive names that are stable across runs (ObjId allocation order is
  /// an implementation detail).
  enum class ObjKind { kAlloca, kGlobal, kRegion, kField, kUnknown };
  [[nodiscard]] ObjKind kindOf(ObjId obj) const {
    if (solver_) return static_cast<ObjKind>(solver_->kindOf(obj));
    return static_cast<ObjKind>(infos_[static_cast<std::size_t>(obj)].kind);
  }
  /// Alloca instruction or global var anchoring the object (null for
  /// regions/fields/unknown).
  [[nodiscard]] const ir::Value* anchorOf(ObjId obj) const {
    if (solver_) return solver_->anchorOf(obj);
    return infos_[static_cast<std::size_t>(obj)].anchor;
  }
  /// Field index within the parent object (meaningful for kField only).
  [[nodiscard]] unsigned fieldIndexOf(ObjId obj) const {
    if (solver_) return solver_->fieldIndexOf(obj);
    return infos_[static_cast<std::size_t>(obj)].field;
  }

 private:
  struct ObjInfo {
    enum class Kind { kAlloca, kGlobal, kRegion, kField, kUnknown };
    Kind kind = Kind::kUnknown;
    const ir::Value* anchor = nullptr;  // alloca inst or global var
    int region_id = -1;
    ObjId parent = -1;      // for fields
    unsigned field = 0;     // for fields
    std::int64_t offset = 0;
    std::int64_t size = 0;
    std::string name;
  };

  ObjId internObject(ObjInfo info);
  ObjId objectForAlloca(const ir::Instruction* alloca);
  ObjId objectForGlobal(const ir::GlobalVar* g);
  ObjId fieldObject(ObjId base, unsigned field_index,
                    const ir::Type* field_type);

  bool addPointsTo(const ir::Value* v, ObjId obj);
  bool addAll(const ir::Value* v, const std::set<ObjId>& objs);
  const std::set<ObjId>& legacyPointsTo(const ir::Value* v) const;

  /// The pre-0.9.0 ad-hoc flow-insensitive fixpoint (--alias=legacy).
  void runLegacy();
  /// Emits the alias.* precision counters shared by both engines.
  void emitSharedCounters() const;

  const ir::Module& module_;
  const ShmRegionTable& regions_;
  const ir::CallGraph& callgraph_;
  AliasOptions options_;
  support::AnalysisBudget* budget_ = nullptr;

  // Andersen engine (null under --alias=legacy).
  std::unique_ptr<PointsToSolver> solver_;

  // Legacy-engine state.
  std::vector<ObjInfo> infos_;
  std::map<const ir::Value*, ObjId> value_objects_;
  std::map<std::pair<ObjId, unsigned>, ObjId> field_objects_;
  std::map<int, ObjId> region_objects_;
  ObjId unknown_ = -1;

  // Working sets of the legacy fixpoint, converted to ObjSet results
  // once at the end of runLegacy.
  std::map<const ir::Value*, std::set<ObjId>> points_to_;
  std::map<ObjId, std::set<ObjId>> contents_;
  std::set<ObjId> empty_set_;
  std::map<const ir::Value*, ObjSet> legacy_results_;
  ObjSet empty_;
};

}  // namespace safeflow::analysis

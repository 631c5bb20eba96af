#include "analysis/alias.h"

#include "support/metrics.h"

namespace safeflow::analysis {

AliasAnalysis::AliasAnalysis(const ir::Module& module,
                             const ShmRegionTable& regions,
                             const ir::CallGraph& callgraph,
                             AliasOptions options,
                             support::AnalysisBudget* budget)
    : module_(module),
      regions_(regions),
      callgraph_(callgraph),
      options_(options),
      budget_(budget) {
  if (options_.engine == AliasOptions::Engine::kAndersen) {
    solver_ = std::make_unique<PointsToSolver>(
        module_, regions_, callgraph_,
        PointsToOptions{options_.field_sensitive}, budget_);
    return;
  }
  ObjInfo unknown;
  unknown.kind = ObjInfo::Kind::kUnknown;
  unknown.name = "<unknown>";
  unknown_ = internObject(std::move(unknown));
  // The unknown object may contain a pointer to itself (externals can
  // return pointers to graphs of unknown memory).
  contents_[unknown_].insert(unknown_);
}

void AliasAnalysis::run() {
  const support::ScopedTimer timer("phase.alias");
  support::budgetBeginPhase(budget_, "alias");
  if (solver_) {
    solver_->solve();
  } else {
    runLegacy();
  }
  emitSharedCounters();
}

void AliasAnalysis::emitSharedCounters() const {
  // Precision feed for the CI alias baseline: how many values resolved
  // to concrete objects only (no unknown), how many reach a shm region,
  // and how many carry exact field/offset cells.
  std::size_t edges = 0;
  std::size_t resolved = 0;
  std::size_t shm_resolved = 0;
  std::size_t field_precise = 0;
  const auto tally = [&](const ObjSet& objs) {
    edges += objs.size();
    bool any_unknown = false;
    bool any_region = false;
    bool any_field = false;
    for (ObjId o : objs) {
      if (isUnknown(o)) any_unknown = true;
      if (regionOf(o) >= 0) any_region = true;
      if (kindOf(o) == ObjKind::kField) any_field = true;
    }
    if (!any_unknown) ++resolved;
    // Region association is counted independently of unknown: the shmat
    // return is external (unknown), so every region pointer global also
    // holds unknown — what matters is whether the region survives at all.
    if (any_region) ++shm_resolved;
    if (any_field) ++field_precise;
  };
  if (solver_) {
    for (const auto& [v, objs] : solver_->allPointsTo()) tally(*objs);
  } else {
    for (const auto& [v, objs] : legacy_results_) tally(objs);
  }
  SAFEFLOW_COUNT_N("alias.points_to_edges", edges);
  SAFEFLOW_COUNT_N("alias.resolved_pointers", resolved);
  SAFEFLOW_COUNT_N("alias.shm_pointers_resolved", shm_resolved);
  SAFEFLOW_COUNT_N("alias.field_precise_pointers", field_precise);
  SAFEFLOW_GAUGE("alias.objects", objectCount());
}

// ---------------------------------------------------------------------------
// Facade dispatch
// ---------------------------------------------------------------------------

const ObjSet& AliasAnalysis::pointsTo(const ir::Value* v) const {
  if (solver_) return solver_->pointsTo(v);
  auto it = legacy_results_.find(v);
  return it == legacy_results_.end() ? empty_ : it->second;
}

ObjId AliasAnalysis::parentOf(ObjId obj) const {
  if (solver_) return solver_->parentOf(obj);
  if (obj < 0 || static_cast<std::size_t>(obj) >= infos_.size()) return -1;
  const ObjInfo& info = infos_[static_cast<std::size_t>(obj)];
  return info.kind == ObjInfo::Kind::kField ? info.parent : -1;
}

int AliasAnalysis::regionOf(ObjId obj) const {
  if (solver_) return solver_->regionOf(obj);
  if (obj < 0 || static_cast<std::size_t>(obj) >= infos_.size()) return -1;
  return infos_[static_cast<std::size_t>(obj)].region_id;
}

std::vector<ObjId> AliasAnalysis::objectsOfRegion(int region_id) const {
  if (solver_) return solver_->objectsOfRegion(region_id);
  std::vector<ObjId> out;
  for (std::size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].region_id == region_id) {
      out.push_back(static_cast<ObjId>(i));
    }
  }
  return out;
}

std::pair<std::int64_t, std::int64_t> AliasAnalysis::extentOf(
    ObjId obj) const {
  if (solver_) return solver_->extentOf(obj);
  if (obj < 0 || static_cast<std::size_t>(obj) >= infos_.size()) {
    return {0, 0};
  }
  const ObjInfo& info = infos_[static_cast<std::size_t>(obj)];
  if (info.kind != ObjInfo::Kind::kField) return {0, info.size};
  // Field offset within the parent: recover from the parent's pointee
  // struct layout when available. The region's pointee type carries it.
  std::int64_t offset = 0;
  const int region = info.region_id;
  if (region >= 0) {
    if (const ShmRegion* r = regions_.byId(region)) {
      if (r->pointee_type != nullptr && r->pointee_type->isStruct()) {
        const auto* st =
            static_cast<const cfront::StructType*>(r->pointee_type);
        if (info.field < st->fields().size()) {
          offset = static_cast<std::int64_t>(
              st->fields()[info.field].offset);
        }
      }
    }
  }
  return {offset, info.size};
}

std::string AliasAnalysis::describe(ObjId obj) const {
  if (solver_) return solver_->describe(obj);
  if (obj < 0 || static_cast<std::size_t>(obj) >= infos_.size()) {
    return "<bad-object>";
  }
  return infos_[static_cast<std::size_t>(obj)].name;
}

// ---------------------------------------------------------------------------
// Legacy engine (pre-0.9.0 ad-hoc fixpoint, --alias=legacy)
// ---------------------------------------------------------------------------

ObjId AliasAnalysis::internObject(ObjInfo info) {
  infos_.push_back(std::move(info));
  return static_cast<ObjId>(infos_.size() - 1);
}

ObjId AliasAnalysis::objectForAlloca(const ir::Instruction* alloca) {
  auto it = value_objects_.find(alloca);
  if (it != value_objects_.end()) return it->second;
  ObjInfo info;
  info.kind = ObjInfo::Kind::kAlloca;
  info.anchor = alloca;
  // Qualified with the owning function: bare alloca names are not unique
  // across functions and diagnostics must be unambiguous.
  const ir::Function* fn =
      alloca->parent() != nullptr ? alloca->parent()->parent() : nullptr;
  const std::string base =
      alloca->name().empty() ? std::string("<tmp>") : alloca->name();
  info.name = (fn != nullptr ? fn->name() + "::" : std::string()) + base;
  info.size = alloca->allocated_type
                  ? static_cast<std::int64_t>(alloca->allocated_type->size())
                  : 0;
  const ObjId id = internObject(std::move(info));
  value_objects_[alloca] = id;
  return id;
}

ObjId AliasAnalysis::objectForGlobal(const ir::GlobalVar* g) {
  auto it = value_objects_.find(g);
  if (it != value_objects_.end()) return it->second;
  ObjInfo info;
  info.kind = ObjInfo::Kind::kGlobal;
  info.anchor = g;
  info.name = g->name();
  info.size = static_cast<std::int64_t>(g->valueType()->size());
  const ObjId id = internObject(std::move(info));
  value_objects_[g] = id;
  return id;
}

ObjId AliasAnalysis::fieldObject(ObjId base, unsigned field_index,
                                 const ir::Type* field_type) {
  if (!options_.field_sensitive) return base;
  if (isUnknown(base)) return base;
  const auto key = std::make_pair(base, field_index);
  auto it = field_objects_.find(key);
  if (it != field_objects_.end()) return it->second;
  ObjInfo info;
  info.kind = ObjInfo::Kind::kField;
  info.parent = base;
  info.field = field_index;
  info.region_id = infos_[static_cast<std::size_t>(base)].region_id;
  info.name = infos_[static_cast<std::size_t>(base)].name + ".#" +
              std::to_string(field_index);
  info.size =
      field_type ? static_cast<std::int64_t>(field_type->size()) : 0;
  const ObjId id = internObject(std::move(info));
  field_objects_[key] = id;
  return id;
}

bool AliasAnalysis::addPointsTo(const ir::Value* v, ObjId obj) {
  return points_to_[v].insert(obj).second;
}

bool AliasAnalysis::addAll(const ir::Value* v, const std::set<ObjId>& objs) {
  bool changed = false;
  for (ObjId o : objs) changed |= addPointsTo(v, o);
  return changed;
}

const std::set<ObjId>& AliasAnalysis::legacyPointsTo(
    const ir::Value* v) const {
  auto it = points_to_.find(v);
  return it == points_to_.end() ? empty_set_ : it->second;
}

void AliasAnalysis::runLegacy() {
  std::size_t rounds = 0;
  bool live = true;
  // Region objects.
  for (const ShmRegion& r : regions_.regions()) {
    ObjInfo info;
    info.kind = ObjInfo::Kind::kRegion;
    info.region_id = r.id;
    info.name = "shm:" + r.name;
    info.size = r.size;
    const ObjId id = internObject(std::move(info));
    region_objects_[r.id] = id;
    // The global pointer variable holds a pointer to the region.
    if (r.pointer_global != nullptr) {
      contents_[objectForGlobal(r.pointer_global)].insert(id);
    }
  }

  bool changed = true;
  while (changed && live) {
    changed = false;
    ++rounds;
    for (const auto& fn : module_.functions()) {
      if (!live) break;
      if (!fn->isDefined()) continue;
      for (const auto& bb : fn->blocks()) {
        if (!live) break;
        for (const auto& inst : bb->instructions()) {
          if (!support::budgetStep(budget_)) {
            live = false;
            break;
          }
          switch (inst->opcode()) {
            case ir::Opcode::kAlloca:
              changed |= addPointsTo(inst.get(),
                                     objectForAlloca(inst.get()));
              break;
            case ir::Opcode::kLoad: {
              const ir::Value* ptr = inst->operand(0);
              // Address values: globals point at their own storage.
              if (ptr->kind() == ir::Value::Kind::kGlobalVar) {
                changed |= addPointsTo(
                    ptr, objectForGlobal(
                             static_cast<const ir::GlobalVar*>(ptr)));
              }
              if (!inst->type()->isPointer()) break;
              for (ObjId obj : legacyPointsTo(ptr)) {
                changed |= addAll(inst.get(), contents_[obj]);
              }
              break;
            }
            case ir::Opcode::kStore: {
              const ir::Value* ptr = inst->operand(1);
              if (ptr->kind() == ir::Value::Kind::kGlobalVar) {
                changed |= addPointsTo(
                    ptr, objectForGlobal(
                             static_cast<const ir::GlobalVar*>(ptr)));
              }
              const ir::Value* value = inst->operand(0);
              if (!value->type()->isPointer()) break;
              const std::set<ObjId>& value_pts = legacyPointsTo(value);
              if (value_pts.empty()) break;
              for (ObjId obj : legacyPointsTo(ptr)) {
                for (ObjId v : value_pts) {
                  changed |= contents_[obj].insert(v).second;
                }
              }
              break;
            }
            case ir::Opcode::kCast:
            case ir::Opcode::kIndexAddr:
              // Arrays collapse: element pointer aliases the base object.
              changed |= addAll(inst.get(), legacyPointsTo(inst->operand(0)));
              break;
            case ir::Opcode::kFieldAddr: {
              for (ObjId base : legacyPointsTo(inst->operand(0))) {
                const ir::Type* ft =
                    inst->type()->isPointer()
                        ? static_cast<const cfront::PointerType*>(
                              inst->type())
                              ->pointee()
                        : nullptr;
                changed |= addPointsTo(
                    inst.get(), fieldObject(base, inst->field_index, ft));
              }
              break;
            }
            case ir::Opcode::kPhi:
              for (std::size_t i = 0; i < inst->numOperands(); ++i) {
                changed |=
                    addAll(inst.get(), legacyPointsTo(inst->operand(i)));
              }
              break;
            case ir::Opcode::kCall: {
              const std::size_t first_arg =
                  inst->direct_callee == nullptr ? 1 : 0;
              bool handled = false;
              for (const ir::Function* target :
                   callgraph_.targets(*inst)) {
                if (target->isIntrinsic()) {
                  handled = true;
                  continue;
                }
                if (!target->isDefined()) continue;
                handled = true;
                for (std::size_t i = first_arg; i < inst->numOperands();
                     ++i) {
                  const std::size_t p = i - first_arg;
                  if (p >= target->args().size()) break;
                  changed |= addAll(target->args()[p].get(),
                                    legacyPointsTo(inst->operand(i)));
                }
                // Returned pointers.
                if (inst->type()->isPointer()) {
                  for (const auto& tbb : target->blocks()) {
                    const ir::Instruction* term = tbb->terminator();
                    if (term != nullptr &&
                        term->opcode() == ir::Opcode::kRet &&
                        term->numOperands() == 1) {
                      changed |= addAll(inst.get(),
                                        legacyPointsTo(term->operand(0)));
                    }
                  }
                }
              }
              if (!handled && inst->type()->isPointer()) {
                // External returning a pointer: unknown memory.
                changed |= addPointsTo(inst.get(), unknown_);
              }
              break;
            }
            default:
              break;
          }
        }
      }
      // Globals referenced as operands anywhere get their object.
      for (const auto& bb : fn->blocks()) {
        for (const auto& inst : bb->instructions()) {
          for (std::size_t i = 0; i < inst->numOperands(); ++i) {
            const ir::Value* op = inst->operand(i);
            if (op->kind() == ir::Value::Kind::kGlobalVar) {
              changed |= addPointsTo(
                  op,
                  objectForGlobal(static_cast<const ir::GlobalVar*>(op)));
            }
          }
        }
      }
    }
  }
  if (!live) {
    // Fixpoint cut short: points-to sets may under-approximate. Make every
    // partially-resolved pointer also point at the unknown object so
    // consumers fall back to their external/unresolved (unsafe) handling.
    for (auto& [v, objs] : points_to_) objs.insert(unknown_);
    for (auto& [obj, objs] : contents_) objs.insert(unknown_);
  }
  for (const auto& [v, objs] : points_to_) {
    legacy_results_.emplace(v, ObjSet(objs.begin(), objs.end()));
  }
  points_to_.clear();
  contents_.clear();
  SAFEFLOW_COUNT_N("alias.fixpoint_rounds", rounds);
}

}  // namespace safeflow::analysis

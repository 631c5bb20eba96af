#include "analysis/shm_propagation.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "support/metrics.h"

namespace safeflow::analysis {

namespace {
constexpr unsigned kWidenThreshold = 4;
}

bool ShmPtrInfo::merge(const ShmPtrInfo& other) {
  if (other.regions.empty()) return false;
  // Adopting facts into a previously-empty info copies the interval
  // verbatim; hulling with the default [0,0] would fabricate offset 0.
  if (regions.empty()) {
    const bool changed = *this != other;
    *this = other;
    return changed;
  }
  bool changed = false;
  for (int r : other.regions) {
    if (regions.insert(r).second) changed = true;
  }
  if (!other.offset_known && offset_known) {
    offset_known = false;
    changed = true;
  }
  if (offset_known && other.offset_known) {
    if (other.lo < lo) {
      lo = other.lo;
      changed = true;
    }
    if (other.hi > hi) {
      hi = other.hi;
      changed = true;
    }
  }
  return changed;
}

ShmPointerAnalysis::ShmPointerAnalysis(const ir::Module& module,
                                       const ShmRegionTable& regions,
                                       const ir::CallGraph& callgraph,
                                       support::AnalysisBudget* budget,
                                       PhaseMemoHooks memo)
    : module_(module),
      regions_(regions),
      callgraph_(callgraph),
      budget_(budget),
      memo_(memo),
      returns_(module.functions().size()) {}

ShmPtrInfo ShmPointerAnalysis::get(const ir::Value* v) const {
  auto it = facts_.find(v->id());
  return it == facts_.end() ? ShmPtrInfo{} : it->second;
}

void ShmPointerAnalysis::widen(ShmPtrInfo& info) const {
  info.offset_known = false;
  info.lo = 0;
  std::int64_t max_size = 0;
  for (int r : info.regions) {
    if (const ShmRegion* region = regions_.byId(r)) {
      max_size = std::max(max_size, region->size);
    }
  }
  info.hi = max_size;
}

bool ShmPointerAnalysis::update(const ir::Value* v,
                                const ShmPtrInfo& incoming) {
  if (incoming.empty()) return false;
  ShmPtrInfo& slot = facts_[v->id()];
  ShmPtrInfo merged = slot;
  if (!merged.merge(incoming)) return false;
  unsigned& count = update_counts_[v->id()];
  if (++count >= kWidenThreshold && merged.offset_known) widen(merged);
  slot = merged;
  return true;
}

void ShmPointerAnalysis::run() {
  const support::ScopedTimer timer("phase.shm_propagation");
  if (regions_.empty()) return;
  support::budgetBeginPhase(budget_, "shm_propagation");
  update_counts_.assign(module_.valueCount(), 0);
  support::MetricsRegistry::Counter* pushes =
      support::counterHandle("shm_propagation.worklist_pushes");

  std::deque<const ir::Function*> worklist;
  std::vector<bool> queued(module_.functions().size(), false);  // by index
  const auto enqueue = [&](const ir::Function* fn) {
    if (queued[fn->index()]) return;
    queued[fn->index()] = true;
    worklist.push_back(fn);
    if (pushes != nullptr) pushes->add();
  };
  // Seed bottom-up: callee-first order converges fastest.
  for (const auto& scc : callgraph_.sccsBottomUp()) {
    for (const ir::Function* fn : scc) {
      if (fn->isDefined() && !regions_.isInitFunction(fn)) enqueue(fn);
    }
  }

  while (!worklist.empty()) {
    if (!support::budgetStep(budget_)) break;
    const ir::Function* fn = worklist.front();
    worklist.pop_front();
    queued[fn->index()] = false;
    ++iterations_;
    bool ret_changed;
    {
      support::ScopedSpan span("shm_propagation.function");
      span.arg("fn", fn->name());
      ret_changed = memo_.enabled() ? memoizedAnalyze(*fn)
                                    : analyzeFunction(*fn);
    }
    if (ret_changed) {
      for (const ir::Function* caller : callgraph_.callers(fn)) {
        if (caller->isDefined() && !regions_.isInitFunction(caller)) {
          enqueue(caller);
        }
      }
    }
    // Argument updates performed inside analyzeFunction enqueue callees.
    for (const ir::Function* callee : callgraph_.callees(fn)) {
      if (!callee->isDefined() || regions_.isInitFunction(callee)) continue;
      // Re-run callees whose argument facts may have grown; analyzeFunction
      // is idempotent, so over-enqueueing is safe. Only enqueue if any arg
      // has facts (cheap filter).
      bool has_arg_fact = false;
      for (const auto& arg : callee->args()) {
        if (facts_.contains(arg->id())) {
          has_arg_fact = true;
          break;
        }
      }
      if (has_arg_fact) enqueue(callee);
    }
  }
  if (budget_ != nullptr && budget_->exhausted()) {
    // The fixpoint was cut short, so remaining facts may under-approximate
    // offsets. Widen every fact to "anywhere within its regions": coverage
    // checks then flag (rather than certify) every access the partial
    // analysis could not pin down.
    for (auto& [value, info] : facts_) widen(info);
    for (auto& info : returns_) {
      if (info) widen(*info);
    }
  }
  SAFEFLOW_COUNT_N("shm_propagation.iterations", iterations_);
  SAFEFLOW_COUNT_N("shm_propagation.values_tracked", facts_.size());
}

bool ShmPointerAnalysis::analyzeFunction(const ir::Function& fn) {
  bool any_change = true;
  bool ret_changed = false;
  // Iterate the straight-line transfer functions to a local fixpoint;
  // block order does not matter because facts only grow.
  while (any_change) {
    any_change = false;
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (!support::budgetStep(budget_)) return ret_changed;
        switch (inst->opcode()) {
          case ir::Opcode::kLoad: {
            // Loading the region's global pointer variable yields a pointer
            // to offset 0 of the region.
            const ir::Value* ptr = inst->operand(0);
            if (ptr->kind() == ir::Value::Kind::kGlobalVar) {
              const auto* g = static_cast<const ir::GlobalVar*>(ptr);
              if (const ShmRegion* region = regions_.byGlobal(g)) {
                ShmPtrInfo info;
                info.regions.insert(region->id);
                info.lo = info.hi = 0;
                any_change |= update(inst.get(), info);
                break;
              }
            }
            // Loading through an alloca that holds a shm pointer (not
            // promoted because its address escapes) propagates its fact.
            const ShmPtrInfo src = get(ptr);
            if (!src.empty() && inst->type()->isPointer()) {
              // The loaded value's provenance is unknown within the
              // region(s) the holder could reference.
              ShmPtrInfo info = src;
              any_change |= update(inst.get(), info);
            }
            break;
          }
          case ir::Opcode::kStore: {
            // Storing a shm pointer into a local slot (pre-promotion
            // pattern or escaped local): the slot's loads see the fact.
            const ShmPtrInfo src = get(inst->operand(0));
            if (!src.empty()) {
              const ir::Value* dst = inst->operand(1);
              if (dst->isInstruction() &&
                  static_cast<const ir::Instruction*>(dst)->opcode() ==
                      ir::Opcode::kAlloca) {
                any_change |= update(dst, src);
              }
            }
            break;
          }
          case ir::Opcode::kCast: {
            const ShmPtrInfo src = get(inst->operand(0));
            if (!src.empty()) any_change |= update(inst.get(), src);
            break;
          }
          case ir::Opcode::kPhi: {
            ShmPtrInfo merged;
            for (std::size_t i = 0; i < inst->numOperands(); ++i) {
              merged.merge(get(inst->operand(i)));
            }
            if (!merged.empty()) any_change |= update(inst.get(), merged);
            break;
          }
          case ir::Opcode::kFieldAddr: {
            ShmPtrInfo src = get(inst->operand(0));
            if (src.empty()) break;
            // Shift by the field offset; requires the pointee struct type.
            const ir::Value* base = inst->operand(0);
            const ir::Type* bt = base->type();
            std::int64_t field_off = 0;
            if (bt->isPointer()) {
              const ir::Type* pointee =
                  static_cast<const cfront::PointerType*>(bt)->pointee();
              if (pointee->isStruct()) {
                const auto* st =
                    static_cast<const cfront::StructType*>(pointee);
                if (inst->field_index < st->fields().size()) {
                  field_off = static_cast<std::int64_t>(
                      st->fields()[inst->field_index].offset);
                }
              }
            }
            if (src.offset_known) {
              src.lo += field_off;
              src.hi += field_off;
            }
            any_change |= update(inst.get(), src);
            break;
          }
          case ir::Opcode::kIndexAddr: {
            ShmPtrInfo src = get(inst->operand(0));
            if (src.empty()) break;
            std::int64_t elem_size = 8;
            if (inst->type()->isPointer()) {
              elem_size = static_cast<std::int64_t>(
                  static_cast<const cfront::PointerType*>(inst->type())
                      ->pointee()
                      ->size());
              if (elem_size == 0) elem_size = 1;
            }
            const ir::Value* idx = inst->operand(1);
            if (idx->kind() == ir::Value::Kind::kConstantInt &&
                src.offset_known) {
              const std::int64_t c =
                  static_cast<const ir::ConstantInt*>(idx)->value();
              src.lo += c * elem_size;
              src.hi += c * elem_size;
            } else {
              widen(src);
            }
            any_change |= update(inst.get(), src);
            break;
          }
          case ir::Opcode::kCall: {
            // Propagate shm-pointer arguments into callee parameters
            // (top-down) and callee return facts into this call's result
            // (bottom-up).
            const std::size_t first_arg =
                inst->direct_callee == nullptr ? 1 : 0;
            for (const ir::Function* target :
                 callgraph_.targets(*inst)) {
              if (target->isIntrinsic()) continue;
              if (!target->isDefined() ||
                  regions_.isInitFunction(target)) {
                continue;
              }
              for (std::size_t i = first_arg; i < inst->numOperands();
                   ++i) {
                const std::size_t param = i - first_arg;
                if (param >= target->args().size()) break;
                const ShmPtrInfo arg = get(inst->operand(i));
                if (!arg.empty()) {
                  update(target->args()[param].get(), arg);
                }
              }
              const auto& target_ret = returns_[target->index()];
              if (target_ret && !target_ret->empty()) {
                any_change |= update(inst.get(), *target_ret);
              }
            }
            break;
          }
          case ir::Opcode::kRet: {
            if (inst->numOperands() == 1) {
              const ShmPtrInfo v = get(inst->operand(0));
              if (!v.empty()) {
                auto& ret = returns_[fn.index()];
                if (!ret) ret.emplace();
                if (ret->merge(v)) {
                  ret_changed = true;
                  any_change = true;
                }
              }
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }
  return ret_changed;
}

namespace {

void hashShmInfo(support::Fnv1a& h, const ShmPtrInfo& info) {
  hashUint(h, info.regions.size());
  for (int r : info.regions) hashInt(h, r);
  hashInt(h, info.lo);
  hashInt(h, info.hi);
  hashUint(h, info.offset_known ? 1 : 0);
}

void writeShmInfo(BlobWriter& w, const ShmPtrInfo& info) {
  w.u64(info.regions.size());
  for (int r : info.regions) w.i64(r);
  w.i64(info.lo);
  w.i64(info.hi);
  w.u64(info.offset_known ? 1 : 0);
}

bool readShmInfo(BlobReader& r, ShmPtrInfo* info) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    info->regions.insert(static_cast<int>(r.i64()));
  }
  info->lo = r.i64();
  info->hi = r.i64();
  info->offset_known = r.u64() != 0;
  return r.ok();
}

std::string shmInfoStr(const ShmPtrInfo& info) {
  std::string s;
  for (int r : info.regions) s += std::to_string(r) + ",";
  s += "|" + std::to_string(info.lo) + "|" + std::to_string(info.hi) + "|" +
       (info.offset_known ? "1" : "0");
  return s;
}

/// True for call targets this phase actually propagates through.
bool shmRelevantTarget(const ir::Function* target,
                       const ShmRegionTable& regions) {
  return target->isDefined() && !target->isIntrinsic() &&
         !regions.isInitFunction(target);
}

}  // namespace

// The local solve is a deterministic transformer over: its own facts and
// update counts, its return info, its callees' formal facts/counts (it
// writes them) and return infos (it reads them). Digesting exactly that
// set makes a digest hit mean "the live solve would compute exactly the
// recorded post-state", so replaying it is exact memoization — not an
// approximation to be verified separately.
void ShmPointerAnalysis::digestInput(const ir::Function& fn,
                                     support::Fnv1a& h) const {
  hashToken(h, "shm-in");
  hashToken(h, fn.name());
  for (const auto& [id, info] : localEntries(facts_, fn)) {
    hashUint(h, id - fn.firstLocalId());
    hashShmInfo(h, info);
    hashUint(h, update_counts_[id]);
  }
  hashToken(h, "ret");
  const auto& ret = returns_[fn.index()];
  hashUint(h, ret ? 1 : 0);
  if (ret) hashShmInfo(h, *ret);
  hashToken(h, "calls");
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!shmRelevantTarget(target, regions_)) continue;
        hashToken(h, target->name());
        for (std::size_t p = 0; p < target->args().size(); ++p) {
          const std::uint32_t formal = target->args()[p]->id();
          const auto fit = facts_.find(formal);
          if (fit == facts_.end()) continue;
          hashUint(h, p);
          hashShmInfo(h, fit->second);
          hashUint(h, update_counts_[formal]);
        }
        const auto& target_ret = returns_[target->index()];
        hashUint(h, target_ret ? 1 : 0);
        if (target_ret) hashShmInfo(h, *target_ret);
      }
    }
  }
}

std::string ShmPointerAnalysis::captureRecord(const ir::Function& fn,
                                              bool identity,
                                              bool ret_changed) const {
  BlobWriter w;
  // Identity records (post-digest == pre-digest, i.e. the solve changed
  // nothing in the digested read/write set) let a hit skip the state
  // parse entirely; the driver signal is still stored separately because
  // it is what the replay must return. Note ret_changed alone is NOT an
  // identity test: a solve can grow facts without changing return info.
  w.u64(identity ? 1 : 0);
  w.u64(ret_changed ? 1 : 0);

  const auto own = localEntries(facts_, fn);
  w.u64(static_cast<std::uint64_t>(std::ranges::distance(own)));
  for (const auto& [id, info] : own) {
    w.u64(id - fn.firstLocalId());
    writeShmInfo(w, info);
    w.u64(update_counts_[id]);
  }

  const auto& ret = returns_[fn.index()];
  w.u64(ret ? 1 : 0);
  if (ret) writeShmInfo(w, *ret);

  // Callee formals this function's call sites may have written.
  std::set<std::pair<std::string, std::size_t>> seen;
  std::vector<std::tuple<std::string, std::size_t, std::uint32_t>> slots;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kCall) continue;
      for (const ir::Function* target : callgraph_.targets(*inst)) {
        if (!shmRelevantTarget(target, regions_)) continue;
        for (std::size_t p = 0; p < target->args().size(); ++p) {
          const std::uint32_t formal = target->args()[p]->id();
          if (facts_.count(formal) == 0) continue;
          if (!seen.insert({target->name(), p}).second) continue;
          slots.emplace_back(target->name(), p, formal);
        }
      }
    }
  }
  w.u64(slots.size());
  for (const auto& [name, p, formal] : slots) {
    w.str(name);
    w.u64(p);
    writeShmInfo(w, facts_.at(formal));
    w.u64(update_counts_[formal]);
  }
  return w.take();
}

bool ShmPointerAnalysis::applyRecord(const ir::Function& fn,
                                     const std::string& blob,
                                     bool* ret_changed) {
  BlobReader r(blob);

  // Parse everything into staging first: a malformed blob must not leave
  // partially-applied state behind (the caller falls back to a live run).
  r.u64();  // identity flag, already consumed by the caller's peek
  const bool rc = r.u64() != 0;
  std::vector<std::pair<std::uint32_t, std::pair<ShmPtrInfo, unsigned>>>
      staged;
  const std::uint64_t own = r.u64();
  for (std::uint64_t i = 0; i < own && r.ok(); ++i) {
    const std::uint64_t id = r.u64();
    ShmPtrInfo info;
    if (!readShmInfo(r, &info)) return false;
    const unsigned count = static_cast<unsigned>(r.u64());
    if (id >= fn.localCount()) return false;
    staged.push_back(
        {fn.firstLocalId() + static_cast<std::uint32_t>(id), {info, count}});
  }
  bool have_ret = false;
  ShmPtrInfo ret_info;
  if (r.u64() != 0) {
    have_ret = true;
    if (!readShmInfo(r, &ret_info)) return false;
  }
  const std::uint64_t nslots = r.u64();
  for (std::uint64_t i = 0; i < nslots && r.ok(); ++i) {
    const std::string name = r.str();
    const std::uint64_t p = r.u64();
    ShmPtrInfo info;
    if (!readShmInfo(r, &info)) return false;
    const unsigned count = static_cast<unsigned>(r.u64());
    const ir::Function* target = memo_.index->function(name);
    if (target == nullptr || p >= target->args().size()) return false;
    staged.push_back({target->args()[p]->id(), {info, count}});
  }
  if (!r.ok() || !r.atEnd()) return false;

  for (const auto& [id, rec] : staged) {
    facts_[id] = rec.first;
    update_counts_[id] = rec.second;
  }
  if (have_ret) returns_[fn.index()] = ret_info;
  *ret_changed = rc;
  return true;
}

bool ShmPointerAnalysis::memoizedAnalyze(const ir::Function& fn) {
  support::Fnv1a h;
  digestInput(fn, h);
  const std::uint64_t digest = h.digest();
  if (const std::string* blob = memo_.bank->find(fn, digest)) {
    // Identity records changed nothing, so only the recorded driver
    // signal is needed — skip the state parse. This makes the converged
    // tail of a warm fixpoint (every visit after the first) nearly free.
    BlobReader peek(*blob);
    const bool identity = peek.u64() != 0;
    const bool rc = peek.u64() != 0;
    if (peek.ok() && identity) return rc;
    bool ret_changed = false;
    if (applyRecord(fn, *blob, &ret_changed)) return ret_changed;
  }
  const bool ret_changed = analyzeFunction(fn);
  // Re-digesting after the solve detects identity transforms exactly:
  // the digest covers the full read set and the pre-state of the write
  // set, so an unchanged digest means an unchanged write set.
  support::Fnv1a post;
  digestInput(fn, post);
  const bool identity = post.digest() == digest;
  memo_.bank->record(fn, digest, captureRecord(fn, identity, ret_changed));
  return ret_changed;
}

std::uint64_t ShmPointerAnalysis::digestState(
    const ModuleIndex& index) const {
  std::map<std::string, std::string> items;
  for (const auto& [id, info] : facts_) {
    const auto [owner, pos] = index.locate(index.module().value(id));
    const std::string name =
        (owner != nullptr ? owner->name() : std::string("?")) + "#" +
        std::to_string(pos);
    items["v:" + name] = shmInfoStr(info);
  }
  for (const auto& fn : module_.functions()) {
    if (const auto& info = returns_[fn->index()]) {
      items["r:" + fn->name()] = shmInfoStr(*info);
    }
  }
  support::Fnv1a h;
  for (const auto& [k, v] : items) {
    hashToken(h, k);
    hashToken(h, v);
  }
  return h.digest();
}

const ShmPtrInfo* ShmPointerAnalysis::info(const ir::Value* v) const {
  auto it = facts_.find(v->id());
  return (it == facts_.end() || it->second.empty()) ? nullptr : &it->second;
}

std::vector<const ir::Value*> ShmPointerAnalysis::shmValuesIn(
    const ir::Function& fn) const {
  std::vector<const ir::Value*> out;
  for (const auto& arg : fn.args()) {
    if (info(arg.get()) != nullptr) out.push_back(arg.get());
  }
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (info(inst.get()) != nullptr) out.push_back(inst.get());
    }
  }
  return out;
}

}  // namespace safeflow::analysis

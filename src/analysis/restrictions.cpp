#include "analysis/restrictions.h"

#include <algorithm>

#include "analysis/affine.h"
#include "analysis/ranges.h"
#include "support/metrics.h"

namespace safeflow::analysis {

namespace {

bool isIntegerCast(const ir::Instruction& cast) {
  return cast.type()->isInteger();
}

/// True when `to` can legally view memory of pointer type `from` under the
/// paper's P3 rule.
bool castCompatible(const ir::Type* to, const ir::Type* from) {
  return cfront::typesCompatible(to, from);
}

/// Can `target` be reached from `from` without re-entering `avoid`?
bool reachableAvoiding(const ir::BasicBlock* from,
                       const ir::BasicBlock* target,
                       const ir::BasicBlock* avoid) {
  if (from == target) return true;
  std::vector<bool> seen(from->parent()->blocks().size(), false);
  seen[avoid->index()] = true;
  std::vector<const ir::BasicBlock*> stack{from};
  while (!stack.empty()) {
    const ir::BasicBlock* bb = stack.back();
    stack.pop_back();
    if (bb == target) return true;
    if (seen[bb->index()]) continue;
    seen[bb->index()] = true;
    for (const ir::BasicBlock* succ : bb->successors()) {
      if (!seen[succ->index()]) stack.push_back(succ);
    }
  }
  return false;
}

}  // namespace

RestrictionChecker::RestrictionChecker(const ir::Module& module,
                                       const ShmRegionTable& regions,
                                       const ShmPointerAnalysis& shm,
                                       RestrictionOptions options,
                                       support::AnalysisBudget* budget,
                                       const RangeAnalysis* ranges)
    : module_(module),
      regions_(regions),
      shm_(shm),
      options_(std::move(options)),
      budget_(budget),
      ranges_(ranges) {}

std::vector<RestrictionViolation> RestrictionChecker::run(
    support::DiagnosticEngine& diags) {
  const support::ScopedTimer timer("phase.restrictions");
  support::budgetBeginPhase(budget_, "restrictions");
  std::vector<RestrictionViolation> out;
  for (const auto& fn : module_.functions()) {
    if (!fn->isDefined()) continue;
    if (regions_.isInitFunction(fn.get())) continue;  // shminit is exempt
    // Out of budget: remaining functions go unchecked, so the run must
    // not certify — the driver flags the phase degraded and exits nonzero.
    if (!support::budgetStep(budget_)) break;
    SAFEFLOW_COUNT("restrictions.functions_checked");
    checkFunction(*fn, out);
  }
  for (const RestrictionViolation& v : out) {
    SAFEFLOW_COUNT("restrictions." + v.rule + ".violations");
    diags.warning(v.location, "restriction." + v.rule, v.message);
  }
  return out;
}

void RestrictionChecker::checkFunction(
    const ir::Function& fn, std::vector<RestrictionViolation>& out) {
  const bool is_main = fn.name() == "main";
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      switch (inst->opcode()) {
        case ir::Opcode::kCall: {
          // P1: deallocation of shared memory.
          if (inst->direct_callee == nullptr) break;
          const std::string& callee = inst->direct_callee->name();
          const bool is_dealloc =
              std::find(options_.dealloc_functions.begin(),
                        options_.dealloc_functions.end(),
                        callee) != options_.dealloc_functions.end();
          if (!is_dealloc) break;
          for (std::size_t i = 0; i < inst->numOperands(); ++i) {
            if (shm_.info(inst->operand(i)) == nullptr) continue;
            // In main, deallocation is permitted only in a returning
            // block (the "end of main").
            const bool at_main_exit =
                is_main && bb->terminator() != nullptr &&
                bb->terminator()->opcode() == ir::Opcode::kRet;
            if (at_main_exit) continue;
            out.push_back(RestrictionViolation{
                "P1", inst->location(),
                "shared memory passed to '" + callee +
                    "' before the end of main (rule P1)",
                &fn});
          }
          break;
        }
        case ir::Opcode::kStore: {
          // P2: a shm pointer stored anywhere but a declared shm pointer
          // global. (Stores into promoted scalars vanished in mem2reg; a
          // surviving store means the destination is memory.)
          const ShmPtrInfo* src = shm_.info(inst->operand(0));
          if (src == nullptr || !inst->operand(0)->type()->isPointer()) {
            break;
          }
          const ir::Value* dst = inst->operand(1);
          if (dst->kind() == ir::Value::Kind::kGlobalVar) {
            const auto* g = static_cast<const ir::GlobalVar*>(dst);
            if (regions_.byGlobal(g) != nullptr) break;  // canonical slot
          }
          out.push_back(RestrictionViolation{
              "P2", inst->location(),
              "pointer to shared memory stored into memory (rule P2: shm "
              "pointers must not be aliased through memory)",
              &fn});
          break;
        }
        case ir::Opcode::kCast: {
          const ShmPtrInfo* src = shm_.info(inst->operand(0));
          if (src == nullptr) break;
          if (isIntegerCast(*inst)) {
            out.push_back(RestrictionViolation{
                "P3", inst->location(),
                "pointer to shared memory cast to an integer (rule P3)",
                &fn});
            break;
          }
          if (inst->type()->isPointer() &&
              inst->operand(0)->type()->isPointer() &&
              !castCompatible(inst->type(), inst->operand(0)->type())) {
            out.push_back(RestrictionViolation{
                "P3", inst->location(),
                "pointer to shared memory cast to incompatible type " +
                    inst->type()->str() + " (rule P3)",
                &fn});
          }
          break;
        }
        case ir::Opcode::kIndexAddr:
          checkIndexAddr(fn, *inst, out);
          break;
        default:
          break;
      }
    }
  }
}

void RestrictionChecker::checkIndexAddr(
    const ir::Function& fn, const ir::Instruction& gep,
    std::vector<RestrictionViolation>& out) {
  const ShmPtrInfo* base = shm_.info(gep.operand(0));
  if (base == nullptr) return;
  SAFEFLOW_COUNT("restrictions.index_checks");
  std::int64_t elem_size = 1;
  if (gep.type()->isPointer()) {
    elem_size = static_cast<std::int64_t>(
        static_cast<const cfront::PointerType*>(gep.type())
            ->pointee()
            ->size());
    if (elem_size == 0) elem_size = 1;
  }

  for (int region_id : base->regions) {
    const ShmRegion* region = regions_.byId(region_id);
    if (region == nullptr || region->size == 0) continue;
    // The base pointer may already be displaced; indices count elements
    // from the base's lowest possible offset.
    const std::int64_t base_lo = base->offset_known ? base->lo : 0;
    const std::int64_t limit_bytes = region->size;

    const ir::Value* idx = gep.operand(1);
    const AffineIndex affine = decompose(idx);
    if (affine.valid && affine.terms.empty()) {
      // A1: constant index (after folding negation/arithmetic).
      const std::int64_t c = affine.constant;
      const std::int64_t start = base_lo + c * elem_size;
      if (start < 0 || start + elem_size > limit_bytes) {
        out.push_back(RestrictionViolation{
            "A1", gep.location(),
            "constant index " + std::to_string(c) +
                " exceeds shared array '" + region->name + "' of " +
                std::to_string(limit_bytes / elem_size) + " elements "
                "(rule A1)",
            &fn});
      }
      continue;
    }

    // A2: loop-variant index must be provably affine and in bounds.
    if (!affine.valid) {
      out.push_back(RestrictionViolation{
          "A2", gep.location(),
          "index into shared array '" + region->name +
              "' is not a provable affine expression (rule A2)",
          &fn});
      continue;
    }

    // Build the violation system: symbol bounds + (index out of range).
    LinearSystem sys;
    std::map<std::uint32_t, int> vars;  // by symbol id
    bool bounded = true;
    bool ranged = false;
    for (const auto& [sym, coeff] : affine.terms) {
      bool used_ranges = false;
      const SymbolBounds b =
          boundsFor(sym, fn, gep.parent(), &used_ranges);
      if (!b.valid) {
        bounded = false;
        break;
      }
      ranged |= used_ranges;
      if (used_ranges) SAFEFLOW_COUNT("ranges.bounds_seeded");
      const int var = sys.addVariable(sym->name());
      vars[sym->id()] = var;
      sys.addLowerBound(var, b.lo);
      sys.addUpperBound(var, b.hi);
    }
    if (!bounded) {
      out.push_back(RestrictionViolation{
          "A2", gep.location(),
          "index into shared array '" + region->name +
              "' depends on a value with no provable bounds (rule A2)",
          &fn});
      continue;
    }

    const std::int64_t count = limit_bytes / elem_size;
    const std::int64_t base_elems = base_lo / elem_size;
    // Violation 1: index + base < 0  =>  -(idx) - base - 1 >= 0.
    {
      LinearSystem low = sys;
      LinearConstraint c;
      for (const auto& [sym, coeff] : affine.terms) {
        c.coeffs[vars[sym->id()]] = -coeff;
      }
      c.constant = -affine.constant - base_elems - 1;
      low.add(std::move(c));
      SAFEFLOW_COUNT("restrictions.a2_solver_calls");
      if (low.isFeasible(budget_)) {
        out.push_back(RestrictionViolation{
            "A2", gep.location(),
            "index into shared array '" + region->name +
                "' may be negative (rule A2)",
            &fn});
        continue;
      }
    }
    // Violation 2: index + base >= count  =>  idx + base - count >= 0.
    {
      LinearSystem high = sys;
      LinearConstraint c;
      for (const auto& [sym, coeff] : affine.terms) {
        c.coeffs[vars[sym->id()]] = coeff;
      }
      c.constant = affine.constant + base_elems - count;
      high.add(std::move(c));
      SAFEFLOW_COUNT("restrictions.a2_solver_calls");
      if (high.isFeasible(budget_)) {
        out.push_back(RestrictionViolation{
            "A2", gep.location(),
            "index into shared array '" + region->name +
                "' may exceed its " + std::to_string(count) +
                " elements (rule A2)",
            &fn});
        continue;
      }
    }
    // Both violation systems infeasible. When range-derived bounds made
    // the difference this is an obligation the syntactic induction
    // pattern alone could not discharge.
    if (ranged) SAFEFLOW_COUNT("ranges.a2_discharged");
  }
}

RestrictionChecker::AffineIndex RestrictionChecker::decompose(
    const ir::Value* v, int depth) const {
  AffineIndex out;
  if (depth > 8) return out;
  if (v->kind() == ir::Value::Kind::kConstantInt) {
    out.valid = true;
    out.constant = static_cast<const ir::ConstantInt*>(v)->value();
    return out;
  }
  if (v->isInstruction()) {
    const auto* inst = static_cast<const ir::Instruction*>(v);
    switch (inst->opcode()) {
      case ir::Opcode::kCast:
        return decompose(inst->operand(0), depth + 1);
      case ir::Opcode::kBinOp: {
        const AffineIndex l = decompose(inst->operand(0), depth + 1);
        const AffineIndex r = decompose(inst->operand(1), depth + 1);
        if (!l.valid || !r.valid) break;
        if (inst->bin_op == ir::BinOp::kAdd ||
            inst->bin_op == ir::BinOp::kSub) {
          const std::int64_t sign =
              inst->bin_op == ir::BinOp::kAdd ? 1 : -1;
          out = l;
          out.constant += sign * r.constant;
          for (const auto& [sym, coeff] : r.terms) {
            out.terms.emplace_back(sym, sign * coeff);
          }
          return out;
        }
        if (inst->bin_op == ir::BinOp::kMul) {
          // One side must be a pure constant.
          const AffineIndex* konst =
              l.terms.empty() ? &l : (r.terms.empty() ? &r : nullptr);
          const AffineIndex* lin = (konst == &l) ? &r : &l;
          if (konst == nullptr) break;
          out.valid = true;
          out.constant = lin->constant * konst->constant;
          for (const auto& [sym, coeff] : lin->terms) {
            out.terms.emplace_back(sym, coeff * konst->constant);
          }
          return out;
        }
        break;
      }
      case ir::Opcode::kUnOp:
        if (inst->un_op == ir::UnOp::kNeg) {
          AffineIndex inner = decompose(inst->operand(0), depth + 1);
          if (!inner.valid) break;
          inner.constant = -inner.constant;
          for (auto& [sym, coeff] : inner.terms) coeff = -coeff;
          return inner;
        }
        break;
      case ir::Opcode::kPhi:
        // An induction variable: itself a symbol.
        out.valid = true;
        out.terms.emplace_back(v, 1);
        return out;
      default:
        break;
    }
    return AffineIndex{};
  }
  if (v->kind() == ir::Value::Kind::kArgument) {
    out.valid = true;
    out.terms.emplace_back(v, 1);
    return out;
  }
  return out;
}

RestrictionChecker::SymbolBounds RestrictionChecker::boundsFor(
    const ir::Value* sym, const ir::Function& fn,
    const ir::BasicBlock* use_block, bool* used_ranges) const {
  (void)fn;  // reserved for future per-function bound refinement
  bool bound_from_ranges = false;
  const SymbolBounds induction = [&]() -> SymbolBounds {
    SymbolBounds out;
    if (!sym->isInstruction()) return out;
    const auto* phi = static_cast<const ir::Instruction*>(sym);
    if (phi->opcode() != ir::Opcode::kPhi) return out;

    // Induction pattern: one incoming constant (init), one incoming
    // add/sub of the phi itself with a positive constant step.
    std::optional<std::int64_t> init;
    std::optional<std::int64_t> step;
    for (std::size_t i = 0; i < phi->numOperands(); ++i) {
      const ir::Value* in = phi->operand(i);
      if (in->kind() == ir::Value::Kind::kConstantInt) {
        init = static_cast<const ir::ConstantInt*>(in)->value();
        continue;
      }
      if (in->isInstruction()) {
        const auto* add = static_cast<const ir::Instruction*>(in);
        if (add->opcode() == ir::Opcode::kBinOp &&
            (add->bin_op == ir::BinOp::kAdd ||
             add->bin_op == ir::BinOp::kSub) &&
            add->numOperands() == 2 && add->operand(0) == phi &&
            add->operand(1)->kind() == ir::Value::Kind::kConstantInt) {
          std::int64_t s =
              static_cast<const ir::ConstantInt*>(add->operand(1))->value();
          if (add->bin_op == ir::BinOp::kSub) s = -s;
          step = s;
          continue;
        }
      }
      return out;  // unrecognized incoming edge
    }
    if (!init.has_value() || !step.has_value() || *step == 0) return out;

    // Find the loop-header comparison guarding the body: a CondBr in the
    // phi's block whose condition compares the phi against a constant —
    // or, with the range analysis available, against any value whose
    // interval is known at the header (`i < n` with n in [4, 12]).
    const ir::BasicBlock* header = phi->parent();
    const ir::Instruction* term = header->terminator();
    if (term == nullptr || term->opcode() != ir::Opcode::kCondBr) return out;
    const ir::Value* cond = term->operand(0);
    if (!cond->isInstruction()) return out;
    const auto* cmp = static_cast<const ir::Instruction*>(cond);
    if (cmp->opcode() != ir::Opcode::kCmp) return out;
    if (cmp->operand(0) != phi) return out;
    // The loop bound as an interval: a constant is the singleton case.
    std::optional<std::int64_t> bound_lo;
    std::optional<std::int64_t> bound_hi;
    if (cmp->operand(1)->kind() == ir::Value::Kind::kConstantInt) {
      const std::int64_t b =
          static_cast<const ir::ConstantInt*>(cmp->operand(1))->value();
      bound_lo = b;
      bound_hi = b;
    } else if (ranges_ != nullptr) {
      const Interval r = ranges_->rangeAt(cmp->operand(1), header);
      if (r.boundedBelow()) bound_lo = r.lo;
      if (r.boundedAbove()) bound_hi = r.hi;
      bound_from_ranges = true;
    } else {
      return out;
    }

    // The body is the successor from which the phi's increment flows back;
    // determine which CondBr edge enters the body (reaches the increment's
    // block without re-entering the header).
    const ir::Instruction* inc = nullptr;
    for (std::size_t i = 0; i < phi->numOperands(); ++i) {
      const ir::Value* in = phi->operand(i);
      if (in->isInstruction() &&
          static_cast<const ir::Instruction*>(in)->opcode() ==
              ir::Opcode::kBinOp) {
        inc = static_cast<const ir::Instruction*>(in);
      }
    }
    if (inc == nullptr) return out;
    const bool body_on_true = reachableAvoiding(term->block_refs[0],
                                                inc->parent(), header);
    ir::CmpOp op = cmp->cmp_op;
    if (!body_on_true) {
      // Invert the comparison when the loop body hangs off the false edge.
      switch (op) {
        case ir::CmpOp::kLt: op = ir::CmpOp::kGe; break;
        case ir::CmpOp::kLe: op = ir::CmpOp::kGt; break;
        case ir::CmpOp::kGt: op = ir::CmpOp::kLe; break;
        case ir::CmpOp::kGe: op = ir::CmpOp::kLt; break;
        case ir::CmpOp::kEq: op = ir::CmpOp::kNe; break;
        case ir::CmpOp::kNe: op = ir::CmpOp::kEq; break;
      }
    }

    if (*step > 0) {
      // Counting up: the comparison caps the index from above, so the
      // largest possible loop bound is what matters.
      if (!bound_hi.has_value()) return out;
      out.lo = *init;
      switch (op) {
        case ir::CmpOp::kLt: out.hi = *bound_hi - 1; break;
        case ir::CmpOp::kLe: out.hi = *bound_hi; break;
        case ir::CmpOp::kNe: out.hi = *bound_hi - 1; break;  // i != N, i += s
        default: return out;
      }
      out.valid = out.hi >= out.lo;
    } else {
      if (!bound_lo.has_value()) return out;
      out.hi = *init;
      switch (op) {
        case ir::CmpOp::kGt: out.lo = *bound_lo + 1; break;
        case ir::CmpOp::kGe: out.lo = *bound_lo; break;
        case ir::CmpOp::kNe: out.lo = *bound_lo + 1; break;
        default: return out;
      }
      out.valid = out.hi >= out.lo;
    }
    return out;
  }();
  if (induction.valid) {
    if (bound_from_ranges && used_ranges != nullptr) *used_ranges = true;
    return induction;
  }

  // Fallback: the symbol is not a recognizable induction variable (or its
  // loop bound is unknown), but the value-range analysis may still bound
  // it outright — e.g. an argument clamped by early returns, or a value
  // masked to a small range before use.
  SymbolBounds out;
  if (ranges_ != nullptr && use_block != nullptr) {
    const Interval r = ranges_->rangeAt(sym, use_block);
    if (r.boundedBelow() && r.boundedAbove()) {
      out.valid = true;
      out.lo = r.lo;
      out.hi = r.hi;
      if (used_ranges != nullptr) *used_ranges = true;
    }
  }
  return out;
}

}  // namespace safeflow::analysis

#include "ir/ssa.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "ir/dominators.h"
#include "support/metrics.h"

namespace safeflow::ir {

namespace {

/// An alloca is promotable when it holds a scalar and its address is used
/// only as the pointer operand of loads and stores.
bool isPromotable(const Instruction* alloca, const Function& fn) {
  if (alloca->allocated_type == nullptr ||
      !alloca->allocated_type->isScalar()) {
    return false;
  }
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        if (inst->operand(i) != alloca) continue;
        if (inst->opcode() == Opcode::kLoad && i == 0) continue;
        if (inst->opcode() == Opcode::kStore && i == 1) continue;
        return false;  // address escapes
      }
    }
  }
  return true;
}

struct Renamer {
  Function& fn;
  Module& module;
  const DominatorTree& domtree;
  // Per-alloca reaching definition stack entry is handled via a map of
  // current values snapshotted along the dom-tree walk.
  std::map<const Instruction*, std::size_t> alloca_index;
  std::map<const Instruction*, const Instruction*> phi_home;  // phi->alloca
  std::set<Instruction*> dead;
  SsaStats stats;

  void renameBlock(BasicBlock* bb, std::vector<Value*> current) {
    for (const auto& inst_ptr : bb->instructions()) {
      Instruction* inst = inst_ptr.get();
      if (inst->opcode() == Opcode::kPhi) {
        auto it = phi_home.find(inst);
        if (it != phi_home.end()) {
          current[alloca_index.at(it->second)] = inst;
        }
        continue;
      }
      if (inst->opcode() == Opcode::kLoad && inst->numOperands() == 1 &&
          inst->operand(0)->isInstruction()) {
        auto it = alloca_index.find(
            static_cast<const Instruction*>(inst->operand(0)));
        if (it != alloca_index.end()) {
          Value* reaching = current[it->second];
          if (reaching == nullptr) {
            reaching = module.undef(inst->type());
          }
          // Replace all uses of this load with the reaching definition.
          replaceEverywhere(inst, reaching);
          dead.insert(inst);
          ++stats.loads_removed;
          continue;
        }
      }
      if (inst->opcode() == Opcode::kStore && inst->numOperands() == 2 &&
          inst->operand(1)->isInstruction()) {
        auto it = alloca_index.find(
            static_cast<const Instruction*>(inst->operand(1)));
        if (it != alloca_index.end()) {
          current[it->second] = inst->operand(0);
          dead.insert(inst);
          ++stats.stores_removed;
          continue;
        }
      }
    }

    // Feed phi operands of successors.
    for (BasicBlock* succ : bb->successors()) {
      for (const auto& inst_ptr : succ->instructions()) {
        Instruction* inst = inst_ptr.get();
        if (inst->opcode() != Opcode::kPhi) break;  // phis lead the block
        auto it = phi_home.find(inst);
        if (it == phi_home.end()) continue;
        Value* v = current[alloca_index.at(it->second)];
        if (v == nullptr) v = module.undef(inst->type());
        inst->addOperand(v);
        inst->block_refs.push_back(bb);
      }
    }

    for (const BasicBlock* child : domtree.children(bb)) {
      renameBlock(const_cast<BasicBlock*>(child), current);
    }
  }

  void replaceEverywhere(Value* from, Value* to) {
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        inst->replaceUsesOf(from, to);
      }
    }
  }
};

/// Runs mem2reg on one function. Allocas remain for aggregates and for
/// locals whose address escapes (operand of anything but load/store-ptr).
SsaStats promoteToSsa(Function& fn, Module& module) {
  SsaStats stats;
  if (!fn.isDefined()) return stats;
  const DominatorTree domtree = DominatorTree::compute(fn);

  // Collect promotable allocas (they all live in the entry block).
  std::vector<Instruction*> allocas;
  for (const auto& inst : fn.entry()->instructions()) {
    if (inst->opcode() == Opcode::kAlloca && isPromotable(inst.get(), fn)) {
      allocas.push_back(inst.get());
    }
  }
  if (allocas.empty()) return stats;
  stats.promoted_allocas = allocas.size();

  // Phi insertion on iterated dominance frontiers of defining blocks.
  Renamer renamer{fn, module, domtree, {}, {}, {}, stats};
  for (std::size_t i = 0; i < allocas.size(); ++i) {
    renamer.alloca_index[allocas[i]] = i;
  }

  const std::size_t nblocks = fn.blocks().size();
  for (Instruction* alloca : allocas) {
    // Blocks containing a store to this alloca, by block index.
    std::vector<bool> def_blocks(nblocks, false);
    std::vector<BasicBlock*> work;
    for (const auto& bb : fn.blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() == Opcode::kStore && inst->numOperands() == 2 &&
            inst->operand(1) == alloca) {
          def_blocks[bb->index()] = true;
          work.push_back(bb.get());
          break;
        }
      }
    }
    std::vector<bool> has_phi(nblocks, false);
    while (!work.empty()) {
      BasicBlock* bb = work.back();
      work.pop_back();
      for (const BasicBlock* frontier : domtree.frontier(bb)) {
        if (has_phi[frontier->index()]) continue;
        has_phi[frontier->index()] = true;
        auto phi = std::make_unique<Instruction>(
            Opcode::kPhi, alloca->allocated_type, alloca->location());
        phi->setName(alloca->name() + ".phi");
        Instruction* phi_raw =
            const_cast<BasicBlock*>(frontier)->prepend(std::move(phi));
        renamer.phi_home[phi_raw] = alloca;
        ++renamer.stats.phis_inserted;
        if (!def_blocks[frontier->index()]) {
          work.push_back(const_cast<BasicBlock*>(frontier));
        }
      }
    }
  }

  // Rename along the dominator tree.
  renamer.renameBlock(fn.entry(),
                      std::vector<Value*>(allocas.size(), nullptr));

  // Blocks unreachable from the entry (error-recovery artifacts, code
  // after a return) are outside the dominator tree, so the walk above
  // never renamed them. Their accesses to promoted allocas must still be
  // rewritten — the allocas are about to be deleted, and a surviving use
  // would dangle. Unreachable code never executes, so undef is sound.
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst_ptr : bb->instructions()) {
      Instruction* inst = inst_ptr.get();
      if (renamer.dead.contains(inst)) continue;
      if (inst->opcode() == Opcode::kLoad && inst->numOperands() == 1 &&
          inst->operand(0)->isInstruction() &&
          renamer.alloca_index.contains(
              static_cast<const Instruction*>(inst->operand(0)))) {
        renamer.replaceEverywhere(inst, module.undef(inst->type()));
        renamer.dead.insert(inst);
        ++renamer.stats.loads_removed;
      } else if (inst->opcode() == Opcode::kStore &&
                 inst->numOperands() == 2 &&
                 inst->operand(1)->isInstruction() &&
                 renamer.alloca_index.contains(
                     static_cast<const Instruction*>(inst->operand(1)))) {
        renamer.dead.insert(inst);
        ++renamer.stats.stores_removed;
      }
    }
  }

  // Delete dead loads/stores and the promoted allocas.
  for (const auto& bb : fn.blocks()) {
    std::vector<Instruction*> to_erase;
    for (const auto& inst : bb->instructions()) {
      if (renamer.dead.contains(inst.get())) to_erase.push_back(inst.get());
    }
    for (Instruction* inst : to_erase) bb->erase(inst);
  }
  for (Instruction* alloca : allocas) fn.entry()->erase(alloca);

  return renamer.stats;
}

}  // namespace

SsaStats promoteModuleToSsa(Module& module) {
  const support::ScopedTimer timer("phase.ssa");
  SsaStats total;
  for (const auto& fn : module.functions()) {
    if (!fn->isDefined()) continue;
    const SsaStats s = promoteToSsa(*fn, module);
    total.promoted_allocas += s.promoted_allocas;
    total.phis_inserted += s.phis_inserted;
    total.loads_removed += s.loads_removed;
    total.stores_removed += s.stores_removed;
  }
  SAFEFLOW_COUNT_N("ssa.promoted_allocas", total.promoted_allocas);
  SAFEFLOW_COUNT_N("ssa.phis_inserted", total.phis_inserted);
  SAFEFLOW_COUNT_N("ssa.loads_removed", total.loads_removed);
  SAFEFLOW_COUNT_N("ssa.stores_removed", total.stores_removed);
  module.numberValues();
  return total;
}

std::string verifySsa(const Function& fn) {
  if (!fn.isDefined()) return {};
  const DominatorTree domtree = DominatorTree::compute(fn);

  // Map each instruction to its defining block and intra-block position.
  std::map<const Value*, std::pair<const BasicBlock*, std::size_t>> defs;
  for (const auto& bb : fn.blocks()) {
    for (std::size_t i = 0; i < bb->instructions().size(); ++i) {
      defs[bb->instructions()[i].get()] = {bb.get(), i};
    }
  }

  for (const auto& bb : fn.blocks()) {
    for (std::size_t i = 0; i < bb->instructions().size(); ++i) {
      const Instruction* inst = bb->instructions()[i].get();
      for (std::size_t oi = 0; oi < inst->numOperands(); ++oi) {
        const Value* op = inst->operand(oi);
        if (!op->isInstruction()) continue;
        auto it = defs.find(op);
        if (it == defs.end()) {
          return "operand of '" + inst->name() + "' in " + bb->label() +
                 " is not defined in this function";
        }
        const auto [def_bb, def_pos] = it->second;
        if (inst->opcode() == Opcode::kPhi) {
          // Phi operand must be defined in a block dominating the incoming
          // edge's source.
          if (oi < inst->block_refs.size()) {
            const BasicBlock* incoming = inst->block_refs[oi];
            if (!domtree.dominates(def_bb, incoming)) {
              return "phi operand does not dominate incoming edge in " +
                     bb->label();
            }
          }
          continue;
        }
        if (def_bb == bb.get()) {
          if (def_pos >= i) {
            return "use before def inside block " + bb->label();
          }
        } else if (!domtree.dominates(def_bb, bb.get())) {
          return "definition in " + def_bb->label() +
                 " does not dominate use in " + bb->label();
        }
      }
    }
  }
  return {};
}

}  // namespace safeflow::ir

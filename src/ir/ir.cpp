#include "ir/ir.h"

#include <algorithm>
#include <cassert>

namespace safeflow::ir {

void Instruction::replaceUsesOf(Value* from, Value* to) {
  for (Value*& op : operands_) {
    if (op == from) op = to;
  }
}

Instruction* BasicBlock::append(std::unique_ptr<Instruction> inst) {
  inst->setParent(this);
  insts_.push_back(std::move(inst));
  return insts_.back().get();
}

Instruction* BasicBlock::prepend(std::unique_ptr<Instruction> inst) {
  inst->setParent(this);
  insts_.insert(insts_.begin(), std::move(inst));
  return insts_.front().get();
}

void BasicBlock::erase(Instruction* inst) {
  const auto it = std::find_if(
      insts_.begin(), insts_.end(),
      [inst](const std::unique_ptr<Instruction>& p) { return p.get() == inst; });
  assert(it != insts_.end() && "erasing instruction from wrong block");
  insts_.erase(it);
}

Instruction* BasicBlock::terminator() const {
  if (insts_.empty()) return nullptr;
  Instruction* last = insts_.back().get();
  return last->isTerminator() ? last : nullptr;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  Instruction* term = terminator();
  if (term == nullptr) return {};
  return term->block_refs;
}

std::vector<BasicBlock*> BasicBlock::predecessors() const {
  std::vector<BasicBlock*> preds;
  for (const auto& bb : parent_->blocks()) {
    const std::vector<BasicBlock*> succs = bb->successors();
    if (std::find(succs.begin(), succs.end(), this) != succs.end()) {
      preds.push_back(bb.get());
    }
  }
  return preds;
}

Argument* Function::addArg(const Type* type, std::string name) {
  args_.push_back(std::make_unique<Argument>(
      type, std::move(name), this, static_cast<unsigned>(args_.size())));
  return args_.back().get();
}

BasicBlock* Function::createBlock(std::string label) {
  blocks_.push_back(std::make_unique<BasicBlock>(
      std::move(label), this, static_cast<std::uint32_t>(blocks_.size())));
  return blocks_.back().get();
}

Function* Module::getOrCreateFunction(const std::string& name,
                                      const cfront::FunctionType* type) {
  auto it = function_map_.find(name);
  if (it != function_map_.end()) return it->second;
  functions_.push_back(std::make_unique<Function>(
      name, type, this, static_cast<std::uint32_t>(functions_.size())));
  Function* f = functions_.back().get();
  function_map_[name] = f;
  return f;
}

Function* Module::findFunction(const std::string& name) const {
  auto it = function_map_.find(name);
  return it == function_map_.end() ? nullptr : it->second;
}

GlobalVar* Module::getOrCreateGlobal(const std::string& name,
                                     const Type* value_type,
                                     SourceLocation loc) {
  auto it = global_map_.find(name);
  if (it != global_map_.end()) return it->second;
  globals_.push_back(std::make_unique<GlobalVar>(
      name, value_type, types_.pointerTo(value_type), loc));
  GlobalVar* g = globals_.back().get();
  global_map_[name] = g;
  return g;
}

GlobalVar* Module::findGlobal(const std::string& name) const {
  auto it = global_map_.find(name);
  return it == global_map_.end() ? nullptr : it->second;
}

ConstantInt* Module::constantInt(std::int64_t value, const Type* type) {
  ConstantInt*& slot = int_constants_[std::make_pair(value, type)];
  if (slot == nullptr) {
    pool_.push_back(std::make_unique<ConstantInt>(value, type));
    slot = static_cast<ConstantInt*>(pool_.back().get());
  }
  return slot;
}

ConstantFloat* Module::constantFloat(double value, const Type* type) {
  pool_.push_back(std::make_unique<ConstantFloat>(value, type));
  return static_cast<ConstantFloat*>(pool_.back().get());
}

ConstantString* Module::constantString(std::string text) {
  pool_.push_back(std::make_unique<ConstantString>(
      std::move(text), types_.pointerTo(types_.charType())));
  return static_cast<ConstantString*>(pool_.back().get());
}

Undef* Module::undef(const Type* type) {
  Undef*& slot = undefs_[type];
  if (slot == nullptr) {
    pool_.push_back(std::make_unique<Undef>(type));
    slot = static_cast<Undef*>(pool_.back().get());
  }
  return slot;
}

void Module::numberValues() {
  values_.clear();
  const auto number = [this](Value* v) {
    v->id_ = static_cast<std::uint32_t>(values_.size());
    values_.push_back(v);
  };
  for (const auto& g : globals_) number(g.get());
  for (const auto& c : pool_) number(c.get());
  for (const auto& fn : functions_) {
    fn->first_local_id_ = static_cast<std::uint32_t>(values_.size());
    for (const auto& arg : fn->args()) number(arg.get());
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) number(inst.get());
    }
    fn->local_count_ =
        static_cast<std::uint32_t>(values_.size()) - fn->first_local_id_;
  }
}

}  // namespace safeflow::ir

//===- ir/Function.cpp - KIR function ----------------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "ir/Module.h"

#include <algorithm>
#include <cassert>

using namespace khaos;

Function::Function(PointerType *PtrToFnTy, std::string Name, Module *Parent)
    : Value(ValueKind::Function, PtrToFnTy, std::move(Name)),
      Parent(Parent) {
  FunctionType *FTy = getFunctionType();
  for (unsigned I = 0, E = FTy->getNumParams(); I != E; ++I)
    Args.emplace_back(
        new Argument(FTy->getParamType(I), "arg" + std::to_string(I), this,
                     I));
  Origins.push_back(getName());
}

BasicBlock *Function::addBlock(const std::string &Name) {
  auto *BB = new BasicBlock(Name);
  BB->setParent(this);
  Blocks.emplace_back(BB);
  return BB;
}

BasicBlock *Function::addBlockAfter(BasicBlock *After,
                                    const std::string &Name) {
  auto *BB = new BasicBlock(Name);
  BB->setParent(this);
  Blocks.emplace(Blocks.begin() + blockIndex(After) + 1, BB);
  return BB;
}

BasicBlock *Function::adoptBlock(std::unique_ptr<BasicBlock> BB) {
  BB->setParent(this);
  Blocks.emplace_back(std::move(BB));
  return Blocks.back().get();
}

std::unique_ptr<BasicBlock> Function::takeBlock(BasicBlock *BB) {
  size_t Idx = blockIndex(BB);
  std::unique_ptr<BasicBlock> Owned = std::move(Blocks[Idx]);
  Blocks.erase(Blocks.begin() + Idx);
  Owned->setParent(nullptr);
  return Owned;
}

void Function::eraseBlock(BasicBlock *BB) {
  takeBlock(BB); // Ownership drops here.
}

size_t Function::blockIndex(const BasicBlock *BB) const {
  for (size_t Idx = 0, E = Blocks.size(); Idx != E; ++Idx)
    if (Blocks[Idx].get() == BB)
      return Idx;
  assert(false && "block not in this function");
  return ~size_t(0);
}

void Function::moveBlockToEnd(BasicBlock *BB) {
  size_t Idx = blockIndex(BB);
  std::unique_ptr<BasicBlock> Owned = std::move(Blocks[Idx]);
  Blocks.erase(Blocks.begin() + Idx);
  Blocks.emplace_back(std::move(Owned));
}

size_t Function::instructionCount() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

void Function::addOrigin(const std::string &O) {
  if (std::find(Origins.begin(), Origins.end(), O) == Origins.end())
    Origins.push_back(O);
}

bool Function::hasAddressTaken() const {
  for (Instruction *U : users()) {
    const auto *CI = dyn_cast<CallInst>(U);
    if (!CI) {
      return true; // Used by a store, cast, select, ... => escapes.
    }
    // Callee slot is fine; appearing as an *argument* is an escape.
    for (unsigned I = 0, E = CI->getNumArgs(); I != E; ++I)
      if (CI->getArg(I) == this)
        return true;
  }
  return false;
}

//===- ir/BasicBlock.cpp - KIR basic block ----------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"

#include "ir/Function.h"

#include <algorithm>
#include <cassert>

using namespace khaos;

Instruction *BasicBlock::getTerminator() const {
  if (Insts.empty())
    return nullptr;
  Instruction *Last = Insts.back().get();
  return Last->isTerminator() ? Last : nullptr;
}

Instruction *BasicBlock::push(Instruction *I) {
  assert(!getTerminator() && "appending past the terminator");
  I->setParent(this);
  Insts.emplace_back(I);
  return I;
}

Instruction *BasicBlock::insertBefore(Instruction *Pos, Instruction *I) {
  return insertAt(indexOf(Pos), I);
}

Instruction *BasicBlock::insertAt(size_t Idx, Instruction *I) {
  assert(Idx <= Insts.size() && "insert index out of range");
  I->setParent(this);
  Insts.emplace(Insts.begin() + Idx, I);
  return I;
}

size_t BasicBlock::indexOf(const Instruction *I) const {
  for (size_t Idx = 0, E = Insts.size(); Idx != E; ++Idx)
    if (Insts[Idx].get() == I)
      return Idx;
  assert(false && "instruction not in this block");
  return ~size_t(0);
}

std::unique_ptr<Instruction> BasicBlock::take(Instruction *I) {
  size_t Idx = indexOf(I);
  std::unique_ptr<Instruction> Owned = std::move(Insts[Idx]);
  Insts.erase(Insts.begin() + Idx);
  Owned->setParent(nullptr);
  return Owned;
}

void BasicBlock::erase(Instruction *I) {
  assert(!I->hasUses() && "erasing instruction that still has users");
  take(I); // Ownership drops here, destroying I.
}

void BasicBlock::splice(BasicBlock &From) {
  assert(!getTerminator() && "splicing past the terminator");
  Insts.reserve(Insts.size() + From.Insts.size());
  for (auto &I : From.Insts) {
    I->setParent(this);
    Insts.push_back(std::move(I));
  }
  From.Insts.clear();
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  if (Instruction *T = getTerminator())
    return T->successors();
  return {};
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> Preds;
  assert(Parent && "block has no parent function");
  for (const auto &BB : Parent->blocks()) {
    Instruction *T = BB->getTerminator();
    if (!T)
      continue;
    for (BasicBlock *S : T->successors())
      if (S == this) {
        Preds.push_back(BB.get());
        break; // Count each predecessor once.
      }
  }
  return Preds;
}

BasicBlock *BasicBlock::splitBefore(Instruction *Pos,
                                    const std::string &NewName) {
  assert(Parent && "cannot split a detached block");
  BasicBlock *Tail = Parent->addBlockAfter(this, NewName);
  size_t SplitIdx = indexOf(Pos);
  for (size_t Idx = SplitIdx, E = Insts.size(); Idx != E; ++Idx) {
    Insts[Idx]->setParent(Tail);
    Tail->Insts.emplace_back(std::move(Insts[Idx]));
  }
  Insts.resize(SplitIdx);
  push(new BranchInst(Tail));
  return Tail;
}

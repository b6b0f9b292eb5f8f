//===- transform/DemoteValues.cpp - reg2mem-style demotion -----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transform/DemoteValues.h"

#include "ir/Module.h"

using namespace khaos;

bool khaos::demoteInstruction(Module &M, Function &F, Instruction *I) {
  (void)M;
  BasicBlock *Entry = F.getEntryBlock();
  BasicBlock *Home = I->getParent();
  BasicBlock *SpillBlock = Home;
  size_t SpillIdx = Home->indexOf(I) + 1;
  if (auto *IV = dyn_cast<InvokeInst>(I)) {
    // The result only exists on the normal path.
    BasicBlock *Normal = IV->getNormalDest();
    if (Normal->predecessors().size() != 1)
      return false;
    SpillBlock = Normal;
    SpillIdx = 0;
  } else if (I->isTerminator()) {
    return false; // No other value-producing terminators exist.
  }

  auto *Slot = new AllocaInst(I->getType(), I->getName() + ".demoted");
  Entry->insertAt(0, Slot);
  SpillBlock->insertAt(SpillIdx, new StoreInst(I, Slot));

  std::vector<Instruction *> Users(I->users().begin(), I->users().end());
  for (Instruction *U : Users) {
    if (U->getParent() == Home && !isa<InvokeInst>(I))
      continue; // Local uses keep the register.
    if (auto *SI = dyn_cast<StoreInst>(U))
      if (SI->getStoredValue() == I && SI->getPointer() == Slot)
        continue; // Our own spill store.
    auto *Reload = new LoadInst(Slot, I->getName() + ".reload");
    U->getParent()->insertBefore(U, Reload);
    for (unsigned OpIdx = 0, E = U->getNumOperands(); OpIdx != E; ++OpIdx)
      if (U->getOperand(OpIdx) == I)
        U->setOperand(OpIdx, Reload);
  }
  return true;
}

bool khaos::demoteCrossBlockValues(Module &M, Function &F) {
  BasicBlock *Entry = F.getEntryBlock();
  bool AllDemoted = true;

  std::vector<Instruction *> ToDemote;
  for (const auto &BB : F.blocks()) {
    if (BB.get() == Entry)
      continue; // Entry dominates everything; no demotion needed.
    for (const auto &I : BB->insts()) {
      if (!I->getType() || I->getType()->isVoid() || !I->hasUses())
        continue;
      for (const Instruction *U : I->users())
        if (U->getParent() != BB.get()) {
          ToDemote.push_back(I.get());
          break;
        }
    }
  }
  for (Instruction *I : ToDemote)
    AllDemoted &= demoteInstruction(M, F, I);
  return AllDemoted;
}

//===- transform/DCE.cpp - Dead code elimination --------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deletes side-effect-free instructions without users, unused allocas with
/// only stores, and (whole-module) unreferenced internal functions. The
/// last part is the LTO-style cleanup the paper's single-binary builds get
/// for free.
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "support/PtrIndex.h"
#include "transform/Pass.h"

#include <set>

using namespace khaos;

namespace {

class DCEPass : public Pass {
public:
  const char *getName() const override { return "dce"; }
  bool run(Module &M) override;

private:
  bool runOnFunction(Function &F);
  bool removeDeadFunctions(Module &M);
};

} // namespace

/// Each round sweeps every block once from the back, destroying in place
/// the instructions that are dead now or that the round doomed (the stores
/// of an alloca nothing reads), and closing the gaps once per block. The
/// two rules only ever remove uses, so neither undoes the other's
/// eligibility and the rounds reach the same fixpoint in any order;
/// removal keeps the order of every remaining use list.
bool DCEPass::runOnFunction(Function &F) {
  bool Any = false;
  PtrIndex<Instruction> Doomed;
  bool Changed = true;
  while (Changed) {
    // Allocas whose only uses are stores can vanish with their stores: the
    // stores go in this round's sweep, the alloca in the next one.
    Doomed.reset(0);
    for (const auto &BB : F.blocks())
      for (const auto &Owned : BB->insts()) {
        if (Owned->getOpcode() != Opcode::Alloca || !Owned->hasUses())
          continue;
        const Instruction *AI = Owned.get();
        bool OnlyStores = true;
        for (Instruction *U : AI->users()) {
          auto *SI = dyn_cast<StoreInst>(U);
          if (!SI || SI->getStoredValue() == AI) {
            OnlyStores = false;
            break;
          }
        }
        if (OnlyStores)
          for (Instruction *U : AI->users())
            Doomed.insert(U, 0);
      }

    // Dead stores into a dead alloca are the only side-effecting
    // instructions that go.
    Changed = false;
    for (const auto &BB : F.blocks())
      Changed |= BB->eraseIf([&Doomed](const Instruction *I) {
        if (I->hasUses() || I->isTerminator())
          return false;
        return !I->mayHaveSideEffects() ||
               Doomed.lookup(I) != PtrIndex<Instruction>::None;
      });
    Any |= Changed;
  }
  return Any;
}

bool DCEPass::removeDeadFunctions(Module &M) {
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Tagged function constants (global initializers, fusion-rewritten
    // operands) reference functions outside the use-list system; collect
    // them so they stay alive.
    std::set<const Function *> TaggedRefs;
    for (const auto &G : M.globals())
      for (const Constant *C : G->getInitializer())
        if (const auto *TF = dyn_cast<ConstantTaggedFunc>(C))
          TaggedRefs.insert(TF->getFunction());
    for (const auto &F : M.functions())
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->insts())
          for (const Value *Op : I->operands())
            if (const auto *TF = dyn_cast<ConstantTaggedFunc>(Op))
              TaggedRefs.insert(TF->getFunction());

    std::vector<Function *> Dead;
    for (const auto &F : M.functions()) {
      if (F->isDeclaration() || F->isExported() || F->hasUses())
        continue;
      if (F->getName() == "main" || TaggedRefs.count(F.get()))
        continue;
      Dead.push_back(F.get());
    }
    for (Function *F : Dead) {
      M.eraseFunction(F);
      Changed = true;
      Any = true;
    }
  }
  return Any;
}

bool DCEPass::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Changed |= runOnFunction(*F);
  Changed |= removeDeadFunctions(M);
  return Changed;
}

std::unique_ptr<Pass> khaos::createDCEPass() {
  return std::make_unique<DCEPass>();
}

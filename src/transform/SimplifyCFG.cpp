//===- transform/SimplifyCFG.cpp - CFG cleanup ----------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic CFG simplification: fold constant branches, delete unreachable
/// blocks, thread trivial forwarding blocks, merge single-pred/single-succ
/// chains. Runs to a fixed point per function.
///
/// Two pass flavours share the transforms: "simplifycfg" runs all of
/// them, "cfg-cleanup" runs only the shape-preserving subset (constant
/// folds + unreachable-block removal) for pipelines whose obfuscation
/// the threading/merging steps would undo — SplitBB's cuts are exactly
/// the single-pred/single-succ chains mergeChains exists to stitch.
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "transform/Pass.h"

#include <set>

using namespace khaos;

namespace {

bool foldConstantBranches(Function &F) {
  bool Changed = false;
  for (const auto &BB : F.blocks()) {
    Instruction *T = BB->getTerminator();
    auto *BR = dyn_cast_or_null<BranchInst>(T);
    if (!BR || !BR->isConditional())
      continue;
    auto *C = dyn_cast<ConstantInt>(BR->getCondition());
    if (!C)
      continue;
    BasicBlock *Dest = C->isZero() ? BR->getFalseDest() : BR->getTrueDest();
    // Append past the old terminator, then erase it.
    BB->insertAt(BB->size(), new BranchInst(Dest));
    BB->erase(BR);
    Changed = true;
  }
  return Changed;
}

bool removeUnreachable(Function &F) {
  std::set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!Reachable.insert(BB).second)
      continue;
    for (BasicBlock *S : BB->successors())
      Work.push_back(S);
  }
  std::vector<BasicBlock *> Dead;
  for (const auto &BB : F.blocks())
    if (!Reachable.count(BB.get()))
      Dead.push_back(BB.get());
  if (Dead.empty())
    return false;
  // Dead blocks may reference each other; freeing a value clears the
  // slots still using it, so they can go in any order.
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
  return true;
}

bool threadForwarders(Function &F) {
  bool Changed = false;
  for (const auto &BB : F.blocks()) {
    if (BB.get() == F.getEntryBlock() || BB->size() != 1)
      continue;
    auto *BR = dyn_cast<BranchInst>(BB->front());
    if (!BR || BR->isConditional())
      continue;
    BasicBlock *Target = BR->getSuccessor(0);
    if (Target == BB.get())
      continue; // Self loop.
    for (BasicBlock *P : BB->predecessors())
      P->getTerminator()->replaceSuccessor(BB.get(), Target);
    Changed = true; // Now unreachable; removed next round.
  }
  return Changed;
}

bool mergeChains(Function &F) {
  bool Changed = true, Any = false;
  while (Changed) {
    Changed = false;
    for (const auto &BBOwner : F.blocks()) {
      BasicBlock *BB = BBOwner.get();
      Instruction *T = BB->getTerminator();
      auto *BR = dyn_cast_or_null<BranchInst>(T);
      if (!BR || BR->isConditional())
        continue;
      BasicBlock *Succ = BR->getSuccessor(0);
      if (Succ == BB || Succ == F.getEntryBlock())
        continue;
      if (Succ->predecessors().size() != 1)
        continue;
      if (!Succ->empty() && isa<LandingPadInst>(Succ->front()))
        continue; // Must stay an invoke unwind target.
      // Merge Succ into BB.
      BB->erase(BR);
      while (!Succ->empty()) {
        Instruction *I = Succ->front();
        std::unique_ptr<Instruction> Owned = Succ->take(I);
        I->setParent(BB);
        // push() asserts on a terminator mid-block, so append manually via
        // insertAt at the end.
        BB->insertAt(BB->size(), Owned.release());
      }
      F.eraseBlock(Succ);
      Changed = true;
      Any = true;
      break; // Block list mutated; restart the scan.
    }
  }
  return Any;
}

class SimplifyCFGPass : public Pass {
public:
  const char *getName() const override { return "simplifycfg"; }
  bool run(Module &M) override;

private:
  bool runOnFunction(Function &F);
};

/// The shape-preserving subset: dead code still dies (the verifier's
/// dominance sets treat unreachable blocks as self-dominating islands
/// that poison every reachable successor), but no block is threaded
/// away or merged into its predecessor.
class CFGCleanupPass : public Pass {
public:
  const char *getName() const override { return "cfg-cleanup"; }
  bool run(Module &M) override;

private:
  bool runOnFunction(Function &F);
};

} // namespace

bool SimplifyCFGPass::runOnFunction(Function &F) {
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Changed |= foldConstantBranches(F);
    Changed |= threadForwarders(F);
    Changed |= removeUnreachable(F);
    Changed |= mergeChains(F);
    Any |= Changed;
  }
  return Any;
}

bool SimplifyCFGPass::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Changed |= runOnFunction(*F);
  return Changed;
}

bool CFGCleanupPass::runOnFunction(Function &F) {
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Changed |= foldConstantBranches(F);
    Changed |= removeUnreachable(F);
    Any |= Changed;
  }
  return Any;
}

bool CFGCleanupPass::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Changed |= runOnFunction(*F);
  return Changed;
}

std::unique_ptr<Pass> khaos::createSimplifyCFGPass() {
  return std::make_unique<SimplifyCFGPass>();
}

std::unique_ptr<Pass> khaos::createCFGCleanupPass() {
  return std::make_unique<CFGCleanupPass>();
}

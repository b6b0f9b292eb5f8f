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
#include "support/PtrIndex.h"
#include "transform/Pass.h"

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

/// Dense numbering of a function's blocks in layout order.
PtrIndex<BasicBlock> numberBlocks(const Function &F) {
  PtrIndex<BasicBlock> Num;
  Num.reset(F.blocks().size());
  for (size_t B = 0, E = F.blocks().size(); B != E; ++B)
    Num.insert(F.blocks()[B].get(), B);
  return Num;
}

bool removeUnreachable(Function &F) {
  PtrIndex<BasicBlock> Num = numberBlocks(F);
  std::vector<char> Reachable(F.blocks().size(), 0);
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    char &Mark = Reachable[Num.lookup(BB)];
    if (Mark)
      continue;
    Mark = 1;
    if (Instruction *T = BB->getTerminator())
      for (BasicBlock *S : T->successors())
        Work.push_back(S);
  }
  std::vector<BasicBlock *> Dead;
  for (size_t B = 0, E = F.blocks().size(); B != E; ++B)
    if (!Reachable[B])
      Dead.push_back(F.blocks()[B].get());
  if (Dead.empty())
    return false;
  // Dead blocks may reference each other; freeing a value clears the
  // slots still using it, so they can go in any order.
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
  return true;
}

bool threadForwarders(Function &F) {
  // The source block of every edge into each block, kept exact as edges
  // move: only this loop moves them.
  PtrIndex<BasicBlock> Num = numberBlocks(F);
  std::vector<std::vector<BasicBlock *>> Preds(F.blocks().size());
  for (const auto &BB : F.blocks())
    if (Instruction *T = BB->getTerminator())
      for (BasicBlock *S : T->successors())
        Preds[Num.lookup(S)].push_back(BB.get());

  bool Changed = false;
  for (size_t B = 0, E = F.blocks().size(); B != E; ++B) {
    BasicBlock *BB = F.blocks()[B].get();
    if (BB == F.getEntryBlock() || BB->size() != 1)
      continue;
    auto *BR = dyn_cast<BranchInst>(BB->front());
    if (!BR || BR->isConditional())
      continue;
    BasicBlock *Target = BR->getSuccessor(0);
    if (Target == BB)
      continue; // Self loop.
    std::vector<BasicBlock *> &TargetPreds = Preds[Num.lookup(Target)];
    for (BasicBlock *P : Preds[B]) {
      P->getTerminator()->replaceSuccessor(BB, Target);
      TargetPreds.push_back(P);
    }
    Preds[B].clear();
    Changed = true; // Now unreachable; removed next round.
  }
  return Changed;
}

bool mergeChains(Function &F) {
  // Edges into each block. Succ merges only when its one edge comes from
  // an unconditional branch, so counting edges decides as counting unique
  // predecessors would. Merging Succ into BB hands Succ's outgoing edges
  // to BB, whose one edge went to Succ, so no remaining block's count
  // changes and the counts stay exact for the whole call.
  PtrIndex<BasicBlock> Num = numberBlocks(F);
  const size_t NB = F.blocks().size();
  std::vector<unsigned> NumEdges(NB, 0);
  for (const auto &BB : F.blocks())
    if (Instruction *T = BB->getTerminator())
      for (BasicBlock *S : T->successors())
        ++NumEdges[Num.lookup(S)];

  // A merge changes no other block's eligibility, so after one the scan
  // stays at BB, which may now merge with its new successor. Merged blocks
  // stay in the list, empty, until the scan ends.
  std::vector<BasicBlock *> Merged;
  for (size_t B = 0; B != NB;) {
    BasicBlock *BB = F.blocks()[B].get();
    auto *BR = dyn_cast_or_null<BranchInst>(BB->getTerminator());
    BasicBlock *Succ = BR && !BR->isConditional() ? BR->getSuccessor(0)
                                                  : nullptr;
    if (!Succ || Succ == BB || Succ == F.getEntryBlock() ||
        NumEdges[Num.lookup(Succ)] != 1 ||
        // Landing pads must stay invoke unwind targets.
        (!Succ->empty() && isa<LandingPadInst>(Succ->front()))) {
      ++B;
      continue;
    }
    BB->erase(BR);
    BB->splice(*Succ);
    Merged.push_back(Succ);
  }
  for (BasicBlock *Succ : Merged)
    F.eraseBlock(Succ);
  return !Merged.empty();
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

//===- obfuscation/BogusControlFlow.cpp - Bogus control flow --------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// O-LLVM-style bogus control flow. Each chosen block B is split into
/// Head -> Tail. Head ends with an opaque predicate on two globals
/// (x*(x+1) is always even, so "x*(x+1) % 2 == 0 || y < 10" is always
/// true); the true edge goes to Tail, the false edge to a scrambled clone
/// of Tail that is never executed but confuses static features.
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

using namespace khaos;

namespace {

/// Gets (or creates) the opaque-state globals used by the predicates.
GlobalVariable *getOpaqueGlobal(Module &M, const char *Name) {
  if (GlobalVariable *GV = M.getGlobal(Name))
    return GV;
  return M.createGlobal(Name, M.getContext().getInt32Type());
}

/// Builds a clone of \p Tail whose arithmetic is scrambled. The clone
/// ends with a branch back to \p Tail so the CFG stays plausible.
BasicBlock *buildBogusClone(Module & /*M*/, Function &F, BasicBlock *Tail,
                            RNG &Rng) {
  BasicBlock *Bogus = F.addBlockAfter(Tail, Tail->getName() + ".bogus");
  std::map<const Value *, Value *> Local;
  // An instruction is clonable only when its operands are available in the
  // bogus block: defined outside Tail, or themselves cloned (otherwise the
  // clone would use a value that does not dominate it).
  auto OperandsAvailable = [&](const Instruction *I) {
    for (const Value *Op : I->operands()) {
      const auto *OI = dyn_cast<Instruction>(Op);
      if (OI && OI->getParent() == Tail && !Local.count(OI))
        return false;
    }
    return true;
  };
  for (const auto &I : Tail->insts()) {
    if (I->isTerminator() || isa<AllocaInst>(I.get()))
      continue;
    if (!OperandsAvailable(I.get()))
      continue;
    // Calls and stores in the bogus block would look odd but must not
    // fire even speculatively in static analyzers; clone only pure
    // instructions and loads, scrambling binop kinds.
    switch (I->getOpcode()) {
    case Opcode::BinOp: {
      auto *B = cast<BinaryInst>(I.get());
      if (B->isFloatOp()) {
        break;
      } else {
        BinOp Alt[] = {BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Or,
                       BinOp::And};
        auto *Clone =
            new BinaryInst(Alt[Rng.nextBelow(5)],
                           Local.count(B->getLHS()) ? Local[B->getLHS()]
                                                    : B->getLHS(),
                           Local.count(B->getRHS()) ? Local[B->getRHS()]
                                                    : B->getRHS());
        Bogus->push(Clone);
        Local[I.get()] = Clone;
      }
      break;
    }
    case Opcode::Load: {
      auto *L = cast<LoadInst>(I.get());
      Value *Ptr = Local.count(L->getPointer()) ? Local[L->getPointer()]
                                                : L->getPointer();
      auto *Clone = new LoadInst(Ptr);
      Bogus->push(Clone);
      Local[I.get()] = Clone;
      break;
    }
    default:
      break;
    }
  }
  Bogus->push(new BranchInst(Tail));
  return Bogus;
}

} // namespace

unsigned khaos::runBogusControlFlow(Module &M, const OLLVMOptions &Opts,
                                    PassReport *Report) {
  RNG Rng(Opts.Seed);
  Context &Ctx = M.getContext();
  GlobalVariable *X = getOpaqueGlobal(M, "__khaos_opaque_x");
  GlobalVariable *Y = getOpaqueGlobal(M, "__khaos_opaque_y");
  unsigned Count = 0;

  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isNoObfuscate())
      continue;
    // Snapshot the block list (we add blocks).
    std::vector<BasicBlock *> Blocks;
    for (const auto &BB : F->blocks())
      Blocks.push_back(BB.get());

    for (BasicBlock *BB : Blocks) {
      // O-LLVM's -bcf_prob: even at "100%" only ~30% of the blocks of a
      // selected function receive a bogus twin.
      if (!Rng.nextBool(Opts.Ratio * 0.3))
        continue;
      if (BB->size() < 3)
        continue;
      if (isa<LandingPadInst>(BB->front()))
        continue; // Unwind targets must keep their shape.
      // Split roughly in the middle; never split before an alloca chain.
      size_t SplitIdx = BB->size() / 2;
      while (SplitIdx + 1 < BB->size() &&
             isa<AllocaInst>(BB->getInst(SplitIdx)))
        ++SplitIdx;
      Instruction *SplitPoint = BB->getInst(SplitIdx);
      if (SplitPoint->isTerminator())
        continue;
      BasicBlock *Tail =
          BB->splitBefore(SplitPoint, BB->getName() + ".tail");

      // Opaque predicate: (x*(x+1)) % 2 == 0 || y < 10  — always true.
      IRBuilder B(M);
      Instruction *HeadBr = BB->getTerminator();
      B.setInsertBefore(HeadBr);
      Value *XV = B.createLoad(X);
      Value *X1 = B.createBinOp(BinOp::Add, XV, M.getInt32(1));
      Value *Prod = B.createBinOp(BinOp::Mul, XV, X1);
      Value *Rem = B.createBinOp(BinOp::And, Prod, M.getInt32(1));
      Value *EvenCheck = B.createCmp(CmpPred::EQ, Rem, M.getInt32(0));
      Value *YV = B.createLoad(Y);
      Value *YCheck = B.createCmp(CmpPred::SLT, YV, M.getInt32(10));
      Value *Opaque = B.createBinOp(BinOp::Or,
                                    B.createConvert(EvenCheck,
                                                    Ctx.getInt1Type()),
                                    B.createConvert(YCheck,
                                                    Ctx.getInt1Type()));

      BasicBlock *Bogus = buildBogusClone(M, *F, Tail, Rng);
      BB->insertAt(BB->size(), new BranchInst(Opaque, Tail, Bogus));
      BB->erase(HeadBr);
      ++Count;
    }
  }
  if (Report) {
    // Each bogus twin = one split tail + one clone.
    Report->BlocksSplit += Count;
    Report->BlocksInserted += Count * 2;
  }
  return Count;
}

//===- tests/IRCoreTest.cpp - IR data structure unit tests -------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests for the KIR core: type interning, use-lists, RAUW,
/// block surgery, cloning, the verifier's negative cases, its dominance
/// semantics (pinned against a set-based reference) and VM edge behaviour
/// that the higher-level suites rely on implicitly.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "obfuscation/KhaosDriver.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "transform/Cloning.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"
#include "workloads/SyntheticProgram.h"

#include "UseListCheck.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

using namespace khaos;

namespace {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(IRTypes, PrimitivesAreInterned) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Type(), Ctx.getInt32Type());
  EXPECT_NE(Ctx.getInt32Type(), Ctx.getInt64Type());
}

TEST(IRTypes, PointerAndArrayInterning) {
  Context Ctx;
  Type *I32 = Ctx.getInt32Type();
  EXPECT_EQ(Ctx.getPointerType(I32), I32->getPointerTo());
  EXPECT_EQ(Ctx.getArrayType(I32, 8), Ctx.getArrayType(I32, 8));
  EXPECT_NE(Ctx.getArrayType(I32, 8), Ctx.getArrayType(I32, 9));
}

TEST(IRTypes, StoreSizes) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt8Type()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.getInt32Type()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.getDoubleType()->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getPointerType(Ctx.getInt8Type())->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getArrayType(Ctx.getInt32Type(), 10)->getStoreSize(), 40u);
}

TEST(IRTypes, CompatibilityMatchesPaperRules) {
  Context Ctx;
  // Integers compress to the wider; floats likewise; pointers always.
  EXPECT_TRUE(Ctx.getInt8Type()->isCompatibleWith(Ctx.getInt64Type()));
  EXPECT_TRUE(Ctx.getFloatType()->isCompatibleWith(Ctx.getDoubleType()));
  EXPECT_FALSE(Ctx.getInt32Type()->isCompatibleWith(Ctx.getFloatType()));
  EXPECT_EQ(Type::getCompressedType(Ctx.getInt8Type(), Ctx.getInt64Type()),
            Ctx.getInt64Type());
  EXPECT_EQ(
      Type::getCompressedType(Ctx.getDoubleType(), Ctx.getFloatType()),
      Ctx.getDoubleType());
}

TEST(IRTypes, NamesRender) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Type()->getName(), "i32");
  EXPECT_EQ(Ctx.getPointerType(Ctx.getFloatType())->getName(), "f32*");
  EXPECT_EQ(Ctx.getArrayType(Ctx.getInt8Type(), 3)->getName(), "[3 x i8]");
}

//===----------------------------------------------------------------------===//
// Values / use lists
//===----------------------------------------------------------------------===//

struct IRFixture {
  Context Ctx;
  Module M{Ctx, "unit"};
  Function *F = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B{M};

  IRFixture() {
    FunctionType *FTy =
        Ctx.getFunctionType(Ctx.getInt32Type(), {Ctx.getInt32Type()});
    F = M.createFunction("f", FTy);
    Entry = F->addBlock("entry");
    B.setInsertPoint(Entry);
  }
};

TEST(IRValues, UseListsTrackOperands) {
  IRFixture X;
  Value *Arg = X.F->getArg(0);
  auto *Add = X.B.createAdd(Arg, X.M.getInt32(1));
  EXPECT_EQ(Arg->getNumUses(), 1u);
  auto *Mul = X.B.createMul(Add, Add);
  EXPECT_EQ(Add->getNumUses(), 2u); // Both operand slots count.
  X.B.createRet(Mul);
  EXPECT_EQ(Mul->getNumUses(), 1u);
  EXPECT_TRUE(useListsIntact(X.M));
}

std::vector<Instruction *> usersOf(const Value *V) {
  return {V->users().begin(), V->users().end()};
}

TEST(IRValues, RAUWRewritesAllSlots) {
  IRFixture X;
  Value *Arg = X.F->getArg(0);
  ConstantInt *C = X.M.getInt32(7);
  auto *Before = X.B.createAdd(C, X.M.getInt32(1));
  auto *Add = X.B.createAdd(Arg, Arg);
  auto *Sub = X.B.createSub(Add, Arg);
  Arg->replaceAllUsesWith(C);
  EXPECT_EQ(Arg->getNumUses(), 0u);
  EXPECT_EQ(Add->getOperand(0), C);
  EXPECT_EQ(Add->getOperand(1), C);
  // Rewritten slots join the back of C's list, user by user.
  EXPECT_EQ(usersOf(C), (std::vector<Instruction *>{Before, Add, Add, Sub}));
  EXPECT_TRUE(useListsIntact(X.M));
}

TEST(IRValues, SetOperandOnSecondDuplicateSlot) {
  IRFixture X;
  Value *Arg = X.F->getArg(0);
  auto *First = X.B.createAdd(Arg, X.M.getInt32(1));
  auto *Dup = X.B.createMul(Arg, Arg);
  auto *Last = X.B.createSub(Arg, X.M.getInt32(2));
  Dup->setOperand(1, X.M.getInt32(3));
  EXPECT_EQ(Dup->getOperand(0), Arg);
  EXPECT_EQ(Arg->getNumUses(), 3u);
  EXPECT_EQ(usersOf(Arg), (std::vector<Instruction *>{First, Dup, Last}));
  // The slot left is slot 0, so that is the record still on Arg's list.
  EXPECT_EQ(&Dup->getOperandUse(0), Arg->firstUse()->getNext());
  EXPECT_TRUE(useListsIntact(X.M));
  // Pointing the slot back appends it at the tail.
  Dup->setOperand(1, Arg);
  EXPECT_EQ(usersOf(Arg), (std::vector<Instruction *>{First, Dup, Last, Dup}));
  EXPECT_TRUE(useListsIntact(X.M));
}

TEST(IRValues, ConstantsAreInterned) {
  IRFixture X;
  EXPECT_EQ(X.M.getInt32(42), X.M.getInt32(42));
  EXPECT_NE(X.M.getInt32(42), X.M.getInt64(42));
  // Width normalization: (i8)300 == (i8)44.
  EXPECT_EQ(X.M.getInt8(300), X.M.getInt8(44));
}

TEST(IRValues, EraseRequiresNoUsers) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Dead = X.B.createAdd(Add, X.M.getInt32(2));
  EXPECT_TRUE(Add->hasUses());
  Dead->eraseFromParent(); // Dead has no users: fine.
  EXPECT_FALSE(Add->hasUses());
  EXPECT_TRUE(useListsIntact(X.M));
}

/// Freeing IR never requires dropping references first: a value freed
/// before its users clears their slots, and a user freed before its
/// operands unlinks itself.
TEST(IRValues, TeardownInAnyOrder) {
  IRFixture X;
  BasicBlock *Next = X.F->addBlock("next");
  auto *A = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createBr(Next);
  X.B.setInsertPoint(Next);
  auto *Dup = X.B.createMul(A, A);
  auto *Keep = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createRet(X.B.createAdd(Dup, Keep));

  // Def before its users: the entry block dies while Dup still uses A.
  X.F->takeBlock(X.F->getEntryBlock()).reset();
  EXPECT_EQ(Dup->getOperand(0), nullptr);
  EXPECT_EQ(Dup->getOperand(1), nullptr);
  EXPECT_EQ(X.F->getArg(0)->getNumUses(), 1u);
  EXPECT_EQ(X.M.getInt32(1)->getNumUses(), 1u);
  EXPECT_TRUE(useListsIntact(X.M));

  // User before its operands: Keep dies while it still uses arg0.
  std::unique_ptr<Instruction> Owned = Next->take(Keep);
  Owned.reset();
  EXPECT_FALSE(X.F->getArg(0)->hasUses());
  EXPECT_TRUE(useListsIntact(X.M));

  // A whole function dies while another still calls it, then the module
  // frees its constants before its functions.
  FunctionType *GTy = X.Ctx.getFunctionType(X.Ctx.getInt32Type(), {});
  Function *G = X.M.createFunction("g", GTy);
  X.B.setInsertPoint(G->addBlock("entry"));
  auto *Call = X.B.createCall(X.F, {X.M.getInt32(4)});
  X.B.createRet(Call);
  std::unique_ptr<BasicBlock> Body = X.F->takeBlock(Next);
  Body.reset();
  EXPECT_TRUE(useListsIntact(X.M));
  EXPECT_EQ(X.F->getNumUses(), 1u);
}

//===----------------------------------------------------------------------===//
// Block surgery
//===----------------------------------------------------------------------===//

TEST(IRBlocks, SplitBeforeMovesTail) {
  IRFixture X;
  auto *A = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Bv = X.B.createAdd(A, X.M.getInt32(2));
  X.B.createRet(Bv);
  BasicBlock *Tail = X.Entry->splitBefore(Bv, "tail");
  EXPECT_EQ(X.Entry->size(), 2u); // A + br.
  EXPECT_EQ(Tail->size(), 2u);    // Bv + ret.
  EXPECT_EQ(X.Entry->getTerminator()->getSuccessor(0), Tail);
  EXPECT_TRUE(verifyModule(X.M).empty());
}

TEST(IRBlocks, PredecessorsComputed) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(X.M.getInt32(0));
  EXPECT_EQ(J->predecessors().size(), 2u);
  EXPECT_EQ(T->predecessors().size(), 1u);
  EXPECT_TRUE(X.Entry->predecessors().empty());
}

TEST(IRBlocks, CloneFunctionBlocksRemaps) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(5));
  X.B.createRet(Add);

  FunctionType *GTy =
      X.Ctx.getFunctionType(X.Ctx.getInt32Type(), {X.Ctx.getInt32Type()});
  Function *G = X.M.createFunction("g", GTy);
  std::vector<BasicBlock *> Cloned =
      cloneFunctionBlocks(*X.F, *G, {G->getArg(0)});
  ASSERT_EQ(Cloned.size(), 1u);
  EXPECT_EQ(Cloned[0]->getName(), "entry.i");
  // The cloned add must reference G's argument, not F's.
  const Instruction *ClonedAdd = Cloned[0]->getInst(0);
  EXPECT_EQ(ClonedAdd->getOperand(0), G->getArg(0));
  EXPECT_EQ(ClonedAdd->getOperand(1), X.M.getInt32(5));
  EXPECT_EQ(Cloned[0]->getInst(1)->getOperand(0), ClonedAdd);
  EXPECT_TRUE(verifyModule(X.M).empty());
  EXPECT_TRUE(useListsIntact(X.M));
}

/// cloneModule only reads its source, so threads may clone one shared
/// module at once with no lock (the evaluation pipeline does this for
/// every FuFi cell of a workload). CI runs this suite under TSan.
TEST(IRCloning, ConcurrentClonesOfOneModule) {
  ProgramSpec S;
  S.Name = "shared";
  S.NumFunctions = 12;
  S.Seed = 41;
  S.UseExceptions = true;
  Context Ctx;
  std::string Err;
  std::unique_ptr<Module> M =
      compileMiniC(generateMiniCProgram(S), Ctx, S.Name, Err);
  ASSERT_TRUE(M) << Err;
  optimizeModule(*M, OptLevel::O2);
  runFissionPhase(*M);
  const Module &Shared = *M;
  const std::string Expected = printModule(Shared);

  constexpr unsigned Threads = 4, Rounds = 3;
  std::vector<std::string> Printed(Threads * Rounds);
  std::vector<char> Intact(Threads * Rounds, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R != Rounds; ++R) {
        std::unique_ptr<Module> C = cloneModule(Shared);
        Printed[T * Rounds + R] = printModule(*C);
        Intact[T * Rounds + R] = bool(useListsIntact(*C));
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned I = 0; I != Threads * Rounds; ++I) {
    EXPECT_EQ(Printed[I], Expected) << "clone " << I;
    EXPECT_TRUE(Intact[I]) << "clone " << I;
  }
  EXPECT_EQ(printModule(Shared), Expected);
  EXPECT_TRUE(useListsIntact(Shared));
}

//===----------------------------------------------------------------------===//
// Verifier negative cases
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesMissingTerminator) {
  IRFixture X;
  X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  // No terminator.
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, CatchesUseBeforeDefInBlock) {
  IRFixture X;
  auto *A = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *Use = X.B.createAdd(A, X.M.getInt32(2));
  X.B.createRet(Use);
  // Move the def after its use.
  std::unique_ptr<Instruction> Owned = X.Entry->take(A);
  A->setParent(X.Entry);
  X.Entry->insertAt(1, Owned.release());
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, CatchesCrossBlockDominanceViolation) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  auto *OnlyOnT = X.B.createAdd(X.F->getArg(0), X.M.getInt32(9));
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(OnlyOnT); // Not dominated: E-path never defines it.
  EXPECT_EQ(verifyModule(X.M),
            std::vector<std::string>{
                "in @f: use in 'j' not dominated by def in 't'"});
}

TEST(Verifier, CatchesReturnTypeMismatch) {
  IRFixture X;
  X.B.createRetVoid(); // Function returns i32.
  EXPECT_FALSE(verifyModule(X.M).empty());
}

TEST(Verifier, AcceptsWellFormedDiamond) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("t");
  BasicBlock *E = X.F->addBlock("e");
  BasicBlock *J = X.F->addBlock("j");
  auto *Slot = X.B.createAlloca(X.Ctx.getInt32Type());
  Value *C = X.B.createCmp(CmpPred::SGT, X.F->getArg(0), X.M.getInt32(0));
  X.B.createCondBr(C, T, E);
  X.B.setInsertPoint(T);
  X.B.createStore(X.M.getInt32(1), Slot);
  X.B.createBr(J);
  X.B.setInsertPoint(E);
  X.B.createStore(X.M.getInt32(2), Slot);
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(X.B.createLoad(Slot));
  EXPECT_TRUE(verifyModule(X.M).empty());
}

//===----------------------------------------------------------------------===//
// Verifier dominance semantics: the cases where a dominator algorithm over
// the entry alone, or one that ignores dead blocks, would disagree with the
// maximal fixpoint of Dom(b) = {b} + meet of Dom(p) over predecessors.
//===----------------------------------------------------------------------===//

using Errs = std::vector<std::string>;

TEST(Verifier, DeadPredecessorlessBlockRestrictsReachableJoin) {
  IRFixture X;
  BasicBlock *Dead = X.F->addBlock("dead");
  BasicBlock *J = X.F->addBlock("j");
  auto *V = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createBr(J);
  X.B.setInsertPoint(Dead); // No predecessors: a root of its own.
  X.B.createBr(J);
  X.B.setInsertPoint(J);
  X.B.createRet(V);
  EXPECT_EQ(verifyModule(X.M),
            Errs{"in @f: use in 'j' not dominated by def in 'entry'"});
}

TEST(Verifier, AcceptsUsesInsideUnreachableCycle) {
  IRFixture X;
  BasicBlock *A = X.F->addBlock("a");
  BasicBlock *Bb = X.F->addBlock("b");
  auto *V = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createRet(V);
  // a <-> b: both have predecessors, but no root reaches either, so each
  // is dominated by every block.
  X.B.setInsertPoint(A);
  auto *InA = X.B.createAdd(V, X.M.getInt32(2));
  X.B.createBr(Bb);
  X.B.setInsertPoint(Bb);
  auto *InB = X.B.createAdd(InA, X.M.getInt32(3));
  X.B.createBr(A);
  InA->setOperand(1, InB); // a uses b's def, b uses a's.
  EXPECT_EQ(verifyModule(X.M), Errs{});
}

TEST(Verifier, AcceptsConditionalBranchWithOneTargetTwice) {
  IRFixture X;
  BasicBlock *T = X.F->addBlock("x");
  auto *V = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  Value *C = X.B.createCmp(CmpPred::SGT, V, X.M.getInt32(0));
  X.B.createCondBr(C, T, T);
  X.B.setInsertPoint(T);
  X.B.createRet(V);
  EXPECT_EQ(T->predecessors().size(), 1u);
  EXPECT_EQ(verifyModule(X.M), Errs{});
}

TEST(Verifier, RejectsSelfLoopUsingItsOwnLaterDef) {
  IRFixture X;
  BasicBlock *L = X.F->addBlock("l");
  BasicBlock *Exit = X.F->addBlock("exit");
  X.B.createBr(L);
  X.B.setInsertPoint(L);
  auto *U = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  auto *V = X.B.createAdd(X.F->getArg(0), X.M.getInt32(2));
  U->setOperand(0, V); // l dominates itself, but V comes after U.
  Value *C = X.B.createCmp(CmpPred::SGT, V, X.M.getInt32(0));
  X.B.createCondBr(C, L, Exit);
  X.B.setInsertPoint(Exit);
  X.B.createRet(U);
  EXPECT_EQ(verifyModule(X.M),
            Errs{"in @f: use before def inside block 'l'"});
}

//===----------------------------------------------------------------------===//
// Differential oracle: verifyModule against the set-based dominance
// fixpoint, on generated modules and on seeded corruptions of them.
//===----------------------------------------------------------------------===//

using DomSets = std::map<const BasicBlock *, std::set<const BasicBlock *>>;

/// Dom(entry) = {entry}; Dom(b) = {b} for any other predecessor-less b;
/// otherwise Dom(b) = {b} + the intersection of Dom(p) over predecessors,
/// iterated from "all blocks" down to the maximal fixpoint. Quadratic, and
/// obviously the definition.
DomSets referenceDominators(const Function &F) {
  std::set<const BasicBlock *> All;
  for (const auto &BB : F.blocks())
    All.insert(BB.get());
  const BasicBlock *Entry = F.getEntryBlock();
  DomSets Dom;
  for (const auto &BB : F.blocks())
    Dom[BB.get()] = BB.get() == Entry ? std::set<const BasicBlock *>{Entry}
                                      : All;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      if (BB.get() == Entry)
        continue;
      std::set<const BasicBlock *> NewDom = All;
      std::vector<BasicBlock *> Preds = BB->predecessors();
      if (Preds.empty()) {
        NewDom = {BB.get()};
      } else {
        for (const BasicBlock *P : Preds) {
          std::set<const BasicBlock *> Inter;
          for (const BasicBlock *D : Dom[P])
            if (NewDom.count(D))
              Inter.insert(D);
          NewDom = std::move(Inter);
        }
        NewDom.insert(BB.get());
      }
      if (NewDom != Dom[BB.get()]) {
        Dom[BB.get()] = std::move(NewDom);
        Changed = true;
      }
    }
  }
  return Dom;
}

/// The dominance errors the verifier must report for a structurally sound
/// module, in its order and wording.
Errs referenceDominanceErrors(const Module &M) {
  Errs Out;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    DomSets Dom = referenceDominators(*F);
    auto Err = [&](const std::string &Msg) {
      Out.push_back("in @" + F->getName() + ": " + Msg);
    };
    for (const auto &BB : F->blocks())
      for (size_t Idx = 0, E = BB->size(); Idx != E; ++Idx)
        for (const Value *Op : BB->getInst(Idx)->operands()) {
          const auto *Def = dyn_cast<Instruction>(Op);
          if (!Def)
            continue;
          const BasicBlock *DefBB = Def->getParent();
          if (DefBB == BB.get()) {
            if (BB->indexOf(Def) >= Idx)
              Err(formatStr("use before def inside block '%s'",
                            BB->getName().c_str()));
          } else if (!Dom[BB.get()].count(DefBB)) {
            Err(formatStr("use in '%s' not dominated by def in '%s'",
                          BB->getName().c_str(), DefBB->getName().c_str()));
          }
        }
  }
  return Out;
}

bool movable(const Instruction *I) {
  return !I->isTerminator() && !isa<LandingPadInst>(I);
}

/// One structure-preserving corruption of a random function of \p M:
/// move an instruction into another block (before its terminator), move
/// an instruction after a same-block user, or retarget a branch edge to a
/// non-entry block (which makes dead roots, unreachable cycles and
/// duplicate edges). Returns false when the draw found nothing to change.
bool corrupt(Module &M, RNG &R) {
  std::vector<Function *> Defs;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Defs.push_back(F.get());
  Function &F = *Defs[R.nextBelow(Defs.size())];
  const auto &Blocks = F.blocks();
  BasicBlock *BB = Blocks[R.nextBelow(Blocks.size())].get();
  switch (R.nextBelow(3)) {
  case 0: { // Into a sibling block.
    BasicBlock *To = Blocks[R.nextBelow(Blocks.size())].get();
    Instruction *I = BB->getInst(R.nextBelow(BB->size()));
    if (To == BB || !movable(I))
      return false;
    To->insertBefore(To->getTerminator(), BB->take(I).release());
    return true;
  }
  case 1: { // After a same-block user.
    Instruction *I = BB->getInst(R.nextBelow(BB->size()));
    if (!movable(I))
      return false;
    for (Instruction *U : I->users()) {
      if (U->getParent() != BB || U->isTerminator())
        continue;
      std::unique_ptr<Instruction> Owned = BB->take(I);
      BB->insertAt(BB->indexOf(U) + 1, Owned.release());
      return true;
    }
    return false;
  }
  default: { // Retarget an edge.
    Instruction *T = BB->getTerminator();
    BasicBlock *To = Blocks[R.nextBelow(Blocks.size())].get();
    if (isa<InvokeInst>(T) || T->getNumSuccessors() == 0 ||
        To == F.getEntryBlock())
      return false;
    T->setSuccessor(R.nextBelow(T->getNumSuccessors()), To);
    return true;
  }
  }
}

TEST(Verifier, MatchesSetBasedReferenceOnGeneratedAndCorruptedModules) {
  std::vector<ObfuscationMode> Modes;
  for (unsigned B = 0; B != 256; ++B)
    if (isKnownObfuscationMode(ObfuscationMode(B)))
      Modes.push_back(ObfuscationMode(B));
  ASSERT_EQ(Modes.size(), 14u);

  size_t Compared = 0, Rejected = 0;
  auto Check = [&](const Module &M, const std::string &What) {
    Errs Got = verifyModule(M);
    ASSERT_EQ(Got, referenceDominanceErrors(M)) << What;
    ++Compared;
    Rejected += !Got.empty();
  };

  for (uint64_t Seed : {3, 17}) {
    ProgramSpec S;
    S.Name = "oracle";
    S.NumFunctions = 5;
    S.Seed = Seed;
    S.UseExceptions = Seed == 17;
    const std::string Src = generateMiniCProgram(S);
    // -2: frontend, -1: O2, then every obfuscation mode.
    for (int Stage = -2; Stage != int(Modes.size()); ++Stage) {
      Context Ctx;
      std::string Err;
      std::unique_ptr<Module> M = compileMiniC(Src, Ctx, "oracle", Err);
      ASSERT_TRUE(M) << Err;
      std::string What = "seed " + std::to_string(Seed) + " ";
      if (Stage == -1)
        optimizeModule(*M, OptLevel::O2);
      if (Stage >= 0)
        obfuscateModule(*M, Modes[Stage]);
      What += Stage == -2   ? "frontend"
              : Stage == -1 ? "O2"
                            : obfuscationModeName(Modes[Stage]);
      Check(*M, What);
      // Each trial corrupts a fresh copy one to three times.
      RNG R(Seed * 1000 + Stage + 2);
      for (unsigned Trial = 0; Trial != 16; ++Trial) {
        std::unique_ptr<Module> C = cloneModule(*M);
        bool Changed = false;
        for (uint64_t K = 0, N = 1 + R.nextBelow(3); K != N; ++K)
          Changed |= corrupt(*C, R);
        if (Changed)
          Check(*C, What + ", trial " + std::to_string(Trial));
      }
    }
  }
  // The corruptions must actually exercise the rejecting paths.
  EXPECT_GT(Rejected, Compared / 4);
}

//===----------------------------------------------------------------------===//
// Direct IR execution (no frontend)
//===----------------------------------------------------------------------===//

TEST(VMDirect, RunsHandBuiltModule) {
  Context Ctx;
  Module M(Ctx, "handbuilt");
  FunctionType *MainTy = Ctx.getFunctionType(Ctx.getInt32Type(), {});
  Function *Main = M.createFunction("main", MainTy);
  IRBuilder B(M);
  B.setInsertPoint(Main->addBlock("entry"));
  Value *Sum = B.createAdd(M.getInt32(40), M.getInt32(2));
  B.createRet(Sum);
  ExecResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VMDirect, TaggedFunctionConstantRoundTrips) {
  // Build: int f(int) {return x*2;} ; ptr tagged(f, 0) in a global; main
  // loads and calls it indirectly.
  Context Ctx;
  Module M(Ctx, "tagged");
  Type *I32 = Ctx.getInt32Type();
  FunctionType *FTy = Ctx.getFunctionType(I32, {I32});
  Function *F = M.createFunction("f", FTy);
  {
    IRBuilder B(M);
    B.setInsertPoint(F->addBlock("entry"));
    B.createRet(B.createMul(F->getArg(0), M.getInt32(2)));
  }
  Type *FPtrTy = Ctx.getPointerType(FTy);
  GlobalVariable *GV = M.createGlobal("fp", FPtrTy);
  GV->setInitializer({M.getTaggedFunc(FPtrTy, F, 0)});

  Function *Main = M.createFunction("main",
                                    Ctx.getFunctionType(I32, {}));
  {
    IRBuilder B(M);
    B.setInsertPoint(Main->addBlock("entry"));
    Value *FP = B.createLoad(GV);
    Value *R = B.createCall(FP, {M.getInt32(21)});
    B.createRet(R);
  }
  ExecResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VMDirect, MisalignedIndirectCallTraps) {
  // A *tagged* pointer called without the untag dispatch must trap — the
  // faithfulness property fusion's correctness rests on.
  Context Ctx;
  Module M(Ctx, "trap");
  Type *I32 = Ctx.getInt32Type();
  FunctionType *FTy = Ctx.getFunctionType(I32, {I32});
  Function *F = M.createFunction("f", FTy);
  {
    IRBuilder B(M);
    B.setInsertPoint(F->addBlock("entry"));
    B.createRet(F->getArg(0));
  }
  Function *Main =
      M.createFunction("main", Ctx.getFunctionType(I32, {}));
  {
    IRBuilder B(M);
    B.setInsertPoint(Main->addBlock("entry"));
    Value *Tagged = M.getTaggedFunc(Ctx.getPointerType(FTy), F, 2);
    Value *R = B.createCall(Tagged, {M.getInt32(1)});
    B.createRet(R);
  }
  ExecResult R = runModule(M);
  EXPECT_FALSE(R.Ok);
}

TEST(VMDirect, StepLimitStopsInfiniteLoop) {
  Context Ctx;
  Module M(Ctx, "inf");
  Function *Main =
      M.createFunction("main", Ctx.getFunctionType(Ctx.getInt32Type(), {}));
  IRBuilder B(M);
  BasicBlock *Entry = Main->addBlock("entry");
  BasicBlock *Loop = Main->addBlock("loop");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  B.createBr(Loop);
  ExecOptions Opts;
  Opts.MaxSteps = 10'000;
  ExecResult R = runModule(M, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(IRPrinter, RoundTripsStructure) {
  IRFixture X;
  auto *Add = X.B.createAdd(X.F->getArg(0), X.M.getInt32(1));
  X.B.createRet(Add);
  std::string Text = printModule(X.M);
  EXPECT_NE(Text.find("define i32 @f"), std::string::npos);
  EXPECT_NE(Text.find("add i32"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

} // namespace

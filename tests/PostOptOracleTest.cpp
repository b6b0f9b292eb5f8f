//===- tests/PostOptOracleTest.cpp - Post-opt passes against references --===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-obfuscation optimizer's DCE, SimplifyCFG (both flavours) and
/// local value numbering were rewritten to edit in place instead of
/// rescanning a function or block per edit. The straightforward versions
/// they replaced are kept here as references, and every rewritten pass
/// must leave the same printed IR, the same use-list order and the same
/// "changed" answer as its reference, with intact use lists. The modules
/// come from generated programs: the frontend module and each obfuscation
/// mode stopped just before its first post-opt step, then every state the
/// O2 pass list walks them through. Two hand-built CFGs cover the shapes
/// the rewrites track incrementally: a merge whose successor is laid out
/// before its predecessor, and a chain of forwarding blocks.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "obfuscation/KhaosDriver.h"
#include "transform/Cloning.h"
#include "transform/Pass.h"
#include "workloads/SyntheticProgram.h"

#include "UseListCheck.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

using namespace khaos;

namespace {

//===----------------------------------------------------------------------===//
// References: the passes as they were before the in-place rewrites.
//===----------------------------------------------------------------------===//

namespace ref {

bool dceFunction(Function &F) {
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      for (size_t Idx = BB->size(); Idx-- > 0;) {
        Instruction *I = BB->getInst(Idx);
        if (I->hasUses() || I->isTerminator())
          continue;
        if (I->mayHaveSideEffects())
          continue;
        BB->erase(I);
        Changed = true;
      }
    }
    for (const auto &BB : F.blocks()) {
      for (size_t Idx = BB->size(); Idx-- > 0;) {
        auto *AI = dyn_cast<AllocaInst>(BB->getInst(Idx));
        if (!AI)
          continue;
        bool OnlyStores = true;
        for (Instruction *U : AI->users()) {
          auto *SI = dyn_cast<StoreInst>(U);
          if (!SI || SI->getStoredValue() == AI) {
            OnlyStores = false;
            break;
          }
        }
        if (!OnlyStores || !AI->hasUses())
          continue;
        std::vector<Instruction *> Stores(AI->users().begin(),
                                         AI->users().end());
        for (Instruction *S : Stores)
          S->getParent()->erase(S);
        Changed = true;
      }
    }
    Any |= Changed;
  }
  return Any;
}

bool removeDeadFunctions(Module &M) {
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
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

bool dce(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Changed |= dceFunction(*F);
  Changed |= removeDeadFunctions(M);
  return Changed;
}

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
      continue;
    for (BasicBlock *P : BB->predecessors())
      P->getTerminator()->replaceSuccessor(BB.get(), Target);
    Changed = true;
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
        continue;
      BB->erase(BR);
      while (!Succ->empty()) {
        Instruction *I = Succ->front();
        std::unique_ptr<Instruction> Owned = Succ->take(I);
        I->setParent(BB);
        BB->insertAt(BB->size(), Owned.release());
      }
      F.eraseBlock(Succ);
      Changed = true;
      Any = true;
      break;
    }
  }
  return Any;
}

bool simplifyCFG(Module &M) {
  bool Any = false;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      Changed |= foldConstantBranches(*F);
      Changed |= threadForwarders(*F);
      Changed |= removeUnreachable(*F);
      Changed |= mergeChains(*F);
      Any |= Changed;
    }
  }
  return Any;
}

bool cfgCleanup(Module &M) {
  bool Any = false;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      Changed |= foldConstantBranches(*F);
      Changed |= removeUnreachable(*F);
      Any |= Changed;
    }
  }
  return Any;
}

int subKind(const Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::BinOp:
    return (int)cast<BinaryInst>(I)->getBinOp();
  case Opcode::Cmp:
    return (int)cast<CmpInst>(I)->getPredicate();
  case Opcode::Cast:
    return (int)cast<CastInst>(I)->getCastKind();
  default:
    return 0;
  }
}

bool isPure(const Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::Cmp:
  case Opcode::Cast:
  case Opcode::GEP:
  case Opcode::Select:
    return true;
  case Opcode::BinOp:
    return !cast<BinaryInst>(I)->isDivRem();
  default:
    return false;
  }
}

bool lvn(Module &M) {
  using VNKey =
      std::tuple<int, int, const void *, std::vector<const Value *>>;
  bool Changed = false;
  for (const auto &F : M.functions())
    for (const auto &BBp : F->blocks()) {
      BasicBlock &BB = *BBp;
      std::map<VNKey, Instruction *> Seen;
      for (size_t Idx = 0; Idx < BB.size(); ++Idx) {
        Instruction *I = BB.getInst(Idx);
        if (!isPure(I))
          continue;
        std::vector<const Value *> Ops(I->operands().begin(),
                                       I->operands().end());
        VNKey Key{(int)I->getOpcode(), subKind(I),
                  (const void *)I->getType(), std::move(Ops)};
        auto [It, Inserted] = Seen.try_emplace(Key, I);
        if (Inserted)
          continue;
        if (I->hasUses()) {
          I->replaceAllUsesWith(It->second);
          Changed = true;
        }
      }
    }
  return Changed;
}

} // namespace ref

//===----------------------------------------------------------------------===//
// The comparison
//===----------------------------------------------------------------------===//

/// Every use list of \p M, each user written as its position in the
/// module: what printed IR does not show.
std::string useListOrder(const Module &M) {
  std::map<const Instruction *, std::string> Pos;
  std::vector<const Value *> Values;
  std::set<const Value *> Seen;
  auto Note = [&](const Value *V) {
    if (V && Seen.insert(V).second)
      Values.push_back(V);
  };
  for (const auto &G : M.globals())
    Note(G.get());
  for (size_t FI = 0; FI != M.functions().size(); ++FI) {
    const Function &F = *M.functions()[FI];
    Note(&F);
    for (const auto &A : F.args())
      Note(A.get());
    for (size_t BI = 0; BI != F.blocks().size(); ++BI)
      for (size_t II = 0; II != F.blocks()[BI]->size(); ++II) {
        const Instruction *I = F.blocks()[BI]->getInst(II);
        Pos[I] = std::to_string(FI) + "." + std::to_string(BI) + "." +
                 std::to_string(II);
        Note(I);
        for (const Value *Op : I->operands())
          Note(Op);
      }
  }
  std::string Out;
  for (const Value *V : Values) {
    Out += V->getName() + ":";
    for (const Use *U = V->firstUse(); U; U = U->getNext())
      Out += " " + Pos[U->getUser()];
    Out += "\n";
  }
  return Out;
}

struct RewrittenPass {
  const char *Name;
  std::function<std::unique_ptr<Pass>()> Create;
  std::function<bool(Module &)> Reference;
};

const RewrittenPass RewrittenPasses[] = {
    {"dce", createDCEPass, ref::dce},
    {"simplifycfg", createSimplifyCFGPass, ref::simplifyCFG},
    {"cfg-cleanup", createCFGCleanupPass, ref::cfgCleanup},
    {"lvn", createLocalValueNumberingPass, ref::lvn},
};

/// Runs rewritten pass \p P and its reference on two clones of \p M,
/// expects the same result, and returns the rewritten pass's module.
/// (Both sides start from clones: a clone keeps every use list in layout
/// order, which need not be the order the frontend linked them in.)
std::unique_ptr<Module> expectSameAsReference(const RewrittenPass &P,
                                              const Module &M,
                                              const std::string &What) {
  std::unique_ptr<Module> Want = cloneModule(M);
  std::unique_ptr<Module> Got = cloneModule(M);
  bool WantChanged = P.Reference(*Want);
  bool GotChanged = P.Create()->run(*Got);
  EXPECT_EQ(WantChanged, GotChanged) << What << ", " << P.Name;
  EXPECT_EQ(printModule(*Want), printModule(*Got)) << What << ", " << P.Name;
  EXPECT_EQ(useListOrder(*Want), useListOrder(*Got))
      << What << ", " << P.Name;
  EXPECT_TRUE(useListsIntact(*Got)) << What << ", " << P.Name;
  return Got;
}

/// Checks every rewritten pass on \p M.
void expectSameAsReference(const Module &M, const std::string &What) {
  for (const RewrittenPass &P : RewrittenPasses)
    expectSameAsReference(P, M, What);
}

/// Walks \p M through the O2 pass list, checking each rewritten pass
/// against its reference where it runs; where SimplifyCFG runs, the
/// cfg-cleanup flavour is checked too.
void walkPostOpt(std::unique_ptr<Module> M, const std::string &What) {
  for (auto &Step : buildOptPassList(OptLevel::O2)) {
    const std::string Name = Step->getName();
    const std::string At = What + ", at " + Name;
    const RewrittenPass *P = nullptr;
    for (const RewrittenPass &R : RewrittenPasses) {
      if (Name == R.Name)
        P = &R;
      if (Name == "simplifycfg" && std::string(R.Name) == "cfg-cleanup")
        expectSameAsReference(R, *M, At);
    }
    if (P)
      M = expectSameAsReference(*P, *M, At);
    else
      Step->run(*M);
    if (::testing::Test::HasFailure())
      return;
  }
}

ProgramSpec oracleSpec(uint64_t Seed) {
  ProgramSpec S;
  S.Name = "oracle-" + std::to_string(Seed);
  S.Seed = Seed;
  S.NumFunctions = 8 + Seed % 9;
  S.FloatRatio = (Seed % 5) * 0.12;
  S.RecursionRatio = (Seed % 3) * 0.1;
  S.UseIndirectCalls = Seed % 2 == 0;
  S.UseExceptions = Seed % 3 == 0;
  S.UseSetjmp = Seed % 5 == 0;
  S.StringRatio = (Seed % 4 == 1) ? 0.5 : 0.0;
  S.UseSwitchDispatch = Seed % 4 == 2;
  S.UseGotos = Seed % 4 == 3;
  S.MainIterations = 4;
  return S;
}

/// The frontend module of seed \p Seed's program, and each mode's module
/// stopped before its first post-opt step, each walked through O2.
void checkGeneratedProgram(uint64_t Seed) {
  std::vector<ObfuscationMode> Modes;
  for (unsigned B = 0; B != 256; ++B)
    if (isKnownObfuscationMode(ObfuscationMode(B)))
      Modes.push_back(ObfuscationMode(B));
  ASSERT_EQ(Modes.size(), 14u);

  const std::string Source = generateMiniCProgram(oracleSpec(Seed));
  // -1: the frontend module, then every mode up to its post-opt.
  for (int Stage = -1; Stage != int(Modes.size()); ++Stage) {
    Context Ctx;
    std::string Error;
    auto M = compileMiniC(Source, Ctx, "oracle", Error);
    ASSERT_TRUE(M) << "seed " << Seed << ": " << Error;
    std::string What = "seed " + std::to_string(Seed) + ", frontend";
    if (Stage >= 0) {
      KhaosOptions Opts;
      Opts.Seed = Seed * 31 + 3;
      std::vector<std::string> Steps = obfuscationStepNames(Modes[Stage], Opts);
      size_t Prefix = 0;
      while (Prefix != Steps.size() &&
             Steps[Prefix].rfind("post-opt:", 0) != 0)
        ++Prefix;
      ASSERT_NE(Prefix, Steps.size());
      obfuscateModulePrefix(*M, Modes[Stage], Opts, Prefix);
      What = "seed " + std::to_string(Seed) + ", mode " +
             obfuscationModeName(Modes[Stage]);
    }
    walkPostOpt(std::move(M), What);
    if (::testing::Test::HasFailure())
      return;
  }
}

// Seed 201 has exceptions and strings, 202 indirect calls and switch
// dispatch, 203 gotos, 205 setjmp and strings.
TEST(PostOptOracle, GeneratedProgramSeed201) { checkGeneratedProgram(201); }
TEST(PostOptOracle, GeneratedProgramSeed202) { checkGeneratedProgram(202); }
TEST(PostOptOracle, GeneratedProgramSeed203) { checkGeneratedProgram(203); }
TEST(PostOptOracle, GeneratedProgramSeed205) { checkGeneratedProgram(205); }

/// i32 main() whose blocks the test lays out by hand.
struct HandBuilt {
  Context Ctx;
  Module M{Ctx, "hand"};
  IRBuilder B{M};
  Function *F = nullptr;

  HandBuilt() {
    F = M.createFunction("main", Ctx.getFunctionType(Ctx.getInt32Type(), {}));
  }
  ConstantInt *i32(int64_t V) {
    return M.getConstantInt(Ctx.getInt32Type(), V);
  }
  ConstantInt *i1(int64_t V) { return M.getConstantInt(Ctx.getInt1Type(), V); }
};

TEST(PostOptOracle, MergeWhoseSuccessorIsLaidOutFirst) {
  HandBuilt H;
  // entry -> {B, D}; B -> A; A and D return. A sits before B, so merging A
  // into B removes a block ahead of the scan.
  BasicBlock *Entry = H.F->addBlock("entry");
  BasicBlock *A = H.F->addBlock("a");
  BasicBlock *B = H.F->addBlock("b");
  BasicBlock *C = H.F->addBlock("c");
  BasicBlock *D = H.F->addBlock("d");
  H.B.setInsertPoint(Entry);
  Value *X = H.B.createAdd(H.i32(1), H.i32(2));
  Value *Cond = H.B.createCmp(CmpPred::SLT, X, H.i32(7));
  H.B.createCondBr(Cond, B, D);
  H.B.setInsertPoint(A);
  Value *Z = H.B.createAdd(X, H.i32(4));
  H.B.createBr(C);
  H.B.setInsertPoint(B);
  Value *Y = H.B.createMul(X, H.i32(3));
  H.B.createBr(A);
  H.B.setInsertPoint(C);
  H.B.createRet(H.B.createAdd(Y, Z));
  H.B.setInsertPoint(D);
  H.B.createRet(X);
  ASSERT_TRUE(useListsIntact(H.M));
  expectSameAsReference(H.M, "successor laid out first");

  std::unique_ptr<Module> Got = cloneModule(H.M);
  EXPECT_TRUE(createSimplifyCFGPass()->run(*Got));
  // b absorbed a, then c; entry and d stay.
  EXPECT_EQ(Got->getFunction("main")->blocks().size(), 3u);
}

TEST(PostOptOracle, ChainOfForwarders) {
  HandBuilt H;
  // entry branches into a chain f1 -> f2 -> f3 -> t of single-branch
  // blocks, entering at f1 and f2; a loop block also jumps back into f3.
  BasicBlock *Entry = H.F->addBlock("entry");
  BasicBlock *F1 = H.F->addBlock("f1");
  BasicBlock *F2 = H.F->addBlock("f2");
  BasicBlock *F3 = H.F->addBlock("f3");
  BasicBlock *Loop = H.F->addBlock("loop");
  BasicBlock *T = H.F->addBlock("t");
  H.B.setInsertPoint(Entry);
  Value *X = H.B.createAdd(H.i32(5), H.i32(6));
  Value *Cond = H.B.createCmp(CmpPred::SGT, X, H.i32(3));
  H.B.createCondBr(Cond, F1, F2);
  H.B.setInsertPoint(F1);
  H.B.createBr(F2);
  H.B.setInsertPoint(F2);
  H.B.createBr(F3);
  H.B.setInsertPoint(F3);
  H.B.createBr(Loop);
  H.B.setInsertPoint(Loop);
  Value *Again = H.B.createCmp(CmpPred::EQ, X, H.i32(0));
  H.B.createCondBr(Again, F3, T);
  H.B.setInsertPoint(T);
  H.B.createRet(X);
  expectSameAsReference(H.M, "chain of forwarders");

  // The same chain behind a constant branch, so folding feeds threading.
  HandBuilt K;
  BasicBlock *E = K.F->addBlock("entry");
  BasicBlock *G1 = K.F->addBlock("g1");
  BasicBlock *G2 = K.F->addBlock("g2");
  BasicBlock *G3 = K.F->addBlock("g3");
  BasicBlock *R = K.F->addBlock("r");
  K.B.setInsertPoint(E);
  K.B.createCondBr(K.i1(1), G1, G3);
  K.B.setInsertPoint(G1);
  K.B.createBr(G2);
  K.B.setInsertPoint(G2);
  K.B.createBr(G3);
  K.B.setInsertPoint(G3);
  K.B.createBr(R);
  K.B.setInsertPoint(R);
  K.B.createRet(K.i32(0));
  expectSameAsReference(K.M, "forwarders behind a constant branch");
}

} // namespace

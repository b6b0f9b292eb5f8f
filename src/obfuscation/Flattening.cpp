//===- obfuscation/Flattening.cpp - Control-flow flattening ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// O-LLVM-style control-flow flattening: every block gets a case id, a
/// dispatcher loop switches on a state variable, and branches become state
/// stores. Functions with EH constructs are skipped (O-LLVM's Fla has the
/// same restriction — the paper notes it in §5).
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "transform/DemoteValues.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

#include <map>

using namespace khaos;

namespace {

bool hasEHOrSetjmp(const Function &F) {
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->insts()) {
      switch (I->getOpcode()) {
      case Opcode::Invoke:
      case Opcode::LandingPad:
      case Opcode::Throw:
        return true;
      case Opcode::Call: {
        const Function *Callee =
            cast<CallInst>(I.get())->getCalledFunction();
        if (Callee && (Callee->getName() == "setjmp" ||
                       Callee->getName() == "longjmp"))
          return true;
        break;
      }
      default:
        break;
      }
    }
  }
  return false;
}

/// Flattens one function; returns false when it is not eligible.
bool flattenFunction(Module &M, Function &F, RNG &Rng) {
  if (F.size() < 3 || hasEHOrSetjmp(F))
    return false;

  demoteCrossBlockValues(M, F);

  Context &Ctx = M.getContext();
  BasicBlock *Entry = F.getEntryBlock();

  // The entry block gets no case id (it keeps its body so allocas stay
  // put), so a branch back to it cannot be rewired. Such IR never comes
  // out of the verifier, but hand-built IR can have it — skip rather than
  // silently emitting a state id the dispatcher has no case for.
  for (const auto &BB : F.blocks()) {
    Instruction *T = BB->getTerminator();
    if (!T)
      return false;
    for (unsigned I = 0, E = T->getNumSuccessors(); I != E; ++I)
      if (T->getSuccessor(I) == Entry)
        return false;
  }

  // Collect the blocks to flatten (everything except the entry).
  std::vector<BasicBlock *> Body;
  for (const auto &BB : F.blocks())
    if (BB.get() != Entry)
      Body.push_back(BB.get());

  // Assign shuffled case ids (the "case encryption" stand-in: ids carry
  // no structural information).
  std::map<BasicBlock *, int64_t> Id;
  {
    std::vector<int64_t> Ids;
    for (size_t I = 0; I != Body.size(); ++I)
      Ids.push_back(static_cast<int64_t>(I * 7 + 3));
    Rng.shuffle(Ids);
    for (size_t I = 0; I != Body.size(); ++I)
      Id[Body[I]] = Ids[I];
  }

  // State variable and dispatcher.
  auto *State = new AllocaInst(Ctx.getInt32Type(), "flat.state");
  Entry->insertAt(0, State);
  BasicBlock *Dispatch = F.addBlock("flat.dispatch");

  IRBuilder B(M);
  // Entry: store the id of its old successor, jump to the dispatcher.
  // (The entry keeps its body so allocas stay put.)
  auto RewireTerminator = [&](BasicBlock *BB) {
    Instruction *T = BB->getTerminator();
    IRBuilder TB(M);
    switch (T->getOpcode()) {
    case Opcode::Br: {
      auto *BR = cast<BranchInst>(T);
      TB.setInsertBefore(T);
      Value *Next;
      // Checked lookups throughout: operator[] would default-insert state
      // id 0 for a destination missing from the map, and the dispatcher
      // has no case 0 — the flattened function would fall into the
      // default (first body) block at runtime instead of crashing here.
      if (BR->isConditional()) {
        Next = TB.createSelect(BR->getCondition(),
                               M.getInt32(Id.at(BR->getTrueDest())),
                               M.getInt32(Id.at(BR->getFalseDest())));
      } else {
        Next = M.getInt32(Id.at(BR->getSuccessor(0)));
      }
      TB.createStore(Next, State);
      BB->insertAt(BB->size(), new BranchInst(Dispatch));
      BB->erase(BR);
      return;
    }
    case Opcode::Switch: {
      auto *SW = cast<SwitchInst>(T);
      // Chain of selects mapping the condition to state ids.
      TB.setInsertBefore(T);
      Value *Cond = SW->getCondition();
      Value *NextId = M.getInt32(Id.at(SW->getDefaultDest()));
      for (unsigned C = 0, E = SW->getNumCases(); C != E; ++C) {
        Value *IsCase = TB.createCmp(
            CmpPred::EQ, Cond,
            M.getConstantInt(Cond->getType(), SW->getCaseValue(C)));
        NextId = TB.createSelect(
            IsCase, M.getInt32(Id.at(SW->getCaseDest(C))), NextId);
      }
      TB.createStore(NextId, State);
      BB->insertAt(BB->size(), new BranchInst(Dispatch));
      BB->erase(SW);
      return;
    }
    default:
      return; // Ret/Unreachable stay as they are.
    }
  };

  // Entry terminator first (targets get ids), then every body block.
  RewireTerminator(Entry);
  for (BasicBlock *BB : Body)
    RewireTerminator(BB);

  // Dispatcher: load the state and switch over the body blocks.
  B.setInsertPoint(Dispatch);
  Value *S = B.createLoad(State, "state");
  SwitchInst *SW = B.createSwitch(S, Body.front());
  for (BasicBlock *BB : Body)
    SW->addCase(Id.at(BB), BB);
  return true;
}

} // namespace

unsigned khaos::runFlattening(Module &M, const OLLVMOptions &Opts,
                              PassReport *) {
  RNG Rng(Opts.Seed);
  unsigned Count = 0;
  std::vector<Function *> Funcs;
  for (const auto &F : M.functions())
    if (!F->isDeclaration() && !F->isNoObfuscate())
      Funcs.push_back(F.get());
  for (Function *F : Funcs) {
    if (!Rng.nextBool(Opts.Ratio))
      continue;
    if (flattenFunction(M, *F, Rng))
      ++Count;
  }
  return Count;
}

//===- transform/Inliner.cpp - Function inlining --------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Size-bounded inlining of direct calls. This is the optimization the
/// paper credits for fission's occasionally *negative* overhead: after a
/// function sheds cold regions into sepFuncs, the slimmer remFunc becomes
/// eligible for inlining into its callers.
///
/// Inlining is restricted to plain Call sites (an IRGen invariant
/// guarantees plain calls never sit inside a try region, so exception
/// semantics are preserved) and to callees without EH constructs, setjmp,
/// varargs or non-entry allocas.
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "transform/Cloning.h"
#include "transform/Pass.h"

using namespace khaos;

namespace {

class InlinerPass : public Pass {
public:
  explicit InlinerPass(unsigned Threshold) : Threshold(Threshold) {}

  const char *getName() const override { return "inline"; }
  bool run(Module &M) override;

private:
  bool isInlinableCallee(const Function &Callee) const;
  void inlineCall(Module &M, Function &Caller, CallInst *Call);

  unsigned Threshold;
};

} // namespace

bool InlinerPass::isInlinableCallee(const Function &Callee) const {
  if (Callee.isDeclaration() || Callee.isIntrinsic() || Callee.isVarArg())
    return false;
  if (Callee.isNoInline())
    return false; // sepFuncs and trampolines must survive optimization.
  if (Callee.instructionCount() > Threshold)
    return false;
  for (const auto &BB : Callee.blocks()) {
    for (const auto &I : BB->insts()) {
      switch (I->getOpcode()) {
      case Opcode::Invoke:
      case Opcode::LandingPad:
      case Opcode::Throw:
        return false; // EH frames must stay call frames.
      case Opcode::Alloca:
        if (BB.get() != Callee.getEntryBlock())
          return false; // Dynamic allocas would leak caller stack.
        break;
      case Opcode::Call: {
        const Function *F = cast<CallInst>(I.get())->getCalledFunction();
        if (F && (F->getName() == "setjmp" || F->getName() == "longjmp"))
          return false; // returns_twice semantics.
        if (F == &Callee)
          return false; // Direct recursion.
        break;
      }
      default:
        break;
      }
    }
  }
  return true;
}

void InlinerPass::inlineCall(Module &M, Function &Caller, CallInst *Call) {
  Function *Callee = Call->getCalledFunction();
  BasicBlock *CallBB = Call->getParent();

  // Split so the call is the last real instruction of CallBB; execution
  // continues in Cont.
  size_t CallIdx = CallBB->indexOf(Call);
  BasicBlock *Cont;
  if (CallIdx + 1 < CallBB->size()) {
    Cont = CallBB->splitBefore(CallBB->getInst(CallIdx + 1),
                               CallBB->getName() + ".cont");
  } else {
    // The call is already last (shouldn't happen: a call never terminates
    // a block), so create an empty continuation.
    Cont = Caller.addBlockAfter(CallBB, CallBB->getName() + ".cont");
    Cont->push(new UnreachableInst(M.getContext().getVoidType()));
  }

  // Map formals to actuals and clone the body.
  std::vector<Value *> Actuals;
  for (unsigned I = 0, E = Callee->arg_size(); I != E; ++I)
    Actuals.push_back(Call->getArg(I));
  std::vector<BasicBlock *> Cloned =
      cloneFunctionBlocks(*Callee, Caller, Actuals);
  BasicBlock *InlineEntry = Cloned.front();

  // Hoist cloned allocas into the caller's entry so stack space is reused
  // across loop iterations — then re-zero them at the inline entry. A KIR
  // alloca zeroes its slot on every execution (the semantic oracle's
  // deterministic-memory contract), so a callee invoked in a loop gets
  // fresh zeroed locals on each call; the hoisted alloca executes once
  // per *caller* invocation, and without the explicit stores the second
  // trip through the inlined body would read the first trip's data (found
  // by the differential fuzzer as a checksum divergence).
  BasicBlock *CallerEntry = Caller.getEntryBlock();
  std::vector<Instruction *> ToHoist;
  for (const auto &I : InlineEntry->insts())
    if (isa<AllocaInst>(I.get()))
      ToHoist.push_back(I.get());
  std::vector<Instruction *> ZeroInit;
  for (Instruction *AI : ToHoist) {
    Type *Ty = cast<AllocaInst>(AI)->getAllocatedType();
    if (auto *ATy = dyn_cast<ArrayType>(Ty)) {
      if (ATy->getElementType()->isArray())
        continue; // Nested arrays stay in the inline entry (re-executed
                  // per trip, which zeroes them — correct, just unhoisted).
      for (uint64_t E = 0; E != ATy->getNumElements(); ++E) {
        // GEP on a pointer-to-array addresses its elements directly.
        auto *Ptr = new GEPInst(AI, M.getInt64(static_cast<int64_t>(E)));
        ZeroInit.push_back(Ptr);
        ZeroInit.push_back(
            new StoreInst(M.getZeroValue(ATy->getElementType()), Ptr));
      }
    } else {
      ZeroInit.push_back(new StoreInst(M.getZeroValue(Ty), AI));
    }
    std::unique_ptr<Instruction> Owned = InlineEntry->take(AI);
    AI->setParent(CallerEntry);
    CallerEntry->insertAt(0, Owned.release());
  }
  for (size_t I = 0; I != ZeroInit.size(); ++I)
    InlineEntry->insertAt(I, ZeroInit[I]);

  // Return slot for non-void callees.
  Type *RetTy = Callee->getReturnType();
  AllocaInst *RetSlot = nullptr;
  if (!RetTy->isVoid()) {
    RetSlot = new AllocaInst(RetTy, Call->getName() + ".ret");
    CallerEntry->insertAt(0, RetSlot);
  }

  // Rewrite cloned returns into stores + branch to Cont.
  for (BasicBlock *BB : Cloned) {
    auto *RI = dyn_cast_or_null<ReturnInst>(BB->getTerminator());
    if (!RI)
      continue;
    if (RetSlot && RI->hasReturnValue())
      BB->insertBefore(RI, new StoreInst(RI->getReturnValue(), RetSlot));
    BB->insertAt(BB->size(), new BranchInst(Cont));
    BB->erase(RI);
  }

  // Redirect the split branch into the inlined entry.
  CallBB->getTerminator()->replaceSuccessor(Cont, InlineEntry);

  // Replace the call's value with a load from the return slot.
  if (Call->hasUses()) {
    auto *RetLoad = new LoadInst(RetSlot, Call->getName() + ".retv");
    Cont->insertAt(0, RetLoad);
    Call->replaceAllUsesWith(RetLoad);
  }
  CallBB->erase(Call);
}

bool InlinerPass::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    // Collect inlinable sites first; inlining invalidates iteration.
    std::vector<CallInst *> Sites;
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->insts()) {
        if (I->getOpcode() != Opcode::Call)
          continue;
        auto *CI = cast<CallInst>(I.get());
        Function *Callee = CI->getCalledFunction();
        if (!Callee || Callee == F.get())
          continue;
        if (Callee->isNoObfuscate())
          continue; // Keep trampolines and the like intact.
        if (isInlinableCallee(*Callee))
          Sites.push_back(CI);
      }
    }
    for (CallInst *CI : Sites) {
      inlineCall(M, *F, CI);
      Changed = true;
    }
  }
  return Changed;
}

std::unique_ptr<Pass> khaos::createInlinerPass(unsigned Threshold) {
  return std::make_unique<InlinerPass>(Threshold);
}

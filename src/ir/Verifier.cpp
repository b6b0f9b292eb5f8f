//===- ir/Verifier.cpp - IR well-formedness checks ------------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Module.h"
#include "support/PtrIndex.h"
#include "support/StringUtils.h"

using namespace khaos;

namespace {

constexpr unsigned None = ~0u;

/// Per-function verification state.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> &Errors)
      : F(F), Errors(Errors) {}

  bool run();

private:
  void error(const std::string &Msg) {
    Errors.push_back("in @" + F.getName() + ": " + Msg);
  }

  void checkStructure();
  void checkInstruction(const BasicBlock *BB, const Instruction *I);
  void computeDominators();
  void checkDominance();
  bool dominates(const BasicBlock *A, unsigned B) const;

  const Function &F;
  std::vector<std::string> &Errors;
  /// Block -> position in F.blocks().
  PtrIndex<BasicBlock> BlockIndex;
  /// Instruction -> position in its block's list.
  PtrIndex<Instruction> InstPos;
  /// Per block: its number in reverse postorder from the virtual root
  /// (None when no root reaches it), and its dominator-tree subtree as the
  /// interval [Pre, Pre + Size).
  std::vector<unsigned> RPONum, Pre, Size;
};

} // namespace

void FunctionVerifier::checkStructure() {
  if (F.blocks().empty())
    return;
  if (!F.getEntryBlock()->predecessors().empty())
    error("entry block has predecessors");
  for (const auto &BB : F.blocks()) {
    if (BB->empty()) {
      error("block '" + BB->getName() + "' is empty");
      continue;
    }
    const Instruction *Term = BB->getTerminator();
    if (!Term)
      error("block '" + BB->getName() + "' lacks a terminator");
    for (size_t I = 0, E = BB->size(); I != E; ++I) {
      const Instruction *Inst = BB->getInst(I);
      if (Inst->getParent() != BB.get())
        error("instruction parent link broken in '" + BB->getName() + "'");
      if (Inst->isTerminator() && I + 1 != E)
        error("terminator in the middle of block '" + BB->getName() + "'");
      if (isa<LandingPadInst>(Inst) && I != 0)
        error("landingpad is not the first instruction of '" +
              BB->getName() + "'");
      checkInstruction(BB.get(), Inst);
    }
  }
}

void FunctionVerifier::checkInstruction(const BasicBlock *BB,
                                        const Instruction *I) {
  // Successors must be blocks of this function.
  for (const BasicBlock *S : I->successors())
    if (BlockIndex.lookup(S) == None)
      error(formatStr("successor of a terminator in '%s' is foreign",
                      BB->getName().c_str()));

  // Operands must be constants, globals, functions, or locals of F.
  for (const Value *Op : I->operands()) {
    if (const auto *Arg = dyn_cast<Argument>(Op)) {
      if (Arg->getParent() != &F)
        error("operand argument belongs to another function");
    } else if (const auto *OI = dyn_cast<Instruction>(Op)) {
      if (!OI->getParent() || OI->getParent()->getParent() != &F)
        error("operand instruction belongs to another function");
      if (OI->getType() && OI->getType()->isVoid())
        error("use of a void-typed instruction result");
    }
  }

  switch (I->getOpcode()) {
  case Opcode::Store: {
    const auto *SI = cast<StoreInst>(I);
    const auto *PT = dyn_cast<PointerType>(SI->getPointer()->getType());
    if (!PT || PT->getPointee() != SI->getStoredValue()->getType())
      error("store type mismatch");
    break;
  }
  case Opcode::Call:
  case Opcode::Invoke: {
    const auto *CI = cast<CallInst>(I);
    const FunctionType *FTy = CI->getCalleeType();
    if (CI->getNumArgs() < FTy->getNumParams() ||
        (CI->getNumArgs() > FTy->getNumParams() && !FTy->isVarArg())) {
      error("call argument count mismatch for callee type " +
            FTy->getName());
      break;
    }
    for (unsigned A = 0, E = FTy->getNumParams(); A != E; ++A)
      if (CI->getArg(A)->getType() != FTy->getParamType(A))
        error(formatStr("call argument %u type mismatch", A));
    if (const auto *IV = dyn_cast<InvokeInst>(I))
      if (IV->getUnwindDest()->empty() ||
          !isa<LandingPadInst>(IV->getUnwindDest()->front()))
        error("invoke unwind destination lacks a landingpad");
    break;
  }
  case Opcode::Br: {
    const auto *BR = cast<BranchInst>(I);
    if (BR->isConditional() &&
        BR->getCondition()->getType()->getKind() != TypeKind::Int1)
      error("conditional branch on non-i1 value");
    break;
  }
  case Opcode::Ret: {
    const auto *RI = cast<ReturnInst>(I);
    Type *RetTy = F.getReturnType();
    if (RetTy->isVoid()) {
      if (RI->hasReturnValue())
        error("returning a value from a void function");
    } else if (!RI->hasReturnValue()) {
      error("missing return value");
    } else if (RI->getReturnValue()->getType() != RetTy) {
      error("return value type mismatch");
    }
    break;
  }
  default:
    break;
  }
}

void FunctionVerifier::computeDominators() {
  // Runs only on structurally sound functions: every block ends in its one
  // terminator and every successor is a block of F.
  const unsigned N = F.blocks().size();
  size_t NumInsts = 0;
  for (const auto &BB : F.blocks())
    NumInsts += BB->size();
  InstPos.reset(NumInsts);
  for (const auto &BB : F.blocks())
    for (size_t I = 0, E = BB->size(); I != E; ++I)
      InstPos.insert(BB->getInst(I), I);

  // CFG edges in CSR form, duplicate edges dropped. Predecessor counts go
  // in at offset 2 so that after the prefix sum PredBegin[B + 1] is B's
  // start, and filling advances it to B + 1's start.
  std::vector<unsigned> SuccBegin(N + 1), Succs, Mark(N, None);
  std::vector<unsigned> PredBegin(N + 2, 0);
  for (unsigned B = 0; B != N; ++B) {
    SuccBegin[B] = Succs.size();
    for (const BasicBlock *S : F.blocks()[B]->getTerminator()->successors()) {
      unsigned SI = BlockIndex.lookup(S);
      if (Mark[SI] == B)
        continue;
      Mark[SI] = B;
      Succs.push_back(SI);
      ++PredBegin[SI + 2];
    }
  }
  SuccBegin[N] = Succs.size();
  for (unsigned B = 0; B != N; ++B)
    PredBegin[B + 2] += PredBegin[B + 1];
  std::vector<unsigned> Preds(Succs.size());
  for (unsigned B = 0; B != N; ++B)
    for (unsigned E = SuccBegin[B]; E != SuccBegin[B + 1]; ++E)
      Preds[PredBegin[Succs[E] + 1]++] = B;
  // PredBegin[B]..PredBegin[B + 1] now delimit B's predecessors.

  // Iterative DFS from a virtual root whose successors are the
  // predecessor-less blocks (the entry and any dead block without
  // predecessors), in block order.
  std::vector<unsigned> Post;
  std::vector<std::pair<unsigned, unsigned>> Stack;
  RPONum.assign(N, None);
  for (unsigned Root = 0; Root != N; ++Root) {
    if (PredBegin[Root] != PredBegin[Root + 1] || RPONum[Root] != None)
      continue;
    RPONum[Root] = 0; // Visited; renumbered below.
    Stack.emplace_back(Root, SuccBegin[Root]);
    while (!Stack.empty()) {
      auto &[B, E] = Stack.back();
      if (E == SuccBegin[B + 1]) {
        Post.push_back(B);
        Stack.pop_back();
        continue;
      }
      unsigned S = Succs[E++];
      if (RPONum[S] == None) {
        RPONum[S] = 0;
        Stack.emplace_back(S, SuccBegin[S]);
      }
    }
  }
  // Reverse-postorder numbers; 0 is the virtual root.
  const unsigned K = Post.size() + 1;
  std::vector<unsigned> Order(K, None);
  for (unsigned I = 0; I != Post.size(); ++I) {
    unsigned B = Post[Post.size() - 1 - I];
    RPONum[B] = I + 1;
    Order[I + 1] = B;
  }

  // Cooper-Harvey-Kennedy over RPO numbers. Predecessors no root reaches
  // are skipped: their dominator sets are "all blocks" and never narrow a
  // meet.
  std::vector<unsigned> IDom(K, None);
  IDom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned R = 1; R != K; ++R) {
      unsigned B = Order[R];
      unsigned New = PredBegin[B] == PredBegin[B + 1] ? 0 : None;
      for (unsigned E = PredBegin[B]; E != PredBegin[B + 1]; ++E) {
        unsigned P = RPONum[Preds[E]];
        if (P == None || IDom[P] == None)
          continue;
        New = New == None ? P : Intersect(New, P);
      }
      if (IDom[R] != New) {
        IDom[R] = New;
        Changed = true;
      }
    }
  }

  // Subtree intervals: an immediate dominator precedes its children in
  // RPO, so one backward pass sums subtree sizes and one forward pass lays
  // each child's interval after its parent and earlier siblings.
  std::vector<unsigned> TreeSize(K, 1), TreePre(K, 0), Used(K, 0);
  for (unsigned R = K - 1; R != 0; --R)
    TreeSize[IDom[R]] += TreeSize[R];
  for (unsigned R = 1; R != K; ++R) {
    unsigned P = IDom[R];
    TreePre[R] = TreePre[P] + 1 + Used[P];
    Used[P] += TreeSize[R];
  }
  Pre.assign(N, 0);
  Size.assign(N, 0);
  for (unsigned R = 1; R != K; ++R) {
    Pre[Order[R]] = TreePre[R];
    Size[Order[R]] = TreeSize[R];
  }
}

bool FunctionVerifier::dominates(const BasicBlock *A, unsigned B) const {
  // The maximal fixpoint of Dom(b) = {b} + meet of Dom(p): a block no root
  // reaches keeps "all blocks of F"; a reachable one holds exactly its
  // dominators under the virtual root. An unreachable A has an empty
  // interval.
  unsigned AI = BlockIndex.lookup(A);
  if (AI == None)
    return false;
  if (RPONum[B] == None)
    return true;
  return Pre[AI] <= Pre[B] && Pre[B] < Pre[AI] + Size[AI];
}

void FunctionVerifier::checkDominance() {
  for (unsigned B = 0, NB = F.blocks().size(); B != NB; ++B) {
    const BasicBlock *BB = F.blocks()[B].get();
    for (size_t Idx = 0, E = BB->size(); Idx != E; ++Idx) {
      const Instruction *I = BB->getInst(Idx);
      for (const Value *Op : I->operands()) {
        const auto *Def = dyn_cast<Instruction>(Op);
        if (!Def)
          continue;
        const BasicBlock *DefBB = Def->getParent();
        if (DefBB == BB) {
          // A def that claims this block but is not in its list counts as
          // used before it is defined.
          unsigned Pos = InstPos.lookup(Def);
          if (Pos == None || Pos >= Idx)
            error(formatStr("use before def inside block '%s'",
                            BB->getName().c_str()));
        } else if (!dominates(DefBB, B)) {
          error(formatStr("use in '%s' not dominated by def in '%s'",
                          BB->getName().c_str(),
                          DefBB ? DefBB->getName().c_str() : "<detached>"));
        }
      }
    }
  }
}

bool FunctionVerifier::run() {
  size_t Before = Errors.size();
  BlockIndex.reset(F.blocks().size());
  for (unsigned B = 0, E = F.blocks().size(); B != E; ++B)
    BlockIndex.insert(F.blocks()[B].get(), B);
  checkStructure();
  if (Errors.size() == Before && !F.blocks().empty()) {
    computeDominators();
    checkDominance();
  }
  return Errors.size() == Before;
}

bool khaos::verifyFunction(const Function &F,
                           std::vector<std::string> &Errors) {
  if (F.isDeclaration())
    return true;
  return FunctionVerifier(F, Errors).run();
}

bool khaos::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  size_t Before = Errors.size();
  for (const auto &F : M.functions())
    verifyFunction(*F, Errors);
  return Errors.size() == Before;
}

std::vector<std::string> khaos::verifyModule(const Module &M) {
  std::vector<std::string> Errors;
  verifyModule(M, Errors);
  return Errors;
}

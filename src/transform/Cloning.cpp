//===- transform/Cloning.cpp - IR cloning utilities ---------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transform/Cloning.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "support/PtrIndex.h"

#include <cassert>

using namespace khaos;

namespace {

/// The one body cloner behind cloneFunctionBlocks and cloneModule. Appends
/// a copy of each block of \p Src to \p Dst, named with \p Suffix appended,
/// and fills every operand slot of the copies: Src's instructions map to
/// their copies and any other operand through \p MapOther, which returns
/// null to keep the operand as it is. Returns the new blocks in source
/// order. \p Src is only read.
///
/// Kept operands are linked first, then remapped ones, each sweep in
/// instruction-major, operand-minor order. That reproduces the use-list
/// order of clone-then-remap, where a copy registered its operands when
/// constructed and moved the remapped ones afterwards.
template <typename MapFn>
std::vector<BasicBlock *> cloneBody(const Function &Src, Function &Dst,
                                    const char *Suffix, MapFn MapOther) {
  const auto &Blocks = Src.blocks();
  PtrIndex<BasicBlock> BlockNum;
  BlockNum.reset(Blocks.size());
  std::vector<BasicBlock *> NewBlocks;
  size_t NumInsts = 0;
  for (size_t B = 0, E = Blocks.size(); B != E; ++B) {
    BlockNum.insert(Blocks[B].get(), B);
    NewBlocks.push_back(Dst.addBlock(Blocks[B]->getName() + Suffix));
    NumInsts += Blocks[B]->size();
  }

  // Every copy exists before any slot is filled, so a use laid out before
  // its def still finds the def's copy.
  PtrIndex<Instruction> InstNum;
  InstNum.reset(NumInsts);
  std::vector<Instruction *> Copies;
  Copies.reserve(NumInsts);
  for (size_t B = 0, E = Blocks.size(); B != E; ++B) {
    NewBlocks[B]->reserve(Blocks[B]->size());
    for (const auto &I : Blocks[B]->insts()) {
      Instruction *NI = NewBlocks[B]->push(I->clone());
      for (unsigned S = 0, SE = NI->getNumSuccessors(); S != SE; ++S) {
        unsigned Num = BlockNum.lookup(NI->getSuccessor(S));
        assert(Num != PtrIndex<BasicBlock>::None &&
               "successor outside cloned function");
        NI->setSuccessor(S, NewBlocks[Num]);
      }
      InstNum.insert(I.get(), Copies.size());
      Copies.push_back(NI);
    }
  }

  // Per slot, in sweep order: the remapped operand, or null when kept.
  std::vector<Value *> Remapped;
  size_t K = 0;
  for (const auto &BB : Blocks)
    for (const auto &I : BB->insts()) {
      Instruction *NI = Copies[K++];
      for (unsigned S = 0, E = I->getNumOperands(); S != E; ++S) {
        Value *Op = I->getOperand(S);
        Value *New;
        if (const auto *OpI = dyn_cast<Instruction>(Op)) {
          unsigned Num = InstNum.lookup(OpI);
          assert(Num != PtrIndex<Instruction>::None &&
                 "instruction operand outside cloned function");
          New = Copies[Num];
        } else {
          New = MapOther(Op);
        }
        if (!New)
          NI->setOperand(S, Op);
        Remapped.push_back(New);
      }
    }
  K = 0;
  for (Instruction *NI : Copies)
    for (unsigned S = 0, E = NI->getNumOperands(); S != E; ++S)
      if (Value *New = Remapped[K++])
        NI->setOperand(S, New);
  return NewBlocks;
}

} // namespace

std::vector<BasicBlock *>
khaos::cloneFunctionBlocks(const Function &Src, Function &Dst,
                           const std::vector<Value *> &Args) {
  assert(Args.size() == Src.arg_size() && "one replacement per argument");
  return cloneBody(Src, Dst, ".i", [&](const Value *Op) -> Value * {
    if (const auto *A = dyn_cast<Argument>(Op))
      return Args[A->getArgNo()];
    return nullptr;
  });
}

std::unique_ptr<Module> khaos::cloneModule(const Module &Src) {
  auto Dst = std::make_unique<Module>(Src.getContext(), Src.getName());

  // Src's functions, globals and (from first sight) constants, numbered
  // densely, and their copies.
  PtrIndex<Value> Num;
  Num.reset(Src.functions().size() + Src.globals().size());
  std::vector<Value *> Copy;
  auto Record = [&](const Value *V, Value *C) {
    Num.insert(V, Copy.size());
    Copy.push_back(C);
  };
  // Maps a function, global or constant of Src into Dst, re-interning a
  // constant the first time it is seen.
  auto MapGlobal = [&](const Value *V) -> Value * {
    unsigned N = Num.lookup(V);
    if (N != PtrIndex<Value>::None)
      return Copy[N];
    Value *C = nullptr;
    switch (V->getValueKind()) {
    case ValueKind::ConstantInt: {
      const auto *CI = cast<ConstantInt>(V);
      C = Dst->getConstantInt(CI->getType(), CI->getValue());
      break;
    }
    case ValueKind::ConstantFP: {
      const auto *CF = cast<ConstantFP>(V);
      C = Dst->getConstantFP(CF->getType(), CF->getValue());
      break;
    }
    case ValueKind::ConstantNull:
      C = Dst->getNullPtr(cast<PointerType>(V->getType()));
      break;
    case ValueKind::ConstantTaggedFunc: {
      const auto *CT = cast<ConstantTaggedFunc>(V);
      unsigned F = Num.lookup(CT->getFunction());
      assert(F != PtrIndex<Value>::None && "tagged function not cloned");
      C = Dst->getTaggedFunc(CT->getType(), cast<Function>(Copy[F]),
                             CT->getTag());
      break;
    }
    default:
      assert(false && "operand escaped the clone map");
      return nullptr;
    }
    Record(V, C);
    return C;
  };

  // Function shells first: bodies and global initializers may reference any
  // function (calls, tagged pointers).
  for (const auto &F : Src.functions()) {
    Function *NF = Dst->createFunction(F->getName(), F->getFunctionType());
    NF->setExported(F->isExported());
    NF->setNoObfuscate(F->isNoObfuscate());
    NF->setNoInline(F->isNoInline());
    NF->setIntrinsic(F->isIntrinsic());
    NF->setOrigins(F->getOrigins());
    for (unsigned I = 0, E = F->arg_size(); I != E; ++I)
      NF->getArg(I)->setName(F->getArg(I)->getName());
    Record(F.get(), NF);
  }

  for (const auto &G : Src.globals()) {
    GlobalVariable *NG = Dst->createGlobal(G->getName(), G->getValueType());
    std::vector<Constant *> Init;
    Init.reserve(G->getInitializer().size());
    for (const Constant *C : G->getInitializer())
      Init.push_back(cast<Constant>(MapGlobal(C)));
    NG->setInitializer(std::move(Init));
    Record(G.get(), NG);
  }

  // Bodies keep their exact block names (unlike inlined copies).
  for (size_t I = 0, E = Src.functions().size(); I != E; ++I) {
    const Function *F = Src.functions()[I].get();
    if (F->isDeclaration())
      continue;
    auto *NF = cast<Function>(Copy[I]); // Functions were numbered first.
    cloneBody(*F, *NF, "", [&](const Value *Op) -> Value * {
      if (const auto *A = dyn_cast<Argument>(Op))
        return NF->getArg(A->getArgNo());
      return MapGlobal(Op);
    });
  }

  Dst->setNameCounters(Src.nameCounters());
  return Dst;
}

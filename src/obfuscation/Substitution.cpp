//===- obfuscation/Substitution.cpp - Instruction substitution -----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// O-LLVM-style instruction substitution. Strategies (one picked per
/// site):
///   a + b  ->  a - (-b)           |  a + b -> (a ^ b) + 2*(a & b)
///   a - b  ->  a + (-b)           |  a - b -> (a ^ b) - 2*(~a & b)... (v2)
///   a ^ b  ->  (a | b) - (a & b)  |  a & b -> (a | b) ^ (a ^ b)
///   a | b  ->  (a & b) | (a ^ b)  (identity-preserving rewrite)
///
//===----------------------------------------------------------------------===//

#include "obfuscation/OLLVM.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/RNG.h"

using namespace khaos;

namespace {

/// Emits the replacement sequence for \p B; returns the new value or null
/// when no strategy applies.
Value *substitute(Module &M, IRBuilder &Bld, BinaryInst *B, RNG &Rng) {
  Value *L = B->getLHS(), *R = B->getRHS();
  Type *Ty = B->getType();
  Value *Zero = M.getConstantInt(Ty, 0);
  Value *Two = M.getConstantInt(Ty, 2);
  Value *AllOnes = M.getConstantInt(Ty, -1);

  switch (B->getBinOp()) {
  case BinOp::Add:
    if (Rng.nextBool()) {
      // a - (-b)
      Value *NegB = Bld.createBinOp(BinOp::Sub, Zero, R);
      return Bld.createBinOp(BinOp::Sub, L, NegB);
    } else {
      // (a ^ b) + 2*(a & b)
      Value *X = Bld.createBinOp(BinOp::Xor, L, R);
      Value *A = Bld.createBinOp(BinOp::And, L, R);
      Value *A2 = Bld.createBinOp(BinOp::Mul, Two, A);
      return Bld.createBinOp(BinOp::Add, X, A2);
    }
  case BinOp::Sub:
    if (Rng.nextBool()) {
      // a + (-b)
      Value *NegB = Bld.createBinOp(BinOp::Sub, Zero, R);
      return Bld.createBinOp(BinOp::Add, L, NegB);
    } else {
      // (a ^ b) - 2*(~a & b)
      Value *X = Bld.createBinOp(BinOp::Xor, L, R);
      Value *NotA = Bld.createBinOp(BinOp::Xor, L, AllOnes);
      Value *A = Bld.createBinOp(BinOp::And, NotA, R);
      Value *A2 = Bld.createBinOp(BinOp::Mul, Two, A);
      return Bld.createBinOp(BinOp::Sub, X, A2);
    }
  case BinOp::Xor: {
    // (a | b) - (a & b)
    Value *O = Bld.createBinOp(BinOp::Or, L, R);
    Value *A = Bld.createBinOp(BinOp::And, L, R);
    return Bld.createBinOp(BinOp::Sub, O, A);
  }
  case BinOp::And: {
    // (a | b) ^ (a ^ b)
    Value *O = Bld.createBinOp(BinOp::Or, L, R);
    Value *X = Bld.createBinOp(BinOp::Xor, L, R);
    return Bld.createBinOp(BinOp::Xor, O, X);
  }
  case BinOp::Or: {
    // (a & b) | (a ^ b)
    Value *A = Bld.createBinOp(BinOp::And, L, R);
    Value *X = Bld.createBinOp(BinOp::Xor, L, R);
    return Bld.createBinOp(BinOp::Or, A, X);
  }
  default:
    return nullptr;
  }
}

} // namespace

unsigned khaos::runSubstitution(Module &M, const OLLVMOptions &Opts,
                                PassReport *Report) {
  RNG Rng(Opts.Seed);
  unsigned Count = 0;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isNoObfuscate())
      continue;
    for (const auto &BB : F->blocks()) {
      // Snapshot: substitution inserts instructions.
      std::vector<BinaryInst *> Sites;
      for (const auto &I : BB->insts()) {
        auto *B = dyn_cast<BinaryInst>(I.get());
        if (!B || B->isFloatOp() || B->isDivRem())
          continue;
        if (B->getType()->getKind() == TypeKind::Int1)
          continue;
        Sites.push_back(B);
      }
      for (BinaryInst *B : Sites) {
        if (!Rng.nextBool(Opts.Ratio))
          continue;
        IRBuilder Bld(M);
        Bld.setInsertBefore(B);
        if (Value *NewV = substitute(M, Bld, B, Rng)) {
          if (B->hasUses())
            B->replaceAllUsesWith(NewV);
          B->eraseFromParent();
          ++Count;
        }
      }
    }
  }
  if (Report)
    Report->SitesRewritten += Count;
  return Count;
}

//===- transform/LocalValueNumbering.cpp - Block-local CSE ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Local value numbering: pure instructions (binop/cmp/cast/GEP/select)
/// with identical opcodes and operands inside one block collapse to the
/// first occurrence.
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "transform/Pass.h"

#include <cassert>
#include <cstdint>
#include <vector>

using namespace khaos;

namespace {

/// What makes two pure instructions equal: opcode, sub-kind, result type
/// and operands. Select is the widest pure instruction, at 3 operands.
struct VNKey {
  const Type *Ty = nullptr;
  const Value *Ops[3] = {nullptr, nullptr, nullptr};
  int Sub = 0;
  uint8_t Op = 0;
  uint8_t NumOps = 0;

  bool operator==(const VNKey &O) const {
    return Ty == O.Ty && Ops[0] == O.Ops[0] && Ops[1] == O.Ops[1] &&
           Ops[2] == O.Ops[2] && Sub == O.Sub && Op == O.Op &&
           NumOps == O.NumOps;
  }
  uint64_t hash() const {
    uint64_t H = (uint64_t(Op) << 40) ^ (uint64_t(NumOps) << 32) ^
                 static_cast<uint32_t>(Sub);
    for (const void *P : {static_cast<const void *>(Ty),
                          static_cast<const void *>(Ops[0]),
                          static_cast<const void *>(Ops[1]),
                          static_cast<const void *>(Ops[2])})
      H = (H ^ reinterpret_cast<uintptr_t>(P)) * 0x9E3779B97F4A7C15ull;
    return H ^ (H >> 29);
  }
};

/// One block's value numbers: open addressing over a flat table sized for
/// the block, so no lookup allocates.
class VNTable {
public:
  /// Empties the table and sizes it for \p Count keys.
  void reset(size_t Count) {
    size_t N = 16;
    while (N < 2 * Count)
      N *= 2;
    Slots.assign(N, Entry{});
  }
  /// The first instruction recorded under \p K; records and returns \p I
  /// if there is none.
  Instruction *findOrInsert(const VNKey &K, Instruction *I) {
    for (size_t S = K.hash() & (Slots.size() - 1);;
         S = (S + 1) & (Slots.size() - 1)) {
      if (!Slots[S].I) {
        Slots[S] = {K, I};
        return I;
      }
      if (Slots[S].K == K)
        return Slots[S].I;
    }
  }

private:
  struct Entry {
    VNKey K;
    Instruction *I = nullptr;
  };
  std::vector<Entry> Slots;
};

class LocalValueNumberingPass : public Pass {
public:
  const char *getName() const override { return "lvn"; }
  bool run(Module &M) override;

private:
  bool runOnBlock(BasicBlock &BB, VNTable &Seen);
};

/// Sub-opcode discriminator (binop kind, predicate, cast kind).
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
    return !cast<BinaryInst>(I)->isDivRem(); // Keep traps.
  default:
    return false;
  }
}

} // namespace

bool LocalValueNumberingPass::runOnBlock(BasicBlock &BB, VNTable &Seen) {
  bool Changed = false;
  Seen.reset(BB.size());
  for (size_t Idx = 0; Idx < BB.size(); ++Idx) {
    Instruction *I = BB.getInst(Idx);
    if (!isPure(I))
      continue;
    VNKey Key;
    Key.Ty = I->getType();
    Key.Sub = subKind(I);
    Key.Op = static_cast<uint8_t>(I->getOpcode());
    Key.NumOps = static_cast<uint8_t>(I->getNumOperands());
    assert(Key.NumOps <= 3 && "pure instruction wider than select");
    for (unsigned S = 0; S != Key.NumOps; ++S)
      Key.Ops[S] = I->getOperand(S);
    Instruction *First = Seen.findOrInsert(Key, I);
    if (First != I && I->hasUses()) {
      I->replaceAllUsesWith(First);
      Changed = true;
    }
  }
  return Changed;
}

bool LocalValueNumberingPass::run(Module &M) {
  bool Changed = false;
  VNTable Seen;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      Changed |= runOnBlock(*BB, Seen);
  return Changed;
}

std::unique_ptr<Pass> khaos::createLocalValueNumberingPass() {
  return std::make_unique<LocalValueNumberingPass>();
}

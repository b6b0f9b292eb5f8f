//===- vm/Bytecode.cpp - KIR-to-bytecode precompiler ------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "ir/Module.h"
#include "support/PtrIndex.h"
#include "vm/VMRuntime.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace khaos;

namespace {

/// How the interpreter must treat a call to \p F. Name checks first, to
/// mirror the reference interpreter's dispatch order exactly.
BCCallKind callKindOf(const Function &F) {
  if (F.getName() == "setjmp" && F.isIntrinsic())
    return BCCallKind::Setjmp;
  if (F.getName() == "longjmp" && F.isIntrinsic())
    return BCCallKind::Longjmp;
  if (F.isIntrinsic() || F.isDeclaration())
    return BCCallKind::Intrinsic;
  return BCCallKind::Normal;
}

/// True when the reference interpreter would assign a register for \p I.
bool producesValue(const Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::Alloca:
  case Opcode::Load:
  case Opcode::BinOp:
  case Opcode::Cmp:
  case Opcode::Cast:
  case Opcode::GEP:
  case Opcode::Select:
  case Opcode::LandingPad:
    return true;
  case Opcode::Call:
  case Opcode::Invoke:
    return I->getType() && !I->getType()->isVoid();
  default:
    return false;
  }
}

/// Constant bit pattern -> constant-pool index: open addressing over a
/// flat table, so a lookup is a probe or two and an insert allocates
/// nothing until the table doubles.
class ConstIndex {
public:
  static constexpr uint32_t None = ~0u;

  /// Empties the table, keeping its storage.
  void clear() {
    if (Slots.empty())
      Slots.resize(64);
    std::fill(Slots.begin(), Slots.end(), Entry{0, None});
    Size = 0;
  }
  /// The index of \p Key, or None.
  uint32_t lookup(uint64_t Key) const {
    for (size_t S = home(Key);; S = (S + 1) & (Slots.size() - 1))
      if (Slots[S].Val == None || Slots[S].Key == Key)
        return Slots[S].Val;
  }
  /// Maps \p Key, which must not be in the table yet, to \p Val.
  void insert(uint64_t Key, uint32_t Val) {
    if (2 * (Size + 1) > Slots.size()) {
      std::vector<Entry> Old(Slots.size() * 2, Entry{0, None});
      Old.swap(Slots);
      for (const Entry &E : Old)
        if (E.Val != None)
          place(E.Key, E.Val);
    }
    place(Key, Val);
    ++Size;
  }

private:
  struct Entry {
    uint64_t Key;
    uint32_t Val;
  };
  size_t home(uint64_t Key) const {
    return ((Key * 0x9E3779B97F4A7C15ull) >> 32) & (Slots.size() - 1);
  }
  void place(uint64_t Key, uint32_t Val) {
    size_t S = home(Key);
    while (Slots[S].Val != None)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = {Key, Val};
  }

  std::vector<Entry> Slots;
  size_t Size = 0;
};

/// Lowers the functions of one module. The per-function tables are dense
/// and reset, not reallocated, between functions.
struct FunctionDecoder {
  FunctionDecoder(const PrecompileOptions &PO,
                  const std::map<const Function *, uint32_t> &FuncIdx,
                  const std::map<const Function *, uint64_t> &FuncAddrs,
                  const std::map<const GlobalVariable *, uint64_t> &GlobalAddrs)
      : PO(PO), FuncIdx(FuncIdx), FuncAddrs(FuncAddrs),
        GlobalAddrs(GlobalAddrs) {}

  const PrecompileOptions &PO;
  const std::map<const Function *, uint32_t> &FuncIdx;
  const std::map<const Function *, uint64_t> &FuncAddrs;
  const std::map<const GlobalVariable *, uint64_t> &GlobalAddrs;
  BCFunction *BF = nullptr; ///< The function being lowered.

  PtrIndex<Value> RegMap;
  ConstIndex ConstMap;
  PtrIndex<BasicBlock> BlockIdx;

  void decode(const Function &F, BCFunction &Out);

  BCInst &emit(BC Op) {
    BF->Code.emplace_back();
    BF->Code.back().Op = Op;
    return BF->Code.back();
  }

  uint32_t constSlot(uint64_t Bits) {
    uint32_t K = ConstMap.lookup(Bits);
    if (K != ConstIndex::None)
      return BF->NumRegs + K;
    K = static_cast<uint32_t>(BF->ConstPool.size());
    ConstMap.insert(Bits, K);
    BF->ConstPool.push_back(static_cast<int64_t>(Bits));
    return BF->NumRegs + K;
  }

  /// The register of a value-producing instruction of the function. Pass A
  /// numbers every such instruction; a miss reads as register 0.
  uint32_t regOf(const Instruction *I) const {
    unsigned R = RegMap.lookup(I);
    assert(R != PtrIndex<Value>::None && "instruction has no register");
    return R == PtrIndex<Value>::None ? 0 : R;
  }

  /// The index of a block of the function; a block of another function
  /// (malformed IR) reads as block 0.
  uint32_t blockOf(const BasicBlock *BB) const {
    unsigned B = BlockIdx.lookup(BB);
    return B == PtrIndex<BasicBlock>::None ? 0 : B;
  }

  uint32_t slotOf(const Value *V) {
    switch (V->getValueKind()) {
    case ValueKind::ConstantInt:
      return constSlot(
          static_cast<uint64_t>(cast<ConstantInt>(V)->getValue()));
    case ValueKind::ConstantFP: {
      double D = cast<ConstantFP>(V)->getValue();
      uint64_t Bits = 0;
      std::memcpy(&Bits, &D, sizeof(Bits));
      return constSlot(Bits);
    }
    case ValueKind::ConstantNull:
      return constSlot(0);
    case ValueKind::ConstantTaggedFunc: {
      const auto *TF = cast<ConstantTaggedFunc>(V);
      return constSlot(addrOf(FuncAddrs, TF->getFunction()) | TF->getTag());
    }
    case ValueKind::GlobalVariable:
      return constSlot(addrOf(GlobalAddrs, cast<GlobalVariable>(V)));
    case ValueKind::Function:
      return constSlot(addrOf(FuncAddrs, cast<Function>(V)));
    case ValueKind::Argument:
    case ValueKind::Instruction: {
      unsigned R = RegMap.lookup(V);
      // Verified IR guarantees every use resolves; a reference into another
      // function (malformed IR) reads a zero constant instead.
      if (R == PtrIndex<Value>::None)
        return constSlot(0);
      return R;
    }
    }
    return constSlot(0);
  }

  template <typename KeyT>
  static uint64_t addrOf(const std::map<const KeyT *, uint64_t> &Map,
                         const KeyT *K) {
    auto It = Map.find(K);
    return It == Map.end() ? 0 : It->second;
  }

  bool tryFuseCmpBr(const BasicBlock *BB, size_t I);
  bool tryFuseLoadBinStore(const BasicBlock *BB, size_t I);
  void emitInst(const Instruction *I);
  void emitCall(const CallInst *CI);
  void fixupTargets();
};

bool FunctionDecoder::tryFuseCmpBr(const BasicBlock *BB, size_t I) {
  const auto *CI = dyn_cast<CmpInst>(BB->getInst(I));
  if (!CI || CI->getNumUses() != 1)
    return false;
  const auto *BR = dyn_cast<BranchInst>(BB->getInst(I + 1));
  if (!BR || !BR->isConditional() || BR->getCondition() != CI)
    return false;
  BCInst &In = emit(CI->getLHS()->getType()->isFloatingPoint() ? BC::CmpBrF
                                                               : BC::CmpBrI);
  In.Sub = static_cast<uint8_t>(CI->getPredicate());
  In.A = slotOf(CI->getLHS());
  In.B = slotOf(CI->getRHS());
  In.C = blockOf(BR->getTrueDest());
  In.Aux = blockOf(BR->getFalseDest());
  return true;
}

bool FunctionDecoder::tryFuseLoadBinStore(const BasicBlock *BB, size_t I) {
  const auto *LD = dyn_cast<LoadInst>(BB->getInst(I));
  if (!LD || LD->getNumUses() != 1)
    return false;
  const auto *BO = dyn_cast<BinaryInst>(BB->getInst(I + 1));
  if (!BO || BO->isFloatOp() || BO->isDivRem() || BO->getNumUses() != 1)
    return false;
  const auto *ST = dyn_cast<StoreInst>(BB->getInst(I + 2));
  if (!ST || ST->getStoredValue() != BO)
    return false;
  bool LoadIsLHS = BO->getLHS() == LD;
  bool LoadIsRHS = BO->getRHS() == LD;
  if (!LoadIsLHS && !LoadIsRHS)
    return false; // The load's one use is not this binop.
  BCInst &In = emit(BC::LoadBinStoreI);
  In.Sub = static_cast<uint8_t>(BO->getBinOp());
  In.A = slotOf(LD->getPointer());
  In.B = slotOf(LoadIsLHS ? BO->getRHS() : BO->getLHS());
  In.C = slotOf(ST->getPointer());
  In.N = static_cast<uint16_t>(
      (static_cast<uint16_t>(LD->getType()->getKind()) << 8) |
      static_cast<uint8_t>(BO->getType()->getKind()));
  In.Imm = LoadIsRHS ? 1 : 0;
  return true;
}

void FunctionDecoder::emitCall(const CallInst *CI) {
  const auto *IV = dyn_cast<InvokeInst>(CI);
  const Function *Callee = CI->getCalledFunction();
  uint32_t Dest = BCNoReg;
  if (CI->getType() && !CI->getType()->isVoid())
    Dest = regOf(CI);
  unsigned Argc = CI->getNumArgs();

  if (PO.Superinstructions && !IV && Callee && Argc <= 4 &&
      callKindOf(*Callee) == BCCallKind::Normal) {
    uint32_t S[4] = {0, 0, 0, 0};
    for (unsigned A = 0; A != Argc; ++A)
      S[A] = slotOf(CI->getArg(A));
    BCInst &In = emit(BC::CallDirect4);
    In.A = Dest;
    In.B = FuncIdx.at(Callee);
    In.N = static_cast<uint16_t>(Argc);
    In.C = S[0];
    In.Aux = S[1];
    In.Imm = static_cast<uint64_t>(S[2]) | (static_cast<uint64_t>(S[3]) << 32);
    return;
  }

  uint32_t PoolStart = static_cast<uint32_t>(BF->ArgPool.size());
  for (unsigned A = 0; A != Argc; ++A)
    BF->ArgPool.push_back({slotOf(CI->getArg(A)), CI->getArg(A)->getType()});
  BCInst &In = emit(BC::CallOp);
  In.A = Dest;
  In.N = static_cast<uint16_t>(Argc);
  In.Aux = PoolStart;
  if (Callee) {
    In.B = FuncIdx.at(Callee);
  } else {
    In.Sub |= 2;
    In.B = slotOf(CI->getCallee());
  }
  if (IV) {
    In.Sub |= 1;
    In.C = blockOf(IV->getNormalDest());
    In.Imm = blockOf(IV->getUnwindDest());
  }
}

void FunctionDecoder::emitInst(const Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::Alloca: {
    const auto *AI = cast<AllocaInst>(I);
    BCInst &In = emit(BC::AllocaOp);
    In.A = regOf(I);
    In.Imm = (AI->getAllocatedType()->getStoreSize() + 7) & ~7ull;
    break;
  }
  case Opcode::Load: {
    BCInst &In = emit(BC::LoadOp);
    In.A = regOf(I);
    In.B = slotOf(I->getOperand(0));
    In.Sub = static_cast<uint8_t>(I->getType()->getKind());
    break;
  }
  case Opcode::Store: {
    BCInst &In = emit(BC::StoreOp);
    In.A = slotOf(I->getOperand(0));
    In.B = slotOf(I->getOperand(1));
    In.Sub = static_cast<uint8_t>(I->getOperand(0)->getType()->getKind());
    break;
  }
  case Opcode::BinOp: {
    const auto *BO = cast<BinaryInst>(I);
    static const BC OpFor[] = {BC::AddI, BC::SubI,  BC::MulI,  BC::DivI,
                               BC::RemI, BC::AndI,  BC::OrI,   BC::XorI,
                               BC::ShlI, BC::AShrI, BC::LShrI, BC::AddF,
                               BC::SubF, BC::MulF,  BC::DivF};
    BCInst &In = emit(OpFor[static_cast<unsigned>(BO->getBinOp())]);
    In.A = regOf(I);
    In.B = slotOf(BO->getLHS());
    In.C = slotOf(BO->getRHS());
    In.Sub = static_cast<uint8_t>(I->getType()->getKind());
    break;
  }
  case Opcode::Cmp: {
    const auto *CI = cast<CmpInst>(I);
    BCInst &In = emit(
        CI->getLHS()->getType()->isFloatingPoint() ? BC::CmpFOp : BC::CmpIOp);
    In.A = regOf(I);
    In.B = slotOf(CI->getLHS());
    In.C = slotOf(CI->getRHS());
    In.Sub = static_cast<uint8_t>(CI->getPredicate());
    break;
  }
  case Opcode::Cast: {
    const auto *CI = cast<CastInst>(I);
    BCInst &In = emit(BC::CastOp);
    In.A = regOf(I);
    In.B = slotOf(CI->getSource());
    In.Sub = static_cast<uint8_t>(CI->getCastKind());
    In.N = static_cast<uint16_t>(
        (static_cast<uint16_t>(CI->getSource()->getType()->getKind()) << 8) |
        static_cast<uint8_t>(I->getType()->getKind()));
    break;
  }
  case Opcode::GEP: {
    const auto *G = cast<GEPInst>(I);
    BCInst &In = emit(BC::GEPOp);
    In.A = regOf(I);
    In.B = slotOf(G->getPointer());
    In.C = slotOf(G->getIndex());
    In.Imm = G->getElementSize();
    break;
  }
  case Opcode::Select: {
    BCInst &In = emit(BC::SelectOp);
    In.A = regOf(I);
    In.B = slotOf(I->getOperand(0));
    In.C = slotOf(I->getOperand(1));
    In.Aux = slotOf(I->getOperand(2));
    break;
  }
  case Opcode::LandingPad: {
    BCInst &In = emit(BC::LandingPadOp);
    In.A = regOf(I);
    break;
  }
  case Opcode::Call:
  case Opcode::Invoke:
    emitCall(cast<CallInst>(I));
    break;
  case Opcode::Br: {
    const auto *BR = cast<BranchInst>(I);
    if (BR->isConditional()) {
      BCInst &In = emit(BC::BrCond);
      In.A = slotOf(BR->getCondition());
      In.B = blockOf(BR->getTrueDest());
      In.C = blockOf(BR->getFalseDest());
    } else {
      BCInst &In = emit(BC::Jmp);
      In.A = blockOf(BR->getSuccessor(0));
    }
    break;
  }
  case Opcode::Switch: {
    const auto *SW = cast<SwitchInst>(I);
    BCInst &In = emit(BC::SwitchOp);
    In.A = slotOf(SW->getCondition());
    In.B = blockOf(SW->getDefaultDest());
    In.N = static_cast<uint16_t>(SW->getNumCases());
    In.Aux = static_cast<uint32_t>(BF->Cases.size());
    for (unsigned K = 0, E = SW->getNumCases(); K != E; ++K)
      BF->Cases.push_back({SW->getCaseValue(K), blockOf(SW->getCaseDest(K))});
    break;
  }
  case Opcode::Ret: {
    const auto *RI = cast<ReturnInst>(I);
    if (RI->hasReturnValue()) {
      BCInst &In = emit(BC::RetVal);
      In.A = slotOf(RI->getReturnValue());
    } else {
      emit(BC::RetVoid);
    }
    break;
  }
  case Opcode::Throw: {
    BCInst &In = emit(BC::ThrowOp);
    In.A = slotOf(I->getOperand(0));
    break;
  }
  case Opcode::Unreachable:
    emit(BC::UnreachableOp);
    break;
  }
}

void FunctionDecoder::fixupTargets() {
  auto PcOf = [this](uint32_t Blk) { return BF->BlockStartPc[Blk]; };
  for (BCInst &In : BF->Code) {
    switch (In.Op) {
    case BC::Jmp:
      In.A = PcOf(In.A);
      break;
    case BC::BrCond:
      In.B = PcOf(In.B);
      In.C = PcOf(In.C);
      break;
    case BC::CmpBrI:
    case BC::CmpBrF:
      In.C = PcOf(In.C);
      In.Aux = PcOf(In.Aux);
      break;
    case BC::SwitchOp:
      In.B = PcOf(In.B);
      for (uint32_t K = In.Aux, E = In.Aux + In.N; K != E; ++K)
        BF->Cases[K].Target = PcOf(BF->Cases[K].Target);
      break;
    case BC::CallOp:
      if (In.Sub & 1) {
        In.C = PcOf(In.C);
        In.Imm = PcOf(static_cast<uint32_t>(In.Imm));
      }
      break;
    default:
      break;
    }
  }
}

void FunctionDecoder::decode(const Function &F, BCFunction &Out) {
  BF = &Out;
  BF->F = &F;
  BF->Kind = callKindOf(F);
  BF->NumArgs = F.arg_size();
  if (F.isDeclaration()) {
    BF->NumRegs = BF->NumArgs;
    BF->FrameSlots = BF->NumArgs;
    return;
  }

  // Pass A: assign register slots to arguments and every value-producing
  // instruction in layout order. Layout order need not be dominance order,
  // so all slots exist before any operand is resolved.
  size_t NumInsts = 0;
  for (const auto &BB : F.blocks())
    NumInsts += BB->size();
  RegMap.reset(F.arg_size() + NumInsts);
  ConstMap.clear();
  BlockIdx.reset(F.blocks().size());
  uint32_t Next = 0;
  for (unsigned I = 0, E = F.arg_size(); I != E; ++I)
    RegMap.insert(F.getArg(I), Next++);
  for (const auto &BB : F.blocks())
    for (size_t I = 0, E = BB->size(); I != E; ++I)
      if (producesValue(BB->getInst(I)))
        RegMap.insert(BB->getInst(I), Next++);
  BF->NumRegs = Next;

  uint32_t NB = 0;
  for (const auto &BB : F.blocks()) {
    BlockIdx.insert(BB.get(), NB++);
    BF->BlockNames.push_back(BB->getName());
  }

  // Pass B: emit, fusing superinstructions over adjacent single-use chains.
  for (const auto &BBp : F.blocks()) {
    const BasicBlock *BB = BBp.get();
    BF->BlockStartPc.push_back(static_cast<uint32_t>(BF->Code.size()));
    size_t E = BB->size();
    size_t I = 0;
    while (I != E) {
      if (PO.Superinstructions) {
        if (I + 1 < E && tryFuseCmpBr(BB, I)) {
          I += 2;
          continue;
        }
        if (I + 2 < E && tryFuseLoadBinStore(BB, I)) {
          I += 3;
          continue;
        }
      }
      emitInst(BB->getInst(I));
      ++I;
    }
    // Where the reference interpreter would walk past the last instruction
    // and trap, trap explicitly.
    if (E == 0 || !BB->getInst(E - 1)->isTerminator()) {
      BCInst &In = emit(BC::FellOff);
      In.A = blockOf(BB);
    }
  }

  fixupTargets();
  BF->FrameSlots = BF->NumRegs + static_cast<uint32_t>(BF->ConstPool.size());
}

} // namespace

bool BytecodeModule::funcForAddr(uint64_t Addr, uint32_t &Idx) const {
  if (Addr < VMFuncBase)
    return false;
  uint64_t Off = Addr - VMFuncBase;
  if (Off % VMFuncStride)
    return false;
  if (Off / VMFuncStride >= Funcs.size())
    return false;
  Idx = static_cast<uint32_t>(Off / VMFuncStride);
  return true;
}

void khaos::precompileModule(const Module &M, BytecodeModule &Out,
                             const PrecompileOptions &PO) {
  Out.M = &M;
  Out.Funcs.clear();
  Out.MainIndex = BCNoReg;
  Out.CodeBytes = 0;

  std::map<const Function *, uint64_t> FuncAddrs;
  std::map<const GlobalVariable *, uint64_t> GlobalAddrs;
  computeAddressMap(M, FuncAddrs, GlobalAddrs);

  std::map<const Function *, uint32_t> FuncIdx;
  uint32_t N = 0;
  for (const auto &F : M.functions())
    FuncIdx[F.get()] = N++;

  Out.Funcs.resize(N);
  FunctionDecoder D(PO, FuncIdx, FuncAddrs, GlobalAddrs);
  N = 0;
  for (const auto &F : M.functions())
    D.decode(*F, Out.Funcs[N++]);

  const Function *Main = M.getFunction("main");
  if (Main && !Main->isDeclaration())
    Out.MainIndex = FuncIdx[Main];

  for (const BCFunction &BF : Out.Funcs)
    Out.CodeBytes += BF.Code.size() * sizeof(BCInst) +
                     BF.ConstPool.size() * sizeof(int64_t) +
                     BF.ArgPool.size() * sizeof(BCArg) +
                     BF.Cases.size() * sizeof(BCCase);
}

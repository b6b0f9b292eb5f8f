//===- ir/BasicBlock.h - KIR basic block ------------------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A straight-line instruction sequence ending in exactly one terminator.
/// Blocks own their instructions; ownership can be transferred with take()
/// so fission/fusion can move code between functions without copying.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_BASICBLOCK_H
#define KHAOS_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace khaos {

class Function;

/// A node of the control-flow graph.
class BasicBlock {
public:
  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  Function *getParent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  const std::vector<std::unique_ptr<Instruction>> &insts() const {
    return Insts;
  }
  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }
  Instruction *front() const { return Insts.front().get(); }
  Instruction *back() const { return Insts.back().get(); }
  Instruction *getInst(size_t I) const { return Insts[I].get(); }

  /// The terminator, or null while the block is under construction.
  Instruction *getTerminator() const;

  /// Appends \p I, taking ownership. Returns \p I.
  Instruction *push(Instruction *I);
  /// Makes room for \p N instructions, so that many pushes never reallocate.
  void reserve(size_t N) { Insts.reserve(N); }

  /// Inserts \p I before position \p Pos (an owned instruction of this
  /// block), taking ownership. Returns \p I.
  Instruction *insertBefore(Instruction *Pos, Instruction *I);

  /// Inserts \p I at index \p Idx.
  Instruction *insertAt(size_t Idx, Instruction *I);

  /// Index of \p I; asserts membership.
  size_t indexOf(const Instruction *I) const;

  /// Unlinks \p I without destroying it; ownership passes to the caller.
  std::unique_ptr<Instruction> take(Instruction *I);

  /// Unlinks and destroys \p I (must have no users).
  void erase(Instruction *I);

  /// Destroys, back to front, every instruction for which \p Dead returns
  /// true, then closes the gaps in one pass. Destroying an instruction
  /// releases its operands, so \p Dead already sees that on the
  /// instructions before it. Each must have no users when it goes.
  /// Returns whether any instruction was destroyed.
  template <typename PredT> bool eraseIf(PredT Dead) {
    bool Any = false;
    for (size_t Idx = Insts.size(); Idx-- > 0;)
      if (Dead(Insts[Idx].get())) {
        assert(!Insts[Idx]->hasUses() &&
               "erasing instruction that still has users");
        Insts[Idx].reset();
        Any = true;
      }
    if (Any)
      Insts.erase(std::remove(Insts.begin(), Insts.end(), nullptr),
                  Insts.end());
    return Any;
  }

  /// Moves every instruction of \p From, in order, to the end of this
  /// block, which must have no terminator. \p From is left empty.
  void splice(BasicBlock &From);

  /// Blocks this block can transfer control to.
  std::vector<BasicBlock *> successors() const;

  /// Blocks that can transfer control here, each once, in layout order.
  /// Every call scans the whole parent function and allocates, so a pass
  /// that asks for many blocks' predecessors should build the lists once.
  std::vector<BasicBlock *> predecessors() const;

  /// Splits this block before \p Pos: instructions from \p Pos onwards move
  /// to a new block (inserted after this one) and this block gets an
  /// unconditional branch to it. Returns the new block.
  BasicBlock *splitBefore(Instruction *Pos, const std::string &NewName);

private:
  std::string Name;
  Function *Parent = nullptr;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

} // namespace khaos

#endif // KHAOS_IR_BASICBLOCK_H

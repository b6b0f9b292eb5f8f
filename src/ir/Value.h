//===- ir/Value.h - Values, constants and globals ---------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value is the root of everything an instruction can reference: constants,
/// globals, function arguments, functions themselves and instruction
/// results. Values track their users (instructions) so passes can run
/// replaceAllUsesWith and def-use queries — the backbone of fission's
/// input/output detection and fusion's call-site rewriting.
///
/// Def-use edges are intrusive, as LLVM's are: every operand slot of an
/// Instruction is a Use record, and the records referencing one value form
/// a doubly-linked list owned by that value. Linking, unlinking and
/// counting a use are O(1); nothing is allocated per edge.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_VALUE_H
#define KHAOS_IR_VALUE_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace khaos {

class Instruction;
class Function;
class Value;

/// One operand slot of an Instruction: the value it references and the
/// slot's links in that value's use list. An instruction's slots are one
/// array fixed at construction and never moved, so a Use's address is
/// stable for the instruction's lifetime.
class Use {
public:
  Value *get() const { return Val; }
  operator Value *() const { return Val; }
  Instruction *getUser() const { return User; }
  const Use *getPrev() const { return Prev; }
  const Use *getNext() const { return Next; }

private:
  friend class Value;
  friend class Instruction;
  Value *Val = nullptr;
  Use *Prev = nullptr;
  Use *Next = nullptr;
  Instruction *User = nullptr;
};

/// A begin/end pair for range-for.
template <typename It> class IteratorRange {
public:
  IteratorRange(It B, It E) : B(B), E(E) {}
  It begin() const { return B; }
  It end() const { return E; }

private:
  It B, E;
};

/// Walks a use list front to back, yielding each use's user.
class UserIterator {
public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Instruction *;
  using difference_type = std::ptrdiff_t;
  using pointer = Instruction *const *;
  using reference = Instruction *;

  explicit UserIterator(const Use *U = nullptr) : U(U) {}
  Instruction *operator*() const { return U->getUser(); }
  UserIterator &operator++() {
    U = U->getNext();
    return *this;
  }
  bool operator==(const UserIterator &O) const { return U == O.U; }
  bool operator!=(const UserIterator &O) const { return U != O.U; }

private:
  const Use *U;
};

/// Discriminator for the Value hierarchy.
enum class ValueKind : uint8_t {
  ConstantInt,
  ConstantFP,
  ConstantNull,
  ConstantTaggedFunc,
  GlobalVariable,
  Function,
  Argument,
  Instruction,
};

/// Root of the value hierarchy.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  /// Slots still referencing this value are cleared (a user that outlives
  /// it reads a null operand), so a module, function or block may free its
  /// values in any order without first dropping references.
  virtual ~Value();

  ValueKind getValueKind() const { return VKind; }
  Type *getType() const { return Ty; }
  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Instructions currently using this value as an operand, one entry per
  /// operand slot referencing it. The order is the order the slots were
  /// pointed at this value: a slot set by a constructor or setOperand goes
  /// to the back, and a slot pointed elsewhere leaves the list. Passes
  /// rewrite in this order. Iterating costs O(1) per entry; the range is
  /// invalidated by any operand change to this value, so callers that
  /// rewrite copy it first.
  IteratorRange<UserIterator> users() const {
    return {UserIterator(FirstUse), UserIterator()};
  }
  bool hasUses() const { return FirstUse != nullptr; }
  /// O(1).
  unsigned getNumUses() const { return NumUses; }
  /// The use list itself, for walking its links.
  const Use *firstUse() const { return FirstUse; }
  const Use *lastUse() const { return LastUse; }

  /// Rewrites every operand slot referencing this value to \p New, user by
  /// user in users() order and each user's slots in operand order.
  void replaceAllUsesWith(Value *New);

  bool isConstant() const {
    return VKind <= ValueKind::ConstantTaggedFunc;
  }

protected:
  Value(ValueKind VKind, Type *Ty, std::string Name = "")
      : Ty(Ty), Name(std::move(Name)), VKind(VKind) {}
  Type *Ty;

private:
  friend class Instruction;
  /// Appends \p U to this value's use list. O(1).
  void addUse(Use &U);
  /// Unlinks \p U from this value's use list. O(1).
  void removeUse(Use &U);

  std::string Name;
  Use *FirstUse = nullptr;
  Use *LastUse = nullptr;
  unsigned NumUses = 0;
  ValueKind VKind;
};

/// Common base for interned constants.
class Constant : public Value {
public:
  static bool classof(const Value *V) { return V->isConstant(); }

protected:
  using Value::Value;
};

/// An integer constant of any integer type.
class ConstantInt : public Constant {
public:
  int64_t getValue() const { return Val; }
  bool isZero() const { return Val == 0; }
  bool isOne() const { return Val == 1; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantInt;
  }

private:
  friend class Module;
  ConstantInt(Type *Ty, int64_t Val)
      : Constant(ValueKind::ConstantInt, Ty), Val(Val) {}
  int64_t Val;
};

/// A floating-point constant (f32 values are stored widened to double).
class ConstantFP : public Constant {
public:
  double getValue() const { return Val; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantFP;
  }

private:
  friend class Module;
  ConstantFP(Type *Ty, double Val)
      : Constant(ValueKind::ConstantFP, Ty), Val(Val) {}
  double Val;
};

/// The null pointer of a given pointer type.
class ConstantNull : public Constant {
public:
  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantNull;
  }

private:
  friend class Module;
  explicit ConstantNull(Type *Ty) : Constant(ValueKind::ConstantNull, Ty) {}
};

/// The address of \p F with fusion tag bits OR-ed into the low nibble.
///
/// Produced when fusion rewrites the address-taking of an aggregated
/// oriFunc. In a real toolchain this becomes a relocation whose addend
/// carries the tag (paper appendix A.1); our BinaryImage does the same.
class ConstantTaggedFunc : public Constant {
public:
  Function *getFunction() const { return Fn; }
  unsigned getTag() const { return Tag; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantTaggedFunc;
  }

private:
  friend class Module;
  ConstantTaggedFunc(Type *Ty, Function *Fn, unsigned Tag)
      : Constant(ValueKind::ConstantTaggedFunc, Ty), Fn(Fn), Tag(Tag) {}
  Function *Fn;
  unsigned Tag;
};

/// A module-level variable. Its Value type is pointer-to-ValueType; the
/// initializer is a flat list of scalar constants (empty = zeroinitializer).
class GlobalVariable : public Value {
public:
  Type *getValueType() const { return ValueType; }
  const std::vector<Constant *> &getInitializer() const { return Init; }
  void setInitializer(std::vector<Constant *> I) { Init = std::move(I); }
  bool isZeroInitialized() const { return Init.empty(); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::GlobalVariable;
  }

private:
  friend class Module;
  GlobalVariable(Type *PtrTy, Type *ValueType, std::string Name)
      : Value(ValueKind::GlobalVariable, PtrTy, std::move(Name)),
        ValueType(ValueType) {}
  Type *ValueType;
  std::vector<Constant *> Init;
};

/// A formal parameter of a Function.
class Argument : public Value {
public:
  Function *getParent() const { return Parent; }
  unsigned getArgNo() const { return ArgNo; }
  void setArgNo(unsigned N) { ArgNo = N; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Argument;
  }

private:
  friend class Function;
  Argument(Type *Ty, std::string Name, Function *Parent, unsigned ArgNo)
      : Value(ValueKind::Argument, Ty, std::move(Name)), Parent(Parent),
        ArgNo(ArgNo) {}
  Function *Parent;
  unsigned ArgNo;
};

} // namespace khaos

#endif // KHAOS_IR_VALUE_H

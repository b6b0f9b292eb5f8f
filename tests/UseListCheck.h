//===- tests/UseListCheck.h - Use-list integrity check for tests -*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// useListsIntact(M): walks the use list of every value a module defines or
/// references and checks it against the operand slots that exist. Each
/// record must be an operand slot of its user that references the list's
/// value, the Prev/Next links must agree and end at the value's head and
/// tail, and the list length and getNumUses() must both equal the number of
/// the module's operand slots that reference the value.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_TESTS_USELISTCHECK_H
#define KHAOS_TESTS_USELISTCHECK_H

#include "ir/Module.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace khaos {

inline ::testing::AssertionResult useListsIntact(const Module &M) {
  // Slots referencing each value, counted from the instructions' side.
  std::map<const Value *, unsigned> Slots;
  std::vector<const Value *> Values;
  auto Note = [&](const Value *V) {
    if (Slots.emplace(V, 0).second)
      Values.push_back(V);
  };
  for (const auto &G : M.globals())
    Note(G.get());
  for (const auto &F : M.functions()) {
    Note(F.get());
    for (const auto &A : F->args())
      Note(A.get());
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts()) {
        Note(I.get());
        for (const Value *Op : I->operands())
          if (Op) {
            Note(Op);
            ++Slots[Op];
          }
      }
  }

  auto Fail = [](const Value *V, const std::string &What) {
    return ::testing::AssertionFailure()
           << "use list of '" << V->getName() << "' (" << V << "): " << What;
  };
  for (const Value *V : Values) {
    unsigned Walked = 0;
    const Use *Prev = nullptr;
    for (const Use *U = V->firstUse(); U; Prev = U, U = U->getNext()) {
      if (++Walked > Slots[V])
        return Fail(V, "more records than slots referencing it");
      if (U->getPrev() != Prev)
        return Fail(V, "Prev link disagrees with the walk");
      if (U->get() != V)
        return Fail(V, "record references another value");
      const Instruction *User = U->getUser();
      bool IsSlot = false;
      for (unsigned S = 0, E = User->getNumOperands(); S != E; ++S)
        IsSlot |= &User->getOperandUse(S) == U;
      if (!IsSlot)
        return Fail(V, "record is not an operand slot of its user");
    }
    if (V->lastUse() != Prev)
      return Fail(V, "tail is not the last record");
    if (Walked != Slots[V] || V->getNumUses() != Slots[V])
      return Fail(V, "walked " + std::to_string(Walked) + " records, count " +
                         std::to_string(V->getNumUses()) + ", but " +
                         std::to_string(Slots[V]) + " slots reference it");
  }
  return ::testing::AssertionSuccess();
}

} // namespace khaos

#endif // KHAOS_TESTS_USELISTCHECK_H

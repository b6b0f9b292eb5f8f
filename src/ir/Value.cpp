//===- ir/Value.cpp - Values, constants and globals ------------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include "ir/Instruction.h"

#include <cassert>

using namespace khaos;

// Every operand slot of every instruction is one Use, so its size is the
// IR's memory per edge.
static_assert(sizeof(Use) == 4 * sizeof(void *), "a Use is four words");

Value::~Value() {
  for (Use *U = FirstUse; U;) {
    Use *Next = U->Next;
    U->Val = nullptr;
    U->Prev = U->Next = nullptr;
    U = Next;
  }
}

void Value::addUse(Use &U) {
  U.Prev = LastUse;
  U.Next = nullptr;
  if (LastUse)
    LastUse->Next = &U;
  else
    FirstUse = &U;
  LastUse = &U;
  ++NumUses;
}

void Value::removeUse(Use &U) {
  assert(U.Val == this && "removing a use of another value");
  if (U.Prev)
    U.Prev->Next = U.Next;
  else
    FirstUse = U.Next;
  if (U.Next)
    U.Next->Prev = U.Prev;
  else
    LastUse = U.Prev;
  U.Prev = U.Next = nullptr;
  --NumUses;
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with self");
  // Rewriting a user's slots unlinks all of them from this list, so the
  // head is always the next user still to rewrite.
  while (FirstUse) {
    Instruction *User = FirstUse->User;
    for (unsigned I = 0, E = User->getNumOperands(); I != E; ++I)
      if (User->getOperand(I) == this)
        User->setOperand(I, New);
  }
}

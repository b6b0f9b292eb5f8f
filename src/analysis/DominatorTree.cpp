//===- analysis/DominatorTree.cpp - Dominance analysis ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "ir/Function.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace khaos;

const std::vector<BasicBlock *> DominatorTree::Empty;

static void postorderVisit(BasicBlock *BB, std::set<BasicBlock *> &Seen,
                           std::vector<BasicBlock *> &Out) {
  if (!Seen.insert(BB).second)
    return;
  for (BasicBlock *S : BB->successors())
    postorderVisit(S, Seen, Out);
  Out.push_back(BB);
}

DominatorTree::DominatorTree(const Function &F) : F(F) {
  if (F.blocks().empty())
    return;

  // Reverse postorder from the entry.
  std::set<BasicBlock *> Seen;
  std::vector<BasicBlock *> Post;
  postorderVisit(F.getEntryBlock(), Seen, Post);
  RPO.assign(Post.rbegin(), Post.rend());
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    RPONumber[RPO[I]] = I;

  // Predecessors among reachable blocks, by RPO number, built once (each
  // predecessor listed once; RPO[0] is the entry).
  const unsigned N = RPO.size();
  std::vector<std::vector<unsigned>> Preds(N);
  for (unsigned I = 0; I != N; ++I)
    if (const Instruction *T = RPO[I]->getTerminator())
      for (BasicBlock *S : T->successors()) {
        std::vector<unsigned> &P = Preds[RPONumber[S]];
        if (P.empty() || P.back() != I)
          P.push_back(I);
      }

  // Cooper-Harvey-Kennedy iteration over RPO numbers.
  constexpr unsigned Undef = ~0u;
  std::vector<unsigned> Doms(N, Undef);
  Doms[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = Doms[A];
      while (B > A)
        B = Doms[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I != N; ++I) {
      unsigned NewIDom = Undef;
      for (unsigned P : Preds[I]) {
        if (Doms[P] == Undef)
          continue; // Unprocessed predecessor.
        NewIDom = NewIDom == Undef ? P : Intersect(NewIDom, P);
      }
      assert(NewIDom != Undef &&
             "reachable block without processed predecessor");
      if (Doms[I] != NewIDom) {
        Doms[I] = NewIDom;
        Changed = true;
      }
    }
  }

  // Entry's IDom is conventionally null; build children lists.
  IDom[RPO[0]] = nullptr;
  for (unsigned I = 1; I != N; ++I) {
    IDom[RPO[I]] = RPO[Doms[I]];
    Children[RPO[Doms[I]]].push_back(RPO[I]);
  }
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  auto It = IDom.find(BB);
  return It == IDom.end() ? nullptr : It->second;
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  const BasicBlock *Cur = B;
  while (Cur) {
    if (Cur == A)
      return true;
    Cur = getIDom(Cur);
  }
  return false;
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(const BasicBlock *BB) const {
  auto It = Children.find(BB);
  return It == Children.end() ? Empty : It->second;
}

std::vector<BasicBlock *>
DominatorTree::getSubtree(const BasicBlock *BB) const {
  std::vector<BasicBlock *> Out;
  if (!isReachable(BB))
    return Out;
  std::vector<const BasicBlock *> Work{BB};
  while (!Work.empty()) {
    const BasicBlock *Cur = Work.back();
    Work.pop_back();
    Out.push_back(const_cast<BasicBlock *>(Cur));
    for (BasicBlock *C : getChildren(Cur))
      Work.push_back(C);
  }
  return Out;
}

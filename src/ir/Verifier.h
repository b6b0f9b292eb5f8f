//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and dominance verification run after every front-end build
/// and after every transformation/obfuscation pass in tests. Obfuscation is
/// only trusted when the verifier stays green.
///
/// Dominance is the maximal fixpoint of Dom(b) = {b} + the intersection of
/// Dom(p) over b's predecessors, where every predecessor-less block (the
/// entry, and any dead block without predecessors) is a root with
/// Dom(b) = {b}. Equivalently: Cooper-Harvey-Kennedy over a virtual root
/// with an edge to each such block. Consequences:
///  - a dead predecessor-less block that branches into a reachable join
///    narrows the join's dominators, so an entry def used in the join is
///    rejected;
///  - a block that no root reaches (e.g. an unreachable cycle) is
///    dominated by every block, so any use of a def of F there is
///    accepted.
/// A def whose parent is the using block but that is not in the block's
/// list counts as used before it is defined.
///
/// Cost per function: O(I + E) to index instructions and edges plus the
/// CHK iteration (near-linear on reducible CFGs); each dominance query is
/// O(1) against dominator-tree preorder intervals. Dominance is checked
/// only when the structural checks pass.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_IR_VERIFIER_H
#define KHAOS_IR_VERIFIER_H

#include <string>
#include <vector>

namespace khaos {

class Module;
class Function;

/// Verifies \p F; appends human-readable problems to \p Errors. Returns
/// true when no problems were found.
bool verifyFunction(const Function &F, std::vector<std::string> &Errors);

/// Verifies all definitions in \p M. Returns true when clean.
bool verifyModule(const Module &M, std::vector<std::string> &Errors);

/// Convenience wrapper; returns the problems (empty when clean).
std::vector<std::string> verifyModule(const Module &M);

} // namespace khaos

#endif // KHAOS_IR_VERIFIER_H

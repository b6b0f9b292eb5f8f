//===- transform/Cloning.h - IR cloning utilities ---------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function-body and whole-module cloning, shared by the inliner and the
/// evaluation pipeline's module cache. Both read their source only.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_TRANSFORM_CLONING_H
#define KHAOS_TRANSFORM_CLONING_H

#include <memory>
#include <vector>

namespace khaos {

class BasicBlock;
class Function;
class Module;
class Value;

/// Clones every block of \p Src into \p Dst, block names suffixed ".i".
/// \p Args holds the replacement for each of Src's arguments, by position;
/// Src's instructions map to their copies and every other operand
/// (constants, globals, functions) is kept. Cloned blocks are appended to
/// \p Dst and returned in source order.
std::vector<BasicBlock *> cloneFunctionBlocks(const Function &Src,
                                              Function &Dst,
                                              const std::vector<Value *> &Args);

/// Deep-copies \p Src into a fresh Module that shares Src's Context (types
/// are interned per Context, so sharing it makes the copy remap-free for
/// types; Context interning is mutex-guarded, so clones may be transformed
/// concurrently). Function/global/block order, all symbol and value names,
/// per-function flags, provenance, the uniqueName() counters and the order
/// of every use list are preserved exactly: a pass run on the clone
/// produces byte-identical printed IR to the same pass run on \p Src.
/// Constants are re-interned in the new module, so the clone's lifetime is
/// independent of \p Src — only the Context must outlive it.
///
/// This is what lets the evaluation pipeline cache the fission-stage module
/// once per workload and hand each FuFi mode its own mutable copy.
///
/// \p Src is only read, so any number of threads may clone one module at
/// once (while no thread mutates it). Cost is linear in the module size.
std::unique_ptr<Module> cloneModule(const Module &Src);

} // namespace khaos

#endif // KHAOS_TRANSFORM_CLONING_H

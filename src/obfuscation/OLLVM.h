//===- obfuscation/OLLVM.h - O-LLVM-style baselines -------------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's comparison targets, reimplemented after O-LLVM (Junod et
/// al., SPRO'15): instruction substitution (Sub), bogus control flow with
/// opaque predicates (Bog) and control-flow flattening (Fla). All are
/// intra-procedural — the class of obfuscation the paper argues is no
/// longer sufficient.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_OBFUSCATION_OLLVM_H
#define KHAOS_OBFUSCATION_OLLVM_H

#include <cstdint>

namespace khaos {

class Module;

/// Ratio is the fraction of eligible sites/functions transformed
/// (O-LLVM's -mllvm -*_prob knobs; the paper runs Sub/Bog at 100% and Fla
/// at 100% or 10%).
struct OLLVMOptions {
  double Ratio = 1.0;
  uint64_t Seed = 0xb0b;
};

/// Per-pass potency/cost telemetry (after Chakravyuha's ReportData).
/// Every pass accumulates into the same report so a mode that chains
/// several primitives still yields one rolled-up line; BytesGrown uses a
/// nominal 4 bytes per KIR instruction so growth is comparable across
/// modes.
struct PassReport {
  unsigned SitesRewritten = 0;   ///< Binary ops MBA-rewritten / calls made indirect.
  unsigned StringsEncrypted = 0; ///< Global byte arrays encrypted by StrEnc.
  unsigned BlocksSplit = 0;      ///< Original blocks that received >= 1 split.
  unsigned BlocksInserted = 0;   ///< New blocks added (split tails, decode stubs).
  uint64_t BytesGrown = 0;       ///< Instruction-count growth * 4.

  void merge(const PassReport &O) {
    SitesRewritten += O.SitesRewritten;
    StringsEncrypted += O.StringsEncrypted;
    BlocksSplit += O.BlocksSplit;
    BlocksInserted += O.BlocksInserted;
    BytesGrown += O.BytesGrown;
  }
  bool empty() const {
    return !SitesRewritten && !StringsEncrypted && !BlocksSplit &&
           !BlocksInserted && !BytesGrown;
  }
};

/// Every pass below returns its transformation count and, given a
/// \p Report, accumulates its telemetry into it (one signature, so the
/// mode table can name any of them as a mode's primitive step).

/// Instruction substitution: integer add/sub/xor/and/or are replaced by
/// equivalent multi-instruction idioms. Reports each rewrite as a site.
unsigned runSubstitution(Module &M, const OLLVMOptions &Opts = {},
                         PassReport *Report = nullptr);

/// Bogus control flow: blocks are guarded by an always-true opaque
/// predicate on global state; the false edge leads to a scrambled clone
/// that is never executed. Reports each twin as one split block plus two
/// inserted blocks (the split tail and the clone).
unsigned runBogusControlFlow(Module &M, const OLLVMOptions &Opts = {},
                             PassReport *Report = nullptr);

/// Control-flow flattening: function bodies become a switch dispatcher
/// driven by a state variable. Reports nothing.
unsigned runFlattening(Module &M, const OLLVMOptions &Opts = {},
                       PassReport *Report = nullptr);

/// Mixed boolean-arithmetic substitution: integer add/sub/xor/and/or are
/// rewritten through MBA identities, and the helper ops those identities
/// introduce are recursively rewritten again (depth 2-3), producing much
/// deeper chains than runSubstitution's single-level strategies.
unsigned runMBASubstitution(Module &M, const OLLVMOptions &Opts = {},
                            PassReport *Report = nullptr);

/// String/constant encryption: i8-array global initializers are XOR
/// encrypted with a per-global key and a runtime decode stub (guarded by a
/// once flag) is called on entry to main. Requires a defined main; returns
/// 0 and leaves the module untouched otherwise.
unsigned runStringEncryption(Module &M, const OLLVMOptions &Opts = {},
                             PassReport *Report = nullptr);

/// Direct-to-indirect call rewriting: eligible direct call sites are
/// routed through a module-level dispatch table of function addresses in
/// shuffled order (load + inttoptr + indirect call).
unsigned runIndirectCalls(Module &M, const OLLVMOptions &Opts = {},
                          PassReport *Report = nullptr);

/// Split-basic-block: each eligible block is split at 1-3 random points.
/// On its own this only perturbs shape (pair it with a post-opt pipeline
/// that skips simplifycfg or the merges undo it); its real use is as a
/// pre-pass giving Fla/Bog more blocks to work with.
unsigned runSplitBasicBlocks(Module &M, const OLLVMOptions &Opts = {},
                             PassReport *Report = nullptr);

} // namespace khaos

#endif // KHAOS_OBFUSCATION_OLLVM_H

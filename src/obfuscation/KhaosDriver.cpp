//===- obfuscation/KhaosDriver.cpp - Obfuscation mode driver --------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "obfuscation/KhaosDriver.h"

#include "ir/Module.h"
#include "obfuscation/OLLVM.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>

using namespace khaos;

//===----------------------------------------------------------------------===//
// The mode table: one row per ObfuscationMode, in figure-legend order.
// Every per-mode fact — name, evaluated roster, fission prefix, fusion
// candidate set, primitive step, post-opt flavour — lives here and nowhere
// else.
//===----------------------------------------------------------------------===//

namespace {

/// Which functions a mode's fusion step may merge.
enum class FusionSet : uint8_t {
  None,   ///< No fusion step.
  All,    ///< Every candidate FusionOptions admits (plain Fusion).
  Sep,    ///< Only the sepFuncs fission created (FuFi.sep).
  Ori,    ///< Only functions fission left untouched (FuFi.ori).
  OriSep, ///< Both, untouched oriFuncs first (FuFi.all).
};

using PrimitiveFn = unsigned (*)(Module &, const OLLVMOptions &,
                                 PassReport *);

/// A mode's O-LLVM-style primitive step.
struct PrimitiveStep {
  const char *Name = nullptr; ///< Step name; nullptr = no primitive.
  PrimitiveFn Run = nullptr;
  double Ratio = 1.0;         ///< OLLVMOptions::Ratio.
};

struct ModeRow {
  ObfuscationMode Mode;
  const char *Name;
  bool Evaluated;   ///< Listed by allObfuscationModes().
  bool Fission;     ///< Pipeline starts with the fission prefix.
  FusionSet Fusion;
  PrimitiveStep Primitive = {};
  /// Post-opt runs the cleanup-only CFG pass in simplifycfg's slot:
  /// simplifycfg's threading/merging would stitch every SplitBB cut
  /// straight back together, but its unreachable-block removal is still
  /// required (the inliner leaves dead continuation blocks that fail the
  /// verifier's dominance check).
  bool CleanupOnlyCFG = false;
};

/// Step order within a mode: fission, fusion, primitive, registered extra
/// passes, post-opt.
const ModeRow ModeTable[] = {
    // {Mode, Name, Evaluated, Fission, Fusion,
    //  {primitive step, pass, ratio}, CleanupOnlyCFG}
    {ObfuscationMode::None, "None", false, false, FusionSet::None},
    {ObfuscationMode::Sub, "Sub", true, false, FusionSet::None,
     {"substitution", runSubstitution}},
    {ObfuscationMode::Bog, "Bog", true, false, FusionSet::None,
     {"bogus-cfg", runBogusControlFlow}},
    {ObfuscationMode::Fla, "Fla", false, false, FusionSet::None,
     {"flattening", runFlattening}},
    {ObfuscationMode::Fla10, "Fla-10", true, false, FusionSet::None,
     {"flattening", runFlattening, 0.1}},
    {ObfuscationMode::MBA, "MBA", true, false, FusionSet::None,
     {"mba", runMBASubstitution}},
    {ObfuscationMode::StrEnc, "StrEnc", true, false, FusionSet::None,
     {"string-encryption", runStringEncryption}},
    {ObfuscationMode::IndCall, "IndCall", true, false, FusionSet::None,
     {"indirect-calls", runIndirectCalls}},
    {ObfuscationMode::SplitBB, "SplitBB", true, false, FusionSet::None,
     {"split-blocks", runSplitBasicBlocks}, /*CleanupOnlyCFG=*/true},
    {ObfuscationMode::Fission, "Fission", true, true, FusionSet::None},
    {ObfuscationMode::Fusion, "Fusion", true, false, FusionSet::All},
    {ObfuscationMode::FuFiSep, "FuFi.sep", true, true, FusionSet::Sep},
    {ObfuscationMode::FuFiOri, "FuFi.ori", true, true, FusionSet::Ori},
    {ObfuscationMode::FuFiAll, "FuFi.all", true, true, FusionSet::OriSep},
};

const ModeRow *findRow(ObfuscationMode Mode) {
  for (const ModeRow &Row : ModeTable)
    if (Row.Mode == Mode)
      return &Row;
  return nullptr;
}

const ModeRow &rowOf(ObfuscationMode Mode) {
  const ModeRow *Row = findRow(Mode);
  assert(Row && "ObfuscationMode missing from the mode table");
  return Row ? *Row : ModeTable[0];
}

} // namespace

const std::vector<ObfuscationMode> &khaos::allObfuscationModes() {
  static const std::vector<ObfuscationMode> Modes = [] {
    std::vector<ObfuscationMode> Out;
    for (const ModeRow &Row : ModeTable)
      if (Row.Evaluated)
        Out.push_back(Row.Mode);
    return Out;
  }();
  return Modes;
}

const char *khaos::obfuscationModeName(ObfuscationMode Mode) {
  const ModeRow *Row = findRow(Mode);
  return Row ? Row->Name : "?";
}

bool khaos::isKnownObfuscationMode(ObfuscationMode Mode) {
  return findRow(Mode) != nullptr;
}

bool khaos::parseObfuscationModeName(const std::string &Name,
                                     ObfuscationMode &Out) {
  auto Canon = [](const std::string &S) {
    std::string C;
    for (char Ch : S) {
      if (Ch == '.' || Ch == '-' || Ch == '_')
        continue;
      C += static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
    }
    return C;
  };
  const std::string Want = Canon(Name);
  for (const ModeRow &Row : ModeTable)
    if (Canon(Row.Name) == Want) {
      Out = Row.Mode;
      return true;
    }
  return false;
}

bool khaos::modeUsesFission(ObfuscationMode Mode) {
  const ModeRow *Row = findRow(Mode);
  return Row && Row->Fission;
}

FissionPhase khaos::runFissionPhase(Module &M, const FissionOptions &Opts) {
  FissionPhase Phase;
  // Functions that lose a region to fission are tracked by name (via their
  // instruction-count delta) for the FuFi.ori candidate set.
  std::map<std::string, size_t> SizeBefore;
  for (const auto &F : M.functions())
    SizeBefore[F->getName()] = F->instructionCount();
  Phase.SepFuncs = runFission(M, Phase.Stats, Opts);
  std::set<std::string> SepSet(Phase.SepFuncs.begin(), Phase.SepFuncs.end());
  for (const auto &F : M.functions()) {
    if (SepSet.count(F->getName()))
      continue;
    auto It = SizeBefore.find(F->getName());
    if (It != SizeBefore.end() && F->instructionCount() != It->second)
      Phase.ProcessedFuncs.insert(F->getName());
  }
  return Phase;
}

//===----------------------------------------------------------------------===//
// Step lists. Every public entry point — obfuscateModule, finishFissionMode
// and the obfuscateModulePrefix bisection hook — executes the same flat
// sequence of named steps, so a bisection prefix is a true prefix of the
// production pipeline.
//===----------------------------------------------------------------------===//

namespace {

/// One named step of a mode's pipeline. Run mutates the module and folds
/// its statistics into the shared StepState.
struct ObfStep {
  std::string Name;
  std::function<void(Module &)> Run;
};

/// State threaded through a step list: the accumulated result plus the
/// fission phase output the fusion step keys its candidate set on.
struct StepState {
  ObfuscationResult R;
  FissionPhase Phase;
  bool HavePhase = false;
};

std::mutex ExtraPassMutex;
std::vector<std::pair<std::string, std::function<std::unique_ptr<Pass>()>>>
    &extraPasses() {
  static std::vector<
      std::pair<std::string, std::function<std::unique_ptr<Pass>()>>>
      Passes;
  return Passes;
}

/// Fission-untouched fusion candidates: eligible functions fission did
/// not touch, in module order (fusion's candidate ordering is part of the
/// reproducible-output contract).
std::vector<std::string> namesOfUnprocessed(const Module &M,
                                            const FissionPhase &Phase) {
  std::set<std::string> SepSet(Phase.SepFuncs.begin(), Phase.SepFuncs.end());
  std::vector<std::string> Out;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration() || F->isIntrinsic() || F->isNoObfuscate())
      continue;
    if (Phase.ProcessedFuncs.count(F->getName()) ||
        SepSet.count(F->getName()))
      continue;
    Out.push_back(F->getName());
  }
  return Out;
}

/// The FuFi candidate set \p Set names, over \p M after fission.
std::vector<std::string> fusionCandidates(const Module &M,
                                          const FissionPhase &Phase,
                                          FusionSet Set) {
  std::vector<std::string> Out;
  if (Set == FusionSet::Ori || Set == FusionSet::OriSep)
    Out = namesOfUnprocessed(M, Phase);
  if (Set == FusionSet::Sep || Set == FusionSet::OriSep)
    Out.insert(Out.end(), Phase.SepFuncs.begin(), Phase.SepFuncs.end());
  return Out;
}

/// Builds the step list of (Mode, Opts) from the mode's table row. When
/// \p IncludeFission is false the caller has already run the fission
/// prefix (finishFissionMode over a cached fission-stage artifact) and
/// \p State->Phase is preset.
std::vector<ObfStep> buildSteps(ObfuscationMode Mode,
                                const KhaosOptions &Opts,
                                std::shared_ptr<StepState> State,
                                bool IncludeFission) {
  const ModeRow &Row = rowOf(Mode);
  std::vector<ObfStep> Steps;

  if (Row.Fission && IncludeFission)
    Steps.push_back({"fission", [State, Opts](Module &M) {
                       State->Phase = runFissionPhase(M, Opts.Fission);
                       State->HavePhase = true;
                       State->R.Fission = State->Phase.Stats;
                     }});
  if (Row.Fusion != FusionSet::None)
    Steps.push_back({"fusion", [State, Opts, Set = Row.Fusion](Module &M) {
                       FusionOptions FuOpt = Opts.Fusion;
                       FuOpt.Seed = Opts.Seed;
                       if (Set != FusionSet::All) {
                         assert(State->HavePhase &&
                                "fusion step needs the fission phase");
                         FuOpt.RestrictTo =
                             fusionCandidates(M, State->Phase, Set);
                       }
                       runFusion(M, State->R.Fusion, FuOpt);
                     }});
  if (const PrimitiveStep &P = Row.Primitive; P.Run)
    Steps.push_back({P.Name, [State, Seed = Opts.Seed, P](Module &M) {
                       OLLVMOptions Base;
                       Base.Seed = Seed;
                       Base.Ratio = P.Ratio;
                       State->R.BaselineSites =
                           P.Run(M, Base, &State->R.Report);
                     }});

  {
    std::lock_guard<std::mutex> Lock(ExtraPassMutex);
    for (const auto &Extra : extraPasses()) {
      std::function<std::unique_ptr<Pass>()> Factory = Extra.second;
      Steps.push_back({"extra:" + Extra.first, [Factory](Module &M) {
                         Factory()->run(M);
                       }});
    }
  }

  if (Opts.RunPostOpt) {
    std::map<std::string, unsigned> Occurrence;
    for (auto &P : buildOptPassList(Opts.PostOptLevel)) {
      if (Row.CleanupOnlyCFG && std::string(P->getName()) == "simplifycfg")
        P = createCFGCleanupPass();
      unsigned K = ++Occurrence[P->getName()];
      std::shared_ptr<Pass> SP = std::move(P);
      Steps.push_back({"post-opt:" + std::string(SP->getName()) + "#" +
                           std::to_string(K),
                       [SP](Module &M) { SP->run(M); }});
    }
  }
  return Steps;
}

} // namespace

ObfuscationResult khaos::finishFissionMode(Module &M, ObfuscationMode Mode,
                                           const KhaosOptions &Opts,
                                           const FissionPhase &Phase) {
  assert(modeUsesFission(Mode) && "mode has no fission prefix");
  auto State = std::make_shared<StepState>();
  State->Phase = Phase;
  State->HavePhase = true;
  State->R.Fission = Phase.Stats;
  for (const ObfStep &S :
       buildSteps(Mode, Opts, State, /*IncludeFission=*/false))
    S.Run(M);
  return State->R;
}

std::vector<std::string>
khaos::obfuscationStepNames(ObfuscationMode Mode, const KhaosOptions &Opts) {
  auto State = std::make_shared<StepState>();
  std::vector<std::string> Names;
  for (const ObfStep &S :
       buildSteps(Mode, Opts, State, /*IncludeFission=*/true))
    Names.push_back(S.Name);
  return Names;
}

ObfuscationResult khaos::obfuscateModulePrefix(Module &M,
                                               ObfuscationMode Mode,
                                               const KhaosOptions &Opts,
                                               size_t NumSteps) {
  auto State = std::make_shared<StepState>();
  std::vector<ObfStep> Steps =
      buildSteps(Mode, Opts, State, /*IncludeFission=*/true);
  for (size_t I = 0, E = std::min(NumSteps, Steps.size()); I != E; ++I)
    Steps[I].Run(M);
  return State->R;
}

ObfuscationResult khaos::obfuscateModule(Module &M, ObfuscationMode Mode,
                                         const KhaosOptions &Opts) {
  return obfuscateModulePrefix(M, Mode, Opts,
                               std::numeric_limits<size_t>::max());
}

void khaos::registerExtraObfuscationPass(
    const std::string &Name,
    std::function<std::unique_ptr<Pass>()> Factory) {
  std::lock_guard<std::mutex> Lock(ExtraPassMutex);
  extraPasses().emplace_back(Name, std::move(Factory));
}

void khaos::clearExtraObfuscationPasses() {
  std::lock_guard<std::mutex> Lock(ExtraPassMutex);
  extraPasses().clear();
}

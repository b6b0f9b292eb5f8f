//===- tests/DifferentialFuzzTest.cpp - Differential fuzzer tests -----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzer's own correctness net. The centerpiece plants a
/// deliberately broken obfuscation pass — registered only in this test
/// binary via registerExtraObfuscationPass — and asserts the fuzzer finds
/// the divergence, the shrinker converges to the minimal generator spec,
/// the pass bisection names exactly the planted pass, and the emitted
/// repro replays. The remaining cases pin the step-sequence contract
/// (prefix-running the full step list is obfuscateModule) and the
/// end-to-end determinism guarantee (bit-identical output at any thread
/// count).
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "harness/DifferentialFuzzer.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "vm/Interpreter.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

using namespace khaos;

namespace {

/// The planted bug: rewrites every integer multiply in the module into an
/// add — a silent semantic change of the kind a buggy obfuscation pass
/// would introduce. Registered only in this binary.
class PlantedMulFlip : public Pass {
public:
  const char *getName() const override { return "planted-mul-flip"; }
  bool run(Module &M) override {
    bool Changed = false;
    for (const auto &F : M.functions()) {
      if (F->isDeclaration())
        continue;
      for (const auto &BB : F->blocks()) {
        // Snapshot: the rewrite inserts and erases instructions.
        std::vector<BinaryInst *> Sites;
        for (const auto &I : BB->insts()) {
          auto *B = dyn_cast<BinaryInst>(I.get());
          if (B && B->getBinOp() == BinOp::Mul && !B->isFloatOp())
            Sites.push_back(B);
        }
        for (BinaryInst *B : Sites) {
          IRBuilder Bld(M);
          Bld.setInsertBefore(B);
          Value *NewV = Bld.createBinOp(BinOp::Add, B->getLHS(),
                                        B->getRHS());
          if (B->hasUses())
            B->replaceAllUsesWith(NewV);
          B->eraseFromParent();
          Changed = true;
        }
      }
    }
    return Changed;
  }
};

/// Registers the planted pass for the test's lifetime only: every other
/// case in this binary (and every other binary) sees a clean pipeline.
class PlantedDivergenceTest : public ::testing::Test {
protected:
  void SetUp() override {
    registerExtraObfuscationPass(
        "planted-mul-flip", [] { return std::make_unique<PlantedMulFlip>(); });
  }
  void TearDown() override { clearExtraObfuscationPasses(); }
};

DifferentialFuzzer::Config plantedConfig(std::ostream *Out,
                                         unsigned Threads) {
  DifferentialFuzzer::Config Cfg;
  Cfg.Seed = 0x7e57;
  Cfg.Budget = 3;
  Cfg.Threads = Threads;
  Cfg.Modes = {ObfuscationMode::Sub};
  Cfg.Out = Out;
  return Cfg;
}

TEST_F(PlantedDivergenceTest, FuzzerFindsShrinksAndBisectsThePlantedPass) {
  std::ostringstream OS;
  DifferentialFuzzer Fuzzer(plantedConfig(&OS, 2));
  FuzzReport Report = Fuzzer.run();

  // The flip perturbs the printed checksum of essentially every program.
  ASSERT_FALSE(Report.Divergences.empty());
  EXPECT_EQ(Report.BaselineErrors, 0u);

  const FuzzDivergence &D = Report.Divergences.front();
  // The shrinker must converge to the generator's floor: the bug lives in
  // every function body, so nothing blocks full reduction.
  EXPECT_EQ(D.Shrunk.Spec.NumFunctions, 3u);
  EXPECT_EQ(D.Shrunk.Spec.MainIterations, 1u);
  EXPECT_FALSE(D.Shrunk.Spec.UseExceptions);
  EXPECT_FALSE(D.Shrunk.Spec.UseSetjmp);

  // The bisection names exactly the planted pass — not substitution
  // before it, not the post-opt passes after it.
  EXPECT_EQ(D.Shrunk.GuiltyStep, "extra:planted-mul-flip");
  ASSERT_GT(D.Shrunk.GuiltyStepIndex, 0u);
  std::vector<std::string> Steps =
      obfuscationStepNames(ObfuscationMode::Sub);
  ASSERT_LE(D.Shrunk.GuiltyStepIndex, Steps.size());
  EXPECT_EQ(Steps[D.Shrunk.GuiltyStepIndex - 1], D.Shrunk.GuiltyStep);

  // The repro is self-contained: replaying it reproduces a divergence.
  std::string Error;
  EXPECT_NE(DifferentialFuzzer::replayRepro(D.ReproText, Error),
            DivergenceKind::None)
      << Error;
}

TEST_F(PlantedDivergenceTest, VerdictsAndReprosAreThreadCountInvariant) {
  std::ostringstream A, B;
  FuzzReport RA = DifferentialFuzzer(plantedConfig(&A, 1)).run();
  FuzzReport RB = DifferentialFuzzer(plantedConfig(&B, 4)).run();
  EXPECT_EQ(A.str(), B.str());
  ASSERT_EQ(RA.Divergences.size(), RB.Divergences.size());
  for (size_t I = 0; I != RA.Divergences.size(); ++I) {
    EXPECT_EQ(RA.Divergences[I].ReproText, RB.Divergences[I].ReproText);
    EXPECT_EQ(RA.Divergences[I].ReproName, RB.Divergences[I].ReproName);
  }
}

//===----------------------------------------------------------------------===//
// Step-sequence contract (the bisection's foundation).
//===----------------------------------------------------------------------===//

TEST(ObfuscationSteps, FullPrefixIsExactlyObfuscateModule) {
  ProgramSpec S = DifferentialFuzzer::sampleSpec(0xabc, 2);
  std::string Source = generateMiniCProgram(S);
  for (ObfuscationMode Mode :
       {ObfuscationMode::Sub, ObfuscationMode::Fusion,
        ObfuscationMode::FuFiAll}) {
    Context CtxA, CtxB;
    std::string Error;
    auto A = compileMiniC(Source, CtxA, S.Name, Error);
    auto B = compileMiniC(Source, CtxB, S.Name, Error);
    ASSERT_TRUE(A && B) << Error;
    KhaosOptions Opts;
    Opts.Seed = 0x5eed;
    obfuscateModule(*A, Mode, Opts);
    size_t N = obfuscationStepNames(Mode, Opts).size();
    obfuscateModulePrefix(*B, Mode, Opts, N);
    EXPECT_EQ(printModule(*A), printModule(*B))
        << "mode " << obfuscationModeName(Mode);
  }
}

TEST(ObfuscationSteps, NamesMatchTheModePipeline) {
  KhaosOptions Opts;
  std::vector<std::string> Sub =
      obfuscationStepNames(ObfuscationMode::Sub, Opts);
  ASSERT_FALSE(Sub.empty());
  EXPECT_EQ(Sub.front(), "substitution");
  EXPECT_EQ(Sub[1], "post-opt:simplifycfg#1");

  std::vector<std::string> FuFi =
      obfuscationStepNames(ObfuscationMode::FuFiAll, Opts);
  ASSERT_GE(FuFi.size(), 2u);
  EXPECT_EQ(FuFi[0], "fission");
  EXPECT_EQ(FuFi[1], "fusion");

  // Fission alone has no fusion step.
  std::vector<std::string> Fission =
      obfuscationStepNames(ObfuscationMode::Fission, Opts);
  EXPECT_EQ(Fission.front(), "fission");
  EXPECT_EQ(std::count(Fission.begin(), Fission.end(), "fusion"), 0);

  // Disabling post-opt strips the post-opt steps, nothing else.
  KhaosOptions NoPost;
  NoPost.RunPostOpt = false;
  EXPECT_EQ(obfuscationStepNames(ObfuscationMode::Sub, NoPost).size(), 1u);

  // The extra-pass hook appears between the primitive and post-opt.
  registerExtraObfuscationPass(
      "planted-mul-flip", [] { return std::make_unique<PlantedMulFlip>(); });
  std::vector<std::string> WithExtra =
      obfuscationStepNames(ObfuscationMode::Sub, Opts);
  clearExtraObfuscationPasses();
  ASSERT_GE(WithExtra.size(), 2u);
  EXPECT_EQ(WithExtra[0], "substitution");
  EXPECT_EQ(WithExtra[1], "extra:planted-mul-flip");
  EXPECT_EQ(WithExtra.size(), Sub.size() + 1);
}

/// Every ObfuscationMode enumerator in declaration order. The values are
/// the KEV1 mode byte and part of every ArtifactKey fingerprint, so the
/// enum is append-only: a new mode goes at the end of this list too.
const ObfuscationMode EveryMode[] = {
    ObfuscationMode::None,    ObfuscationMode::Sub,
    ObfuscationMode::Bog,     ObfuscationMode::Fla,
    ObfuscationMode::Fla10,   ObfuscationMode::Fission,
    ObfuscationMode::Fusion,  ObfuscationMode::FuFiSep,
    ObfuscationMode::FuFiOri, ObfuscationMode::FuFiAll,
    ObfuscationMode::MBA,     ObfuscationMode::StrEnc,
    ObfuscationMode::IndCall, ObfuscationMode::SplitBB,
};

/// Bisection prefixes, repros and `khaos-fuzz --list-steps` all address
/// steps by name, so every mode's step list is pinned here.
TEST(ObfuscationSteps, NamesArePinnedForEveryMode) {
  // Mode-specific lead steps, then the O2 post-opt pipeline (SplitBB runs
  // the cleanup-only CFG pass in simplifycfg's slots).
  auto Steps = [](std::vector<std::string> Lead,
                  const std::string &CFG = "simplifycfg") {
    for (const std::string &P :
         {CFG + "#1", std::string("constfold#1"), std::string("dce#1"),
          std::string("lvn#1"), std::string("loadfwd#1"),
          std::string("dce#2"), std::string("inline#1"), CFG + "#2",
          std::string("constfold#2"), std::string("lvn#2"),
          std::string("loadfwd#2"), std::string("dce#3")})
      Lead.push_back("post-opt:" + P);
    return Lead;
  };
  const std::pair<ObfuscationMode, std::vector<std::string>> Pinned[] = {
      {ObfuscationMode::None, Steps({})},
      {ObfuscationMode::Sub, Steps({"substitution"})},
      {ObfuscationMode::Bog, Steps({"bogus-cfg"})},
      {ObfuscationMode::Fla, Steps({"flattening"})},
      {ObfuscationMode::Fla10, Steps({"flattening"})},
      {ObfuscationMode::Fission, Steps({"fission"})},
      {ObfuscationMode::Fusion, Steps({"fusion"})},
      {ObfuscationMode::FuFiSep, Steps({"fission", "fusion"})},
      {ObfuscationMode::FuFiOri, Steps({"fission", "fusion"})},
      {ObfuscationMode::FuFiAll, Steps({"fission", "fusion"})},
      {ObfuscationMode::MBA, Steps({"mba"})},
      {ObfuscationMode::StrEnc, Steps({"string-encryption"})},
      {ObfuscationMode::IndCall, Steps({"indirect-calls"})},
      {ObfuscationMode::SplitBB, Steps({"split-blocks"}, "cfg-cleanup")},
  };
  ASSERT_EQ(std::size(Pinned), std::size(EveryMode));
  for (const auto &[Mode, Expected] : Pinned)
    EXPECT_EQ(obfuscationStepNames(Mode), Expected)
        << obfuscationModeName(Mode);
}

//===----------------------------------------------------------------------===//
// Clean-pipeline behaviour and plumbing.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzzer, CleanPipelineProducesNoDivergences) {
  std::ostringstream OS;
  DifferentialFuzzer::Config Cfg;
  Cfg.Seed = 0x11;
  Cfg.Budget = 2;
  Cfg.Threads = 2;
  Cfg.Out = &OS;
  FuzzReport Report = DifferentialFuzzer(Cfg).run();
  EXPECT_TRUE(Report.Divergences.empty());
  EXPECT_EQ(Report.BaselineErrors, 0u);
  EXPECT_EQ(Report.Passes, Report.Cells);
  EXPECT_NE(OS.str().find("summary seed=0x11"), std::string::npos);
}

TEST(DifferentialFuzzer, SampleSpecIsPureAndSweepsTheCorners) {
  bool SawEH = false, SawSetjmp = false, SawDeepLoop = false;
  for (unsigned I = 0; I != 64; ++I) {
    ProgramSpec A = DifferentialFuzzer::sampleSpec(42, I);
    ProgramSpec B = DifferentialFuzzer::sampleSpec(42, I);
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.Seed, B.Seed);
    EXPECT_EQ(A.NumFunctions, B.NumFunctions);
    EXPECT_GE(A.NumFunctions, 3u);
    SawEH |= A.UseExceptions;
    SawSetjmp |= A.UseSetjmp;
    SawDeepLoop |= A.MaxLoopDepth > 2; // Past the fixed suites' depth.
  }
  EXPECT_TRUE(SawEH);
  EXPECT_TRUE(SawSetjmp);
  EXPECT_TRUE(SawDeepLoop);
  // Different base seeds sample different programs.
  EXPECT_NE(DifferentialFuzzer::sampleSpec(1, 0).Seed,
            DifferentialFuzzer::sampleSpec(2, 0).Seed);
}

TEST(DifferentialFuzzer, ReplayRejectsMalformedRepros) {
  std::string Error;
  EXPECT_EQ(DifferentialFuzzer::replayRepro("not a repro\n", Error),
            DivergenceKind::None);
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_EQ(DifferentialFuzzer::replayRepro(
                "# khaos-fuzz repro v1\n# mode: Sub\n", Error),
            DivergenceKind::None);
  EXPECT_FALSE(Error.empty());
}

TEST(DifferentialFuzzer, ParseObfuscationModeNames) {
  ObfuscationMode M;
  ASSERT_TRUE(parseObfuscationModeName("FuFi.all", M));
  EXPECT_EQ(M, ObfuscationMode::FuFiAll);
  ASSERT_TRUE(parseObfuscationModeName("fufi_all", M));
  EXPECT_EQ(M, ObfuscationMode::FuFiAll);
  ASSERT_TRUE(parseObfuscationModeName("fla-10", M));
  EXPECT_EQ(M, ObfuscationMode::Fla10);
  ASSERT_TRUE(parseObfuscationModeName("sub", M));
  EXPECT_EQ(M, ObfuscationMode::Sub);
  EXPECT_FALSE(parseObfuscationModeName("nope", M));
}

TEST(DifferentialFuzzer, EveryModeNameRoundTrips) {
  for (size_t I = 0; I != std::size(EveryMode); ++I) {
    const ObfuscationMode Mode = EveryMode[I];
    EXPECT_EQ(static_cast<size_t>(Mode), I);
    EXPECT_TRUE(isKnownObfuscationMode(Mode));
    const std::string Name = obfuscationModeName(Mode);
    ObfuscationMode Parsed = static_cast<ObfuscationMode>(255);
    ASSERT_TRUE(parseObfuscationModeName(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, Mode) << Name;
  }
  // Every other byte names no mode.
  for (unsigned V = std::size(EveryMode); V != 256; ++V)
    EXPECT_FALSE(isKnownObfuscationMode(static_cast<ObfuscationMode>(V)))
        << V;
}

/// A trap-divergence repro must name the faulting function and block
/// (the ExecResult fault-context contract the fuzzer's repros rely on).
TEST(DifferentialFuzzer, TrapDivergenceCarriesFaultContext) {
  const char *Source = "int helper(int a) {\n"
                       "  return 100 / a;\n"
                       "}\n"
                       "int main() {\n"
                       "  int x = 3;\n"
                       "  return helper(x - 3);\n"
                       "}\n";
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "trapper", Error);
  ASSERT_TRUE(M) << Error;
  ExecResult R = runModule(*M);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.FaultFunction, "helper");
  EXPECT_FALSE(R.FaultBlock.empty());
  EXPECT_NE(R.Error.find("helper"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos) << R.Error;
}

} // namespace

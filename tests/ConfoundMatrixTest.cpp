//===- tests/ConfoundMatrixTest.cpp - Build-config axis tests -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build-config confound axis contract: per-config baselines are
/// isolated in the memory and disk cache tiers (O0 and O2 artifacts never
/// alias, nor do clang-like and gcc-like lowerings of the same level), a
/// warm confound run recompiles nothing (exactly one baseline
/// compile per (workload, config), ever), the union of sharded confound
/// runs equals the unsharded run, thread count does not change a single
/// number, the single-config front-ends (precisionMatrix, vulnRankMatrix)
/// are slices of the confound plane, and the semdiff backend is
/// registered with its subprocess twin.
///
//===----------------------------------------------------------------------===//

#include "diffing/Metrics.h"
#include "harness/EvalScheduler.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

using namespace khaos;

namespace {

std::vector<Workload> smallSuite(size_t N = 2) {
  std::vector<Workload> All = coreUtilsSuite();
  return std::vector<Workload>(All.begin(), All.begin() + N);
}

/// Fresh empty cache directory under the gtest temp root.
std::string freshDir(const char *Tag) {
  static int Counter = 0;
  std::string Dir = ::testing::TempDir() + "khaos-confound-" + Tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(++Counter);
  DIR *D = ::opendir(Dir.c_str());
  if (D) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((Dir + "/" + Name).c_str());
    }
    ::closedir(D);
    ::rmdir(Dir.c_str());
  }
  return Dir;
}

const std::vector<ObfuscationMode> TestModes = {
    ObfuscationMode::None, ObfuscationMode::Sub, ObfuscationMode::FuFiAll};
const std::vector<std::string> TestTools = {"BinDiff", "semdiff"};

std::vector<BuildConfig> twoLevels() {
  return {BuildConfig::forLevel(OptLevel::O0),
          BuildConfig::forLevel(OptLevel::O2)};
}

//===----------------------------------------------------------------------===//
// Per-config cache isolation
//===----------------------------------------------------------------------===//

TEST(ConfoundCache, PerConfigBaselinesNeverAliasInMemory) {
  Workload W = smallSuite(1).front();
  EvalPipeline Pipe;
  auto I0 = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  auto I2 = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
  ASSERT_TRUE(I0->Ok);
  ASSERT_TRUE(I2->Ok);

  // Two configs, two artifacts — and genuinely different images (O0
  // spills everything; an aliased cache entry would hand both configs the
  // same binary).
  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_NE(I0->Image.opcodeHistogram(), I2->Image.opcodeHistogram());

  // Codegen deviations are part of the key too, not just the level.
  BuildConfig NoLea = BuildConfig::forLevel(OptLevel::O2);
  NoLea.Codegen.UseLea = false;
  auto I2NoLea = Pipe.baselineImage(W, NoLea);
  ASSERT_TRUE(I2NoLea->Ok);
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 3u);

  // Re-requests are per-config hits, byte-for-byte the first answer.
  auto I0Again = Pipe.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  EXPECT_EQ(I0Again->Image.opcodeHistogram(), I0->Image.opcodeHistogram());
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 3u);
  EXPECT_GE(S.stage(ArtifactStage::BaselineImage).Hits, 1u);
}

TEST(ConfoundCache, PerConfigBaselinesNeverAliasOnDisk) {
  Workload W = smallSuite(1).front();
  std::string Dir = freshDir("aliasing");

  std::vector<double> H0, H2;
  {
    EvalPipeline Cold(EvalPipeline::Config{
        /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
    auto I0 = Cold.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
    auto I2 = Cold.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
    ASSERT_TRUE(I0->Ok);
    ASSERT_TRUE(I2->Ok);
    H0 = I0->Image.opcodeHistogram();
    H2 = I2->Image.opcodeHistogram();
    ASSERT_NE(H0, H2);
    EXPECT_EQ(Cold.store()
                  .stats()
                  .stage(ArtifactStage::BaselineImage)
                  .DiskMisses,
              2u);
  }

  // A second pipeline on the same cache dir serves both configs from
  // disk — no compile at either level, each config its own artifact.
  EvalPipeline Warm(EvalPipeline::Config{
      /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
  auto J0 = Warm.baselineImage(W, BuildConfig::forLevel(OptLevel::O0));
  auto J2 = Warm.baselineImage(W, BuildConfig::forLevel(OptLevel::O2));
  ASSERT_TRUE(J0->Ok);
  ASSERT_TRUE(J2->Ok);
  EXPECT_EQ(J0->Image.opcodeHistogram(), H0);
  EXPECT_EQ(J2->Image.opcodeHistogram(), H2);
  ArtifactStore::Snapshot S = Warm.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).DiskHits, 2u);
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Misses, 0u);
}

/// The compiler-style axis: an O2+clang and an O2+gcc baseline of the
/// SAME workload at the SAME level are distinct cache entries with
/// genuinely different lowerings.
TEST(ConfoundCache, PerStyleBaselinesNeverAliasInMemory) {
  Workload W = smallSuite(1).front();
  BuildConfig Clang = BuildConfig::forLevel(OptLevel::O2);
  BuildConfig Gcc = BuildConfig::forLevel(OptLevel::O2);
  Gcc.Codegen.Style = CompilerStyle::GccLike;

  EvalPipeline Pipe;
  auto IC = Pipe.baselineImage(W, Clang);
  auto IG = Pipe.baselineImage(W, Gcc);
  ASSERT_TRUE(IC->Ok);
  ASSERT_TRUE(IG->Ok);

  ArtifactStore::Snapshot S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_NE(IC->Image.opcodeHistogram(), IG->Image.opcodeHistogram());

  // Re-requesting either style is a hit on its own entry.
  auto IGAgain = Pipe.baselineImage(W, Gcc);
  EXPECT_EQ(IGAgain->Image.opcodeHistogram(), IG->Image.opcodeHistogram());
  S = Pipe.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).Misses, 2u);
  EXPECT_GE(S.stage(ArtifactStage::BaselineImage).Hits, 1u);
}

TEST(ConfoundCache, PerStyleBaselinesNeverAliasOnDisk) {
  Workload W = smallSuite(1).front();
  std::string Dir = freshDir("style-aliasing");
  BuildConfig Clang = BuildConfig::forLevel(OptLevel::O2);
  BuildConfig Gcc = BuildConfig::forLevel(OptLevel::O2);
  Gcc.Codegen.Style = CompilerStyle::GccLike;

  std::vector<double> HC, HG;
  {
    EvalPipeline Cold(EvalPipeline::Config{
        /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
    auto IC = Cold.baselineImage(W, Clang);
    auto IG = Cold.baselineImage(W, Gcc);
    ASSERT_TRUE(IC->Ok);
    ASSERT_TRUE(IG->Ok);
    HC = IC->Image.opcodeHistogram();
    HG = IG->Image.opcodeHistogram();
    ASSERT_NE(HC, HG);
    EXPECT_EQ(Cold.store()
                  .stats()
                  .stage(ArtifactStage::BaselineImage)
                  .DiskMisses,
              2u);
  }

  // Warm pipeline on the same cache dir: each style round-trips to its
  // own disk artifact, byte-for-byte, with zero recompiles.
  EvalPipeline Warm(EvalPipeline::Config{
      /*CacheEnabled=*/true, 0, VMEngine::Precompiled, Dir, 0});
  auto JC = Warm.baselineImage(W, Clang);
  auto JG = Warm.baselineImage(W, Gcc);
  ASSERT_TRUE(JC->Ok);
  ASSERT_TRUE(JG->Ok);
  EXPECT_EQ(JC->Image.opcodeHistogram(), HC);
  EXPECT_EQ(JG->Image.opcodeHistogram(), HG);
  ArtifactStore::Snapshot S = Warm.store().stats();
  EXPECT_EQ(S.stage(ArtifactStage::BaselineImage).DiskHits, 2u);
  EXPECT_EQ(S.stage(ArtifactStage::Baseline).Misses, 0u);
}

//===----------------------------------------------------------------------===//
// The confound matrix
//===----------------------------------------------------------------------===//

TEST(ConfoundMatrix, WarmRunPerformsZeroBaselineRecompiles) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler Sched({/*Threads=*/4, /*Seed=*/0xc906});
  EvalRunStats ColdRun;
  auto Cold =
      Sched.confoundMatrix(Suite, Configs, TestModes, TestTools, &ColdRun);
  ASSERT_EQ(Cold.size(), Suite.size() * Configs.size() * TestModes.size());
  for (const auto &Cell : Cold) {
    ASSERT_TRUE(Cell.Ran);
    ASSERT_TRUE(Cell.Ok);
    ASSERT_EQ(Cell.PerToolPrecision.size(), TestTools.size());
    ASSERT_EQ(Cell.PerToolSimilarity.size(), TestTools.size());
  }

  // Exactly one baseline compile per (workload, config) across the whole
  // matrix: the obfuscated side reuses the O2 baseline, every cell of a
  // config reuses that config's image.
  ArtifactStore::Snapshot AfterCold = Sched.pipeline().store().stats();
  EXPECT_EQ(AfterCold.stage(ArtifactStage::Baseline).Misses,
            Suite.size() * Configs.size());
  EXPECT_EQ(AfterCold.stage(ArtifactStage::BaselineImage).Misses,
            Suite.size() * Configs.size());

  // The warm re-run recomputes nothing at all and reproduces every number.
  EvalRunStats WarmRun;
  auto Warm =
      Sched.confoundMatrix(Suite, Configs, TestModes, TestTools, &WarmRun);
  ArtifactStore::Snapshot Delta = ArtifactStore::Snapshot::delta(
      Sched.pipeline().store().stats(), AfterCold);
  EXPECT_EQ(Delta.Misses, 0u);
  EXPECT_GT(Delta.Hits, 0u);
  EXPECT_EQ(WarmRun.CacheMisses, 0u);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I != Cold.size(); ++I) {
    EXPECT_EQ(Warm[I].Ok, Cold[I].Ok);
    EXPECT_EQ(Warm[I].PerToolPrecision, Cold[I].PerToolPrecision) << I;
    EXPECT_EQ(Warm[I].PerToolSimilarity, Cold[I].PerToolSimilarity) << I;
  }
}

TEST(ConfoundMatrix, UnionOfShardsEqualsUnshardedRun) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler Full({/*Threads=*/4, /*Seed=*/0xc906});
  auto Unsharded = Full.confoundMatrix(Suite, Configs, TestModes, TestTools);

  const unsigned Shards = 3;
  std::vector<EvalScheduler::ConfoundCell> Union(Unsharded.size());
  size_t RanCells = 0;
  for (unsigned SI = 0; SI != Shards; ++SI) {
    EvalScheduler::Config C;
    C.Threads = 4;
    C.Seed = 0xc906;
    C.Shards = Shards;
    C.ShardIdx = SI;
    EvalScheduler Shard(C);
    auto Part = Shard.confoundMatrix(Suite, Configs, TestModes, TestTools);
    ASSERT_EQ(Part.size(), Unsharded.size());
    for (size_t I = 0; I != Part.size(); ++I) {
      EXPECT_EQ(Part[I].Ran, I % Shards == SI);
      if (!Part[I].Ran)
        continue;
      Union[I] = Part[I];
      ++RanCells;
    }
  }

  EXPECT_EQ(RanCells, Unsharded.size());
  for (size_t I = 0; I != Unsharded.size(); ++I) {
    EXPECT_TRUE(Union[I].Ran);
    EXPECT_EQ(Union[I].Ok, Unsharded[I].Ok);
    EXPECT_EQ(Union[I].PerToolPrecision, Unsharded[I].PerToolPrecision)
        << "cell " << I;
    EXPECT_EQ(Union[I].PerToolSimilarity, Unsharded[I].PerToolSimilarity)
        << "cell " << I;
  }
}

TEST(ConfoundMatrix, ThreadCountDoesNotChangeResults) {
  std::vector<Workload> Suite = smallSuite(2);
  std::vector<BuildConfig> Configs = twoLevels();

  EvalScheduler One({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Eight({/*Threads=*/8, /*Seed=*/0xc906});
  auto A = One.confoundMatrix(Suite, Configs, TestModes, TestTools);
  auto B = Eight.confoundMatrix(Suite, Configs, TestModes, TestTools);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok);
    EXPECT_EQ(A[I].PerToolPrecision, B[I].PerToolPrecision) << "cell " << I;
    EXPECT_EQ(A[I].PerToolSimilarity, B[I].PerToolSimilarity)
        << "cell " << I;
  }
}

/// precisionMatrix and vulnRankMatrix are projections of the confound
/// plane at the scheduler's baseline config: they must reproduce that
/// config's slice of a two-config confoundMatrix cell for cell.
TEST(ConfoundMatrix, SingleConfigFrontEndsAreSlicesOfThePlane) {
  std::vector<Workload> Suite = smallSuite(2);
  // Rank targets: the first two functions of each workload's baseline.
  EvalPipeline Probe;
  for (Workload &W : Suite) {
    auto Img = Probe.baselineImage(W);
    ASSERT_TRUE(Img->Ok);
    ASSERT_GE(Img->Image.Functions.size(), 2u);
    W.VulnFunctions = {Img->Image.Functions[0].Name,
                       Img->Image.Functions[1].Name};
  }
  std::vector<BuildConfig> Configs = twoLevels();
  const size_t BaselineCI = 1;
  ASSERT_EQ(Configs[BaselineCI], EvalScheduler::Config{}.Baseline);

  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads);
    EvalScheduler Sched({Threads, /*Seed=*/0xc906});
    auto Prec = Sched.precisionMatrix(Suite, TestModes, TestTools);
    auto Ranks = Sched.vulnRankMatrix(Suite, TestModes, TestTools);
    auto Plane = Sched.confoundMatrix(Suite, Configs, TestModes, TestTools);
    ASSERT_EQ(Prec.size(), Suite.size() * TestModes.size());
    ASSERT_EQ(Ranks.size(), Prec.size());
    ASSERT_EQ(Plane.size(), Prec.size() * Configs.size());

    for (size_t WI = 0; WI != Suite.size(); ++WI)
      for (size_t MI = 0; MI != TestModes.size(); ++MI) {
        const size_t Flat = WI * TestModes.size() + MI;
        const auto &Slice =
            Plane[(WI * Configs.size() + BaselineCI) * TestModes.size() + MI];
        ASSERT_TRUE(Slice.Ran);
        ASSERT_TRUE(Slice.Ok);
        EXPECT_EQ(Prec[Flat].Ran, Slice.Ran) << Flat;
        EXPECT_EQ(Prec[Flat].Ok, Slice.Ok) << Flat;
        EXPECT_EQ(Prec[Flat].PerTool, Slice.PerToolPrecision) << Flat;
        EXPECT_EQ(Ranks[Flat].Ran, Slice.Ran) << Flat;
        EXPECT_EQ(Ranks[Flat].Ok, Slice.Ok) << Flat;

        // Ranks against an independent trueMatchRank over the same
        // cell's cached images and tool outcome.
        const Workload &W = Suite[WI];
        uint64_t Seed = deriveCellSeed(0xc906, W.Name, TestModes[MI]);
        auto A = Sched.pipeline().baselineImage(W);
        auto B = Sched.pipeline().obfuscatedImage(W, TestModes[MI], Seed);
        ASSERT_EQ(Ranks[Flat].PerTool.size(), TestTools.size());
        for (size_t TI = 0; TI != TestTools.size(); ++TI) {
          auto D = Sched.pipeline().diffOutcome(W, TestModes[MI], Seed,
                                                TestTools[TI], A, B);
          ASSERT_TRUE(D->Ok);
          std::vector<uint32_t> Expected;
          for (const std::string &V : W.VulnFunctions)
            Expected.push_back(
                trueMatchRank(A->Image, B->Image, D->Outcome.Raw, V));
          EXPECT_EQ(Ranks[Flat].PerTool[TI], Expected)
              << Flat << " " << TestTools[TI];
        }
      }
  }
}

//===----------------------------------------------------------------------===//
// semdiff registration
//===----------------------------------------------------------------------===//

TEST(SemDiffRegistration, InRosterWithSubprocessTwin) {
  std::vector<std::string> Names = registeredToolNames();
  auto Find = [&](const char *N) {
    for (size_t I = 0; I != Names.size(); ++I)
      if (Names[I] == N)
        return static_cast<long>(I);
    return -1L;
  };
  long InProc = Find("semdiff");
  long Twin = Find("semdiff-oop");
  ASSERT_GE(InProc, 0);
  ASSERT_GE(Twin, 0);
  EXPECT_LT(InProc, Twin); // In-process first, twin with the -oop block.

  std::unique_ptr<DiffTool> Tool = createDiffTool("semdiff");
  ASSERT_NE(Tool, nullptr);
  EXPECT_STREQ(Tool->getName(), "semdiff");
  EXPECT_TRUE(Tool->getTraits().UsesCallGraph);

  // The twin must declare the traits of its in-process counterpart.
  std::unique_ptr<DiffTool> Oop = createDiffTool("semdiff-oop");
  ASSERT_NE(Oop, nullptr);
  EXPECT_EQ(Oop->getTraits().UsesCallGraph, Tool->getTraits().UsesCallGraph);
  EXPECT_EQ(Oop->getTraits().TimeConsuming, Tool->getTraits().TimeConsuming);
  EXPECT_EQ(static_cast<int>(Oop->getTraits().Granularity),
            static_cast<int>(Tool->getTraits().Granularity));
}

} // namespace

//===- tests/EvaluatorTest.cpp - EvalScheduler batch engine tests ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel evaluation batch engine: thread-count
/// independence of EvalPipeline::obfuscate over a (workload × mode)
/// matrix, graceful error surfacing for failing workloads (in the compile
/// matrix and in the diff plane), deterministic per-cell seeding, and the
/// order-deterministic SeriesAccumulator, and the Frontend stage's
/// one-parse-per-workload contract.
/// (Cache/shard behaviour is covered by PipelineCacheTest.)
///
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"
#include "ir/IRPrinter.h"
#include "support/Statistics.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace khaos;

namespace {

std::vector<Workload> smallMatrixSuite() {
  std::vector<Workload> All = coreUtilsSuite();
  std::vector<Workload> Out(All.begin(), All.begin() + 4);
  return Out;
}

void expectStatsEqual(const ObfuscationResult &A, const ObfuscationResult &B) {
  EXPECT_EQ(A.Fission.OriFuncs, B.Fission.OriFuncs);
  EXPECT_EQ(A.Fission.ProcessedFuncs, B.Fission.ProcessedFuncs);
  EXPECT_EQ(A.Fission.SepFuncs, B.Fission.SepFuncs);
  EXPECT_EQ(A.Fission.SepBlocks, B.Fission.SepBlocks);
  EXPECT_EQ(A.Fission.LazyAllocas, B.Fission.LazyAllocas);
  EXPECT_EQ(A.Fission.OriInstructions, B.Fission.OriInstructions);
  EXPECT_EQ(A.Fission.MovedInstructions, B.Fission.MovedInstructions);
  EXPECT_EQ(A.Fusion.Candidates, B.Fusion.Candidates);
  EXPECT_EQ(A.Fusion.Fused, B.Fusion.Fused);
  EXPECT_EQ(A.Fusion.Pairs, B.Fusion.Pairs);
  EXPECT_EQ(A.Fusion.CompressedParams, B.Fusion.CompressedParams);
  EXPECT_EQ(A.Fusion.DeepMergedBlocks, B.Fusion.DeepMergedBlocks);
  EXPECT_EQ(A.Fusion.Trampolines, B.Fusion.Trampolines);
  EXPECT_EQ(A.Fusion.TaggedPointerSites, B.Fusion.TaggedPointerSites);
  EXPECT_EQ(A.BaselineSites, B.BaselineSites);
}

//===----------------------------------------------------------------------===//
// Seeding
//===----------------------------------------------------------------------===//

TEST(CellSeed, DeterministicAndDistinct) {
  uint64_t S1 = deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fission);
  uint64_t S2 = deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fission);
  EXPECT_EQ(S1, S2);
  EXPECT_NE(S1, deriveCellSeed(0xc906, "gzip", ObfuscationMode::Fusion));
  EXPECT_NE(S1, deriveCellSeed(0xc906, "mcf", ObfuscationMode::Fission));
  EXPECT_NE(S1, deriveCellSeed(0xdead, "gzip", ObfuscationMode::Fission));
}

TEST(CellSeed, MatchesCellEnumeration) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  EvalScheduler Sched({/*Threads=*/1, /*Seed=*/0xc906});
  std::vector<uint64_t> Seeds(Suite.size() * Modes.size(), 0);
  Sched.forEachCell(Suite, Modes, [&](const EvalCell &C) {
    Seeds[C.FlatIdx] = C.Seed;
  });
  for (size_t WI = 0; WI != Suite.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI)
      EXPECT_EQ(Seeds[WI * Modes.size() + MI],
                deriveCellSeed(0xc906, Suite[WI].Name, Modes[MI]));
}

//===----------------------------------------------------------------------===//
// Thread-count independence
//===----------------------------------------------------------------------===//

TEST(EvalScheduler, CompileMatrixIdenticalAcrossThreadCounts) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();

  EvalScheduler Serial({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Pool({/*Threads=*/8, /*Seed=*/0xc906});
  EXPECT_EQ(Serial.threadCount(), 1u);
  EXPECT_EQ(Pool.threadCount(), 8u);

  EvalRunStats SerialRun, PoolRun;
  auto A = Serial.compileMatrix(Suite, Modes, &SerialRun);
  auto B = Pool.compileMatrix(Suite, Modes, &PoolRun);
  ASSERT_EQ(A.size(), Suite.size() * Modes.size());
  ASSERT_EQ(A.size(), B.size());

  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(static_cast<bool>(A[I].Compiled),
              static_cast<bool>(B[I].Compiled));
    EXPECT_EQ(A[I].Compiled.Error, B[I].Compiled.Error);
    expectStatsEqual(A[I].Stats, B[I].Stats);
    if (A[I].Compiled && B[I].Compiled) {
      // The strongest determinism check: the obfuscated IR itself is
      // byte-identical, not just the counters.
      EXPECT_EQ(printModule(*A[I].Compiled.M), printModule(*B[I].Compiled.M));
    }
  }

  // Mutex-merged totals agree regardless of worker interleaving.
  EXPECT_EQ(SerialRun.Cells, A.size());
  EXPECT_EQ(PoolRun.Cells, B.size());
  EXPECT_EQ(SerialRun.Failures, PoolRun.Failures);
  expectStatsEqual({SerialRun.Fission, SerialRun.Fusion, 0, {}},
                   {PoolRun.Fission, PoolRun.Fusion, 0, {}});
}

TEST(EvalScheduler, OverheadMatrixIdenticalAcrossThreadCounts) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> Modes = {ObfuscationMode::Fission,
                                              ObfuscationMode::Fusion,
                                              ObfuscationMode::FuFiAll};

  EvalScheduler Serial({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Pool({/*Threads=*/4, /*Seed=*/0xc906});
  auto A = Serial.overheadMatrix(Suite, Modes);
  auto B = Pool.overheadMatrix(Suite, Modes);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok);
    // Bitwise equality: the VM cost model is integral and the percent is a
    // single division, so any drift would indicate shared mutable state.
    EXPECT_EQ(A[I].Percent, B[I].Percent);
  }
}

//===----------------------------------------------------------------------===//
// Failure surfacing
//===----------------------------------------------------------------------===//

TEST(EvalScheduler, FailingWorkloadSurfacesErrorNotCrash) {
  std::vector<Workload> Suite = smallMatrixSuite();
  Workload Broken;
  Broken.Name = "does_not_parse";
  Broken.Source = "int main( { return syntax error; }";
  Suite.insert(Suite.begin() + 1, Broken);

  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  EvalScheduler Pool({/*Threads=*/8, /*Seed=*/0xc906});
  EvalRunStats Run;
  auto Cells = Pool.compileMatrix(Suite, Modes, &Run);
  ASSERT_EQ(Cells.size(), Suite.size() * Modes.size());

  for (size_t MI = 0; MI != Modes.size(); ++MI) {
    const auto &Cell = Cells[1 * Modes.size() + MI];
    EXPECT_FALSE(Cell.Compiled);
    EXPECT_EQ(Cell.Compiled.M, nullptr);
    EXPECT_FALSE(Cell.Compiled.Error.empty());
  }
  // The broken workload fails in every mode; the real ones all compile.
  EXPECT_EQ(Run.Failures, Modes.size());
  EXPECT_EQ(Run.Cells, Cells.size());
}

TEST(EvalScheduler, FailingWorkloadFailsOnlyItsDiffCells) {
  std::vector<Workload> Suite = smallMatrixSuite();
  Workload Broken;
  Broken.Name = "does_not_parse";
  Broken.Source = "int main( { return syntax error; }";
  Suite.insert(Suite.begin() + 1, Broken);
  const std::vector<ObfuscationMode> Modes = {
      ObfuscationMode::Sub, ObfuscationMode::Fission, ObfuscationMode::FuFiAll};
  const std::vector<std::string> Tools = {"BinDiff", "jtrans"};

  // A cell's lead task alone decides Ok; every tool task of a broken
  // cell finds no pair and leaves its slot at -1 without counting as a
  // tool failure.
  std::vector<std::vector<EvalScheduler::CellPrecision>> Runs;
  for (unsigned Threads : {1u, 4u}) {
    EvalScheduler Sched({Threads, /*Seed=*/0xc906});
    EvalRunStats Run;
    Runs.push_back(Sched.precisionMatrix(Suite, Modes, Tools, &Run));
    ASSERT_EQ(Runs.back().size(), Suite.size() * Modes.size());
    EXPECT_EQ(Run.Cells, Runs.back().size());
    EXPECT_EQ(Run.Failures, Modes.size());
    EXPECT_EQ(Run.ToolFailures, 0u);
  }
  for (size_t I = 0; I != Runs[0].size(); ++I) {
    const auto &One = Runs[0][I], &Four = Runs[1][I];
    ASSERT_EQ(One.PerTool.size(), Tools.size());
    ASSERT_EQ(Four.PerTool.size(), Tools.size());
    if (I / Modes.size() == 1) {
      EXPECT_FALSE(One.Ok);
      EXPECT_FALSE(Four.Ok);
      for (size_t TI = 0; TI != Tools.size(); ++TI) {
        EXPECT_EQ(One.PerTool[TI], -1.0);
        EXPECT_EQ(Four.PerTool[TI], -1.0);
      }
      continue;
    }
    EXPECT_TRUE(One.Ok);
    EXPECT_TRUE(Four.Ok);
    for (size_t TI = 0; TI != Tools.size(); ++TI) {
      uint64_t A, B;
      std::memcpy(&A, &One.PerTool[TI], 8);
      std::memcpy(&B, &Four.PerTool[TI], 8);
      EXPECT_EQ(A, B) << Tools[TI] << " cell " << I;
    }
  }

  // No tools: each cell's lead task builds its images alone.
  EvalScheduler Images({/*Threads=*/4, /*Seed=*/0xc906});
  auto Cells = Images.precisionMatrix(Suite, Modes, {});
  for (size_t I = 0; I != Cells.size(); ++I) {
    EXPECT_EQ(Cells[I].Ok, I / Modes.size() != 1) << "cell " << I;
    EXPECT_TRUE(Cells[I].PerTool.empty());
  }
}

//===----------------------------------------------------------------------===//
// The Frontend stage
//===----------------------------------------------------------------------===//

namespace {

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

} // namespace

// A pipeline parses each workload once: an overhead matrix over every mode
// and then a precision matrix on the same pipeline miss the Frontend stage
// once per workload, every other request clones the cached module. The
// clones share the artifact's Context and are obfuscated concurrently at 4
// threads; both matrices must still equal a --no-cache pipeline's, which
// recompiles per request, bit for bit.
TEST(EvalScheduler, FrontendStageParsesEachWorkloadOnce) {
  std::vector<Workload> Suite = smallMatrixSuite();
  const std::vector<ObfuscationMode> &Modes = allObfuscationModes();
  ASSERT_EQ(Modes.size(), 12u);
  const std::vector<std::string> Tools = {"BinDiff"};

  EvalScheduler Uncached({/*Threads=*/4, /*Seed=*/0xc906,
                          /*CacheEnabled=*/false});
  auto WantOverhead = Uncached.overheadMatrix(Suite, Modes);
  auto WantPrecision = Uncached.precisionMatrix(Suite, Modes, Tools);

  for (unsigned Threads : {1u, 4u}) {
    EvalScheduler Sched({Threads, /*Seed=*/0xc906});
    auto Overhead = Sched.overheadMatrix(Suite, Modes);
    auto Precision = Sched.precisionMatrix(Suite, Modes, Tools);
    EXPECT_EQ(Sched.pipeline()
                  .store()
                  .stats()
                  .stage(ArtifactStage::Frontend)
                  .Misses,
              Suite.size())
        << Threads << " threads";

    ASSERT_EQ(Overhead.size(), WantOverhead.size());
    for (size_t I = 0; I != Overhead.size(); ++I) {
      EXPECT_TRUE(Overhead[I].Ok) << "cell " << I;
      EXPECT_EQ(Overhead[I].Ok, WantOverhead[I].Ok) << "cell " << I;
      EXPECT_EQ(bitsOf(Overhead[I].Percent), bitsOf(WantOverhead[I].Percent))
          << Threads << " threads, overhead cell " << I;
    }
    ASSERT_EQ(Precision.size(), WantPrecision.size());
    for (size_t I = 0; I != Precision.size(); ++I) {
      EXPECT_TRUE(Precision[I].Ok) << "cell " << I;
      ASSERT_EQ(Precision[I].PerTool.size(), Tools.size());
      ASSERT_EQ(WantPrecision[I].PerTool.size(), Tools.size());
      EXPECT_EQ(bitsOf(Precision[I].PerTool[0]),
                bitsOf(WantPrecision[I].PerTool[0]))
          << Threads << " threads, precision cell " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Aggregation helpers
//===----------------------------------------------------------------------===//

TEST(SeriesAccumulator, OrdersBySequenceNotInsertion) {
  SeriesAccumulator Acc(2);
  Acc.add(0, /*Seq=*/2, 30.0);
  Acc.add(0, /*Seq=*/0, 10.0);
  Acc.add(1, /*Seq=*/0, 5.0);
  Acc.add(0, /*Seq=*/1, 20.0);
  EXPECT_EQ(Acc.series(0), (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(Acc.series(1), (std::vector<double>{5.0}));
  EXPECT_TRUE(Acc.series(0).size() == 3 && Acc.slotCount() == 2);
}

TEST(EvalScheduler, ThreadCountDefaultsToAtLeastOne) {
  EvalScheduler Sched({/*Threads=*/0, /*Seed=*/1});
  EXPECT_GE(Sched.threadCount(), 1u);
}

} // namespace

//===- tests/DiffToolContractTest.cpp - Registry-wide tool contracts ---------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic contract suite run against EVERY registered diffing backend
/// (in-process and subprocess-served alike), so a new tool cannot land
/// without the properties the harness depends on:
///
///   * self-diff is maximal — diffing an image against itself scores at
///     least as high as diffing it against its obfuscated build, and the
///     relaxed-pairing Precision@1 is near-perfect;
///   * results are well-formed — every A function gets a ranking that is a
///     permutation of B's function indices, and the whole-binary
///     similarity is a finite value in [0, 1];
///   * determinism — repeated diff() calls are bit-identical, and matrix
///     runs agree across thread counts and repeated seeds (the property
///     every fig8 determinism CI step builds on);
///   * argument swap stays well-formed — diff(B, A) is a valid result
///     over the transposed pair (no tool currently claims score symmetry,
///     so only shape is asserted);
///   * degenerate inputs — empty modules and single-function images
///     neither crash nor produce malformed rankings;
///   * stable token embeddings — tokenVector's bits are pinned, and its
///     per-thread memo gives every thread the serial accumulators.
///
//===----------------------------------------------------------------------===//

#include "diffing/Embedding.h"
#include "diffing/Metrics.h"
#include "diffing/SubprocessDiffTool.h"
#include "harness/EvalScheduler.h"
#include "workloads/SyntheticProgram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>

using namespace khaos;

namespace {

/// One shared image pair per process: A = un-obfuscated baseline, B = the
/// fission build (the inter-procedural mode every tool must survive
/// structurally). Built once — the suite runs per tool, and subprocess
/// tools re-serialize the same pair for every request.
struct SharedImages {
  DiffImages Pair;
  BinaryImage Solo;       ///< Single-function image.
  ImageFeatures SoloF;
  BinaryImage Empty;      ///< Zero-function image.
  ImageFeatures EmptyF;
};

const SharedImages &images() {
  static const SharedImages S = [] {
    SharedImages Out;
    // Spec chosen so the generated functions are pairwise distinct:
    // byte-identical twins tie under every tool and the tie-break ranks
    // the earlier twin first, which is indistinguishable from a miss for
    // the name-keyed relaxed pairing.
    ProgramSpec Spec;
    Spec.Name = "contract";
    Spec.NumFunctions = 24;
    Spec.Seed = 5;
    Workload W{Spec.Name, generateMiniCProgram(Spec), {}, {}};
    EvalPipeline Pipe;
    Out.Pair = Pipe.diffImages(W, ObfuscationMode::Fission);

    // Hand-built single-function image: two blocks, a handful of
    // instructions, one edge — small enough that granularity quirks
    // (block-level tools) still have something to chew on.
    Out.Solo.Name = "solo-img";
    MFunction F;
    F.Name = "solo";
    F.Origins = {"solo"};
    MBlock B0, B1;
    B0.Name = "entry";
    B0.Insts = {MInst(MOp::Push), MInst(MOp::MovImm, false, true, -1, 42),
                MInst(MOp::Cmp), MInst(MOp::Jcc)};
    B0.Succs = {1};
    B1.Name = "exit";
    B1.Insts = {MInst(MOp::Pop), MInst(MOp::Ret)};
    F.Blocks = {B0, B1};
    Out.Solo.Functions.push_back(F);
    Out.Solo.FunctionIndex["solo"] = 0;
    Out.SoloF = extractFeatures(Out.Solo);

    Out.Empty.Name = "empty-img";
    Out.EmptyF = extractFeatures(Out.Empty);
    return Out;
  }();
  return S;
}

bool isPermutation(const std::vector<uint32_t> &Ranking, size_t N) {
  if (Ranking.size() != N)
    return false;
  std::set<uint32_t> Seen(Ranking.begin(), Ranking.end());
  if (Seen.size() != N)
    return false;
  return N == 0 || (*Seen.begin() == 0 && *Seen.rbegin() == N - 1);
}

bool sameResult(const DiffResult &X, const DiffResult &Y) {
  // Bit-level comparison: determinism means identical doubles, not
  // "close" ones — the fig8 byte-identity CI steps rest on this.
  uint64_t BX, BY;
  std::memcpy(&BX, &X.WholeBinarySimilarity, 8);
  std::memcpy(&BY, &Y.WholeBinarySimilarity, 8);
  return X.Rankings == Y.Rankings && BX == BY;
}

class DiffToolContract : public ::testing::TestWithParam<std::string> {
protected:
  std::unique_ptr<DiffTool> tool() const { return createDiffTool(GetParam()); }
};

TEST_P(DiffToolContract, SelfDiffIsMaximal) {
  const DiffImages &I = images().Pair;
  ASSERT_TRUE(I.Ok);
  auto T = tool();
  DiffResult Self = T->diff(I.A, I.FA, I.A, I.FA);
  DiffResult Cross = T->diff(I.A, I.FA, I.B, I.FB);
  // Relaxed-pairing Precision@1 on an identical pair is near-perfect
  // (ties between byte-identical functions are the only slack)...
  EXPECT_GT(precisionAt1(I.A, I.A, Self), 0.78);
  // ...and no obfuscated build may look more similar than the image
  // itself.
  EXPECT_GE(Self.WholeBinarySimilarity, Cross.WholeBinarySimilarity);
  EXPECT_GT(Self.WholeBinarySimilarity, 0.8);
}

TEST_P(DiffToolContract, ResultsAreWellFormed) {
  const DiffImages &I = images().Pair;
  ASSERT_TRUE(I.Ok);
  DiffResult R = tool()->diff(I.A, I.FA, I.B, I.FB);
  ASSERT_EQ(R.Rankings.size(), I.A.Functions.size());
  for (const std::vector<uint32_t> &Ranking : R.Rankings)
    EXPECT_TRUE(isPermutation(Ranking, I.B.Functions.size()));
  EXPECT_TRUE(std::isfinite(R.WholeBinarySimilarity));
  EXPECT_GE(R.WholeBinarySimilarity, 0.0);
  EXPECT_LE(R.WholeBinarySimilarity, 1.0);
}

TEST_P(DiffToolContract, RepeatedDiffIsBitIdentical) {
  const DiffImages &I = images().Pair;
  ASSERT_TRUE(I.Ok);
  auto T = tool();
  DiffResult First = T->diff(I.A, I.FA, I.B, I.FB);
  DiffResult Second = T->diff(I.A, I.FA, I.B, I.FB);
  // A fresh instance must agree too: tools may cache internally but must
  // not accumulate state that shifts results.
  DiffResult Fresh = tool()->diff(I.A, I.FA, I.B, I.FB);
  EXPECT_TRUE(sameResult(First, Second));
  EXPECT_TRUE(sameResult(First, Fresh));
}

TEST_P(DiffToolContract, ArgumentSwapIsWellFormed) {
  const DiffImages &I = images().Pair;
  ASSERT_TRUE(I.Ok);
  DiffResult R = tool()->diff(I.B, I.FB, I.A, I.FA);
  ASSERT_EQ(R.Rankings.size(), I.B.Functions.size());
  for (const std::vector<uint32_t> &Ranking : R.Rankings)
    EXPECT_TRUE(isPermutation(Ranking, I.A.Functions.size()));
  EXPECT_TRUE(std::isfinite(R.WholeBinarySimilarity));
  EXPECT_GE(R.WholeBinarySimilarity, 0.0);
  EXPECT_LE(R.WholeBinarySimilarity, 1.0);
}

TEST_P(DiffToolContract, EmptyModulesDoNotCrash) {
  const SharedImages &S = images();
  auto T = tool();
  // Empty vs empty.
  DiffResult R = T->diff(S.Empty, S.EmptyF, S.Empty, S.EmptyF);
  EXPECT_TRUE(R.Rankings.empty());
  EXPECT_TRUE(std::isfinite(R.WholeBinarySimilarity));
  // Empty A side: nothing to rank.
  R = T->diff(S.Empty, S.EmptyF, S.Solo, S.SoloF);
  EXPECT_TRUE(R.Rankings.empty());
  // Empty B side: every A function gets an empty ranking.
  R = T->diff(S.Solo, S.SoloF, S.Empty, S.EmptyF);
  ASSERT_EQ(R.Rankings.size(), 1u);
  EXPECT_TRUE(R.Rankings[0].empty());
  EXPECT_TRUE(std::isfinite(R.WholeBinarySimilarity));
}

TEST_P(DiffToolContract, SingleFunctionSelfDiff) {
  const SharedImages &S = images();
  DiffResult R = tool()->diff(S.Solo, S.SoloF, S.Solo, S.SoloF);
  ASSERT_EQ(R.Rankings.size(), 1u);
  ASSERT_EQ(R.Rankings[0], std::vector<uint32_t>{0});
  EXPECT_EQ(precisionAt1(S.Solo, S.Solo, R), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredTools, DiffToolContract,
    ::testing::ValuesIn(registeredToolNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      // Test names must be identifiers: "safe-oop" -> "safe_oop".
      std::string Name = Info.param;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Matrix-level determinism: thread count and repeated seeds. One test for
// the whole roster (the per-tool plane is scheduled together, exactly as
// fig8 runs it).
//===----------------------------------------------------------------------===//

TEST(DiffToolContractMatrix, ThreadCountAndRerunInvariance) {
  ProgramSpec Spec;
  Spec.Name = "contract-matrix";
  Spec.NumFunctions = 8;
  Spec.Seed = 23;
  std::vector<Workload> Suite{{Spec.Name, generateMiniCProgram(Spec), {}, {}}};
  // One intra-procedural baseline, one inter-procedural Khaos mode, and
  // the four passes this PR adds — every roster entry must hold the
  // fig8-grade determinism bar, not just the founding ones.
  std::vector<ObfuscationMode> Modes{
      ObfuscationMode::Sub,    ObfuscationMode::Fission,
      ObfuscationMode::MBA,    ObfuscationMode::StrEnc,
      ObfuscationMode::IndCall, ObfuscationMode::SplitBB};
  std::vector<std::string> Tools = registeredToolNames();

  EvalScheduler One({/*Threads=*/1, /*Seed=*/0xc906});
  EvalScheduler Four({/*Threads=*/4, /*Seed=*/0xc906});
  auto CellsOne = One.precisionMatrix(Suite, Modes, Tools);
  auto CellsFour = Four.precisionMatrix(Suite, Modes, Tools);
  auto CellsAgain = Four.precisionMatrix(Suite, Modes, Tools);

  ASSERT_EQ(CellsOne.size(), CellsFour.size());
  for (size_t I = 0; I != CellsOne.size(); ++I) {
    ASSERT_TRUE(CellsOne[I].Ok);
    ASSERT_TRUE(CellsFour[I].Ok);
    ASSERT_EQ(CellsOne[I].PerTool.size(), Tools.size());
    for (size_t TI = 0; TI != Tools.size(); ++TI) {
      // Bit-identical across thread counts and across a warm re-run.
      uint64_t A, B, C;
      std::memcpy(&A, &CellsOne[I].PerTool[TI], 8);
      std::memcpy(&B, &CellsFour[I].PerTool[TI], 8);
      std::memcpy(&C, &CellsAgain[I].PerTool[TI], 8);
      EXPECT_EQ(A, B) << Tools[TI];
      EXPECT_EQ(A, C) << Tools[TI];
    }
  }
}

//===----------------------------------------------------------------------===//
// Token embeddings: every embedding tool's vectors come from tokenVector,
// so its bits are part of every figure the learned-model rows print.
//===----------------------------------------------------------------------===//

/// FNV-1a over a vector's raw element bits, in element order.
uint64_t bitDigest(const std::vector<double> &V) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (double X : V) {
    uint64_t Bits;
    std::memcpy(&Bits, &X, 8);
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (Bits >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  return H;
}

TEST(TokenVector, BitsArePinned) {
  // One token from each vocabulary the tools use: a raw opcode, a
  // 100 + class token, an opcode bigram, an immediate and a jtrans
  // positional token. Any change to these digests changes every learned
  // tool's scores.
  struct Golden {
    uint64_t Token;
    uint64_t Digest;
  };
  const uint64_t Add = static_cast<uint64_t>(MOp::Add);
  const uint64_t Mov = static_cast<uint64_t>(MOp::Mov);
  const Golden Cases[] = {
      {static_cast<uint64_t>(MOp::Call), 0x7604cfbc4a7d8fe6ull},
      {100 + 3, 0xc95a399f02b08b0bull},
      {bigramToken(Add, Mov), 0x5e40fd44e38af1f4ull},
      {0x1000000ull + 42, 0x3f7ec7632a2745c3ull},
      {bigramToken(0x3000 + 3, 7), 0x61decb8fff856e88ull},
  };
  for (const Golden &G : Cases) {
    const TokenVec &V = tokenVector(G.Token);
    EXPECT_EQ(bitDigest({V.begin(), V.end()}), G.Digest) << G.Token;
    // A second lookup is served from the memo: same storage.
    EXPECT_EQ(&tokenVector(G.Token), &V);
  }
}

TEST(TokenVector, ConcurrentAccumulationMatchesSerial) {
  // A stream mixing every vocabulary; its 4096 distinct tokens make each
  // thread's memo grow and rehash many times.
  std::vector<uint64_t> Stream;
  for (uint64_t I = 0; I != 1024; ++I) {
    Stream.push_back(I % 64);
    Stream.push_back(100 + I % 16);
    Stream.push_back(bigramToken(I % 32, (I / 32) % 32));
    Stream.push_back(0x1000000ull + I);
  }
  auto Scale = [](size_t I) { return 1.0 + (double)(I % 7) / 8.0; };
  // Accumulates the stream twice: through accumulateToken, and, as
  // JTransTool::embed does, through a pointer per token taken while the
  // memo still grows and read only after the whole stream is in.
  auto Accumulate = [&] {
    std::vector<double> Acc;
    std::vector<const TokenVec *> Held;
    for (size_t I = 0; I != Stream.size(); ++I) {
      accumulateToken(Acc, Stream[I], Scale(I));
      Held.push_back(&tokenVector(Stream[I]));
    }
    std::vector<double> FromHeld(EmbeddingDim, 0.0);
    for (size_t I = 0; I != Held.size(); ++I)
      for (unsigned K = 0; K != EmbeddingDim; ++K)
        FromHeld[K] += Scale(I) * (*Held[I])[K];
    return std::make_pair(bitDigest(Acc), bitDigest(FromHeld));
  };
  const std::pair<uint64_t, uint64_t> Serial = Accumulate();
  EXPECT_EQ(Serial.first, Serial.second);
  std::pair<uint64_t, uint64_t> Threaded[4] = {};
  std::vector<std::thread> Threads;
  for (std::pair<uint64_t, uint64_t> &Slot : Threaded)
    Threads.emplace_back([&Slot, &Accumulate] { Slot = Accumulate(); });
  for (std::thread &T : Threads)
    T.join();
  for (const std::pair<uint64_t, uint64_t> &Digests : Threaded)
    EXPECT_EQ(Digests, Serial);
}

} // namespace

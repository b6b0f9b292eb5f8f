//===- bench/micro_passes.cpp - Pass throughput micro-benchmarks ---------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the compiler substrate: frontend
/// throughput, module cloning and teardown, the O2 pipeline (also as the
/// post-obfuscation optimizer runs it), the verifier, the Khaos
/// primitives, binary lowering, bytecode lowering and one short VM run.
/// Not a paper figure — kept for performance regression tracking.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "harness/Evaluator.h"
#include "ir/Verifier.h"
#include "transform/Cloning.h"
#include "workloads/SyntheticProgram.h"

#include <benchmark/benchmark.h>

using namespace khaos;

namespace {

std::string generateBenchSource(unsigned NumFunctions) {
  ProgramSpec S;
  S.Name = "microbench";
  S.NumFunctions = NumFunctions;
  S.Seed = 99;
  return generateMiniCProgram(S);
}

/// The seed-99 program at 40 (default) or 90 functions.
const std::string &benchSource(int64_t NumFunctions = 40) {
  static const std::string Src40 = generateBenchSource(40);
  static const std::string Src90 = generateBenchSource(90);
  return NumFunctions == 90 ? Src90 : Src40;
}

// The arg of the three benchmarks below is the program's function count;
// clone and destroy work on the module compileMiniC builds from it.
void BM_CompileMiniC(benchmark::State &State) {
  for (auto _ : State) {
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(State.range(0)), Ctx, "bench", Err);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_CompileMiniC)->Arg(40)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_CloneModule(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(State.range(0)), Ctx, "bench", Err);
  for (auto _ : State) {
    std::unique_ptr<Module> Clone = cloneModule(*M);
    benchmark::DoNotOptimize(Clone);
    State.PauseTiming();
    Clone.reset();
    State.ResumeTiming();
  }
}
BENCHMARK(BM_CloneModule)->Arg(40)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_DestroyModule(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(State.range(0)), Ctx, "bench", Err);
  for (auto _ : State) {
    State.PauseTiming();
    std::unique_ptr<Module> Clone = cloneModule(*M);
    State.ResumeTiming();
    Clone.reset();
  }
}
BENCHMARK(BM_DestroyModule)->Arg(40)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_OptimizeO2(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    optimizeModule(*M, OptLevel::O2);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_OptimizeO2);

// Arg 0 verifies the frontend module, arg 1 the same module after O2.
void BM_VerifyModule(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
  if (State.range(0) == 1)
    optimizeModule(*M, OptLevel::O2);
  State.SetLabel(State.range(0) == 1 ? "O2" : "frontend");
  for (auto _ : State) {
    std::vector<std::string> Problems = verifyModule(*M);
    benchmark::DoNotOptimize(Problems);
  }
}
BENCHMARK(BM_VerifyModule)->Arg(0)->Arg(1);

void BM_Fission(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    FissionStats Stats;
    runFission(*M, Stats);
    benchmark::DoNotOptimize(Stats.SepFuncs);
  }
}
BENCHMARK(BM_Fission);

void BM_Fusion(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Context Ctx;
    std::string Err;
    auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
    State.ResumeTiming();
    FusionStats Stats;
    runFusion(*M, Stats);
    benchmark::DoNotOptimize(Stats.Pairs);
  }
}
BENCHMARK(BM_Fusion);

// The O2 pass list the post-obfuscation optimizer runs, over the program's
// MBA-obfuscated module stopped before its first post-opt step (MBA's
// post-opt is the heaviest of the modes). Clone and teardown are untimed.
void BM_PostOptMBA(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
  KhaosOptions Opts;
  std::vector<std::string> Steps =
      obfuscationStepNames(ObfuscationMode::MBA, Opts);
  size_t Prefix = 0;
  while (Prefix != Steps.size() && Steps[Prefix].rfind("post-opt:", 0) != 0)
    ++Prefix;
  obfuscateModulePrefix(*M, ObfuscationMode::MBA, Opts, Prefix);
  for (auto _ : State) {
    State.PauseTiming();
    std::unique_ptr<Module> Clone = cloneModule(*M);
    State.ResumeTiming();
    optimizeModule(*Clone, OptLevel::O2);
    State.PauseTiming();
    Clone.reset();
    State.ResumeTiming();
  }
}
BENCHMARK(BM_PostOptMBA)->Unit(benchmark::kMillisecond);

// Bytecode lowering of the program's O2 module; the arg is its function
// count.
void BM_PrecompileModule(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(State.range(0)), Ctx, "bench", Err);
  optimizeModule(*M, OptLevel::O2);
  for (auto _ : State) {
    BytecodeModule BM;
    precompileModule(*M, BM);
    benchmark::DoNotOptimize(BM.CodeBytes);
  }
}
BENCHMARK(BM_PrecompileModule)->Arg(40)->Arg(90);

// One VM run of a short program, so the per-run fixed cost (memory image,
// global layout, decoding) shows next to a few hundred steps. Arg 0 runs
// the reference engine, arg 1 the precompiled one.
void BM_RunModule(benchmark::State &State) {
  const char *Source = "int g[16];\n"
                       "int main() {\n"
                       "  int i = 0; int s = 0;\n"
                       "  while (i < 64) { g[i % 16] = i; s = s + g[i % 16]; "
                       "i++; }\n"
                       "  return s;\n"
                       "}\n";
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(Source, Ctx, "bench", Err);
  optimizeModule(*M, OptLevel::O2);
  ExecOptions Opts;
  Opts.Engine =
      State.range(0) == 0 ? VMEngine::Reference : VMEngine::Precompiled;
  State.SetLabel(vmEngineName(Opts.Engine));
  for (auto _ : State) {
    ExecResult R = runModule(*M, Opts);
    benchmark::DoNotOptimize(R.Cost);
  }
}
BENCHMARK(BM_RunModule)->Arg(0)->Arg(1);

void BM_LowerToBinary(benchmark::State &State) {
  Context Ctx;
  std::string Err;
  auto M = compileMiniC(benchSource(), Ctx, "bench", Err);
  optimizeModule(*M, OptLevel::O2);
  for (auto _ : State) {
    BinaryImage Img = lowerToBinary(*M);
    benchmark::DoNotOptimize(Img.Functions.size());
  }
}
BENCHMARK(BM_LowerToBinary);

void BM_DiffBinDiff(benchmark::State &State) {
  ProgramSpec S;
  S.Name = "microbench";
  S.NumFunctions = 40;
  S.Seed = 99;
  Workload W{S.Name, generateMiniCProgram(S), {}, {}};
  DiffImages Imgs = EvalPipeline().diffImages(W, ObfuscationMode::FuFiAll);
  auto Tool = createBinDiffTool();
  for (auto _ : State) {
    DiffResult R = Tool->diff(Imgs.A, Imgs.FA, Imgs.B, Imgs.FB);
    benchmark::DoNotOptimize(R.WholeBinarySimilarity);
  }
}
BENCHMARK(BM_DiffBinDiff);

} // namespace

BENCHMARK_MAIN();

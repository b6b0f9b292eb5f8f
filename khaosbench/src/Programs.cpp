//===- khaosbench/src/Programs.cpp - Seeded program draw ------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Draws ProgramSpec shapes from the ranges of the SPEC rows in
/// workloads/Suites.cpp and generates their MiniC sources. The draw is
/// stratified: program i of N takes its function count from the i-th of N
/// equal slices of 23..98 and its FP ratio from a shuffled slice of
/// 0.02..0.65, and the indirect-call and exception shares are fixed
/// counts. Every seed therefore yields a set of the same total size and
/// mix, so a seed changes which programs run, not how much work a run
/// is. The program under test sees only the generated sources.
///
/// The generator's run times are heavy-tailed. Most programs run 0.1M-1M
/// VM steps at O2, but a few run tens of millions, and with exceptions
/// on they run anywhere from 0.3M to past 100M. One such program sets the
/// cost of a whole overhead round (13 runs of it), so no program uses
/// exceptions, and a program whose baseline runs past MaxBaselineSteps
/// is redrawn with another generator seed and the same shape.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/IRGen.h"
#include "support/RNG.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace khaos;
using namespace khaosbench;

namespace {

// Ranges of the SPEC CPU 2006/2017 rows in workloads/Suites.cpp.
constexpr unsigned MinFuncs = 23, MaxFuncs = 98;
constexpr double MinFloat = 0.02, MaxFloat = 0.65;
constexpr double MinRecursion = 0.02, MaxRecursion = 0.30;
constexpr unsigned MinIters = 14, MaxIters = 26;
// 18 of the 47 rows use indirect calls.
constexpr double IndirectShare = 18.0 / 47.0;

constexpr uint64_t MaxBaselineSteps = 2'000'000;
constexpr unsigned MaxRedraws = 32;

/// True if \p W's O2 baseline runs past MaxBaselineSteps on the
/// precompiled engine (run no further than that). A program that fails to
/// compile or traps is kept: the reference-engine check reports it.
bool runsTooLong(const Workload &W) {
  Context Ctx;
  std::string Error;
  std::unique_ptr<Module> M = compileMiniC(W.Source, Ctx, W.Name, Error);
  if (!M)
    return false;
  optimizeModule(*M, OptLevel::O2);
  ExecOptions Opts;
  Opts.MaxSteps = MaxBaselineSteps;
  return runModule(*M, Opts).Steps > MaxBaselineSteps;
}

/// N flags with round(Share * N) of them set, in a seeded order.
std::vector<uint8_t> shuffledFlags(RNG &R, size_t N, double Share) {
  size_t On = static_cast<size_t>(std::lround(Share * static_cast<double>(N)));
  std::vector<uint8_t> Flags(N, 0);
  for (size_t I = 0; I != On && I != N; ++I)
    Flags[I] = 1;
  R.shuffle(Flags);
  return Flags;
}

} // namespace

ProgramSet khaosbench::drawPrograms(uint64_t Seed, Size S) {
  // Every workload draws the same set for a seed, so the deterministic
  // guards of all three agree and diff-warm replays diff-cold's matrix.
  const size_t N = S == Size::Tiny ? 4 : 12;
  const size_t NumSmall = S == Size::Tiny ? 1 : 2;
  RNG R(Seed * 0x9e3779b97f4a7c15ull + N);

  std::vector<size_t> FloatSlice(N);
  for (size_t I = 0; I != N; ++I)
    FloatSlice[I] = I;
  R.shuffle(FloatSlice);
  std::vector<uint8_t> Indirect = shuffledFlags(R, N, IndirectShare);

  ProgramSet Out;
  const double Slices = static_cast<double>(N);
  for (size_t I = 0; I != N; ++I) {
    ProgramSpec P;
    char Name[48];
    std::snprintf(Name, sizeof(Name), "bench.s%llu.p%02zu",
                  static_cast<unsigned long long>(Seed), I);
    P.Name = Name;
    double FuncPos = (static_cast<double>(I) + R.nextDouble()) / Slices;
    P.NumFunctions = std::min(
        MaxFuncs, MinFuncs + static_cast<unsigned>(
                                 FuncPos * (MaxFuncs - MinFuncs + 1)));
    double FloatPos =
        (static_cast<double>(FloatSlice[I]) + R.nextDouble()) / Slices;
    P.FloatRatio = MinFloat + FloatPos * (MaxFloat - MinFloat);
    P.RecursionRatio =
        MinRecursion + R.nextDouble() * (MaxRecursion - MinRecursion);
    P.UseIndirectCalls = Indirect[I] != 0;
    P.UseExceptions = false;
    P.UseSetjmp = false;
    // The rows' outer loop shrinks as programs grow (26 iterations at 23
    // functions, 14 at 98); follow that trend with a little jitter.
    double Iters = MaxIters - (P.NumFunctions - MinFuncs) *
                                  double(MaxIters - MinIters) /
                                  double(MaxFuncs - MinFuncs);
    P.MainIterations = static_cast<unsigned>(
        std::clamp<long>(std::lround(Iters) + R.nextRange(-1, 1),
                         long(MinIters), long(MaxIters)));
    P.Seed = R.next();
    Out.Specs.push_back(P);
  }

  for (ProgramSpec &P : Out.Specs) {
    Workload W;
    W.Name = P.Name;
    W.Source = generateMiniCProgram(P);
    for (unsigned Redraw = 1; runsTooLong(W); ++Redraw) {
      if (Redraw == MaxRedraws) {
        std::fprintf(stderr, "khaosbench: %s: every draw ran past %llu "
                             "baseline VM steps\n",
                     P.Name.c_str(),
                     static_cast<unsigned long long>(MaxBaselineSteps));
        std::exit(1);
      }
      P.Seed = P.Seed * 0x9e3779b97f4a7c15ull + Redraw;
      W.Source = generateMiniCProgram(P);
    }
    Out.All.push_back(std::move(W));
  }
  // Program i sits in slice i, so the first programs are the smallest.
  Out.Small.assign(Out.All.begin(), Out.All.begin() + NumSmall);
  return Out;
}

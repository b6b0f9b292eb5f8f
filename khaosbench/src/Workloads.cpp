//===- khaosbench/src/Workloads.cpp - Timed workloads ---------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three timed workloads. Each round of the timed phase is one whole
/// matrix run by a fresh EvalScheduler, the way a figure bench or a
/// search loop pays for it; rounds repeat until the run's seconds are
/// spent and the per-round figures are reported as medians.
///
///  diff-cold      fig8's shape: programs x 12 modes x the five tools
///                 through precisionMatrix, writing a fresh disk tier.
///  overhead-cold  fig6's shape: programs x 12 modes through
///                 overheadMatrix, memory store only.
///  diff-warm      diff-cold's matrix replayed by fresh schedulers from
///                 the disk tier runFill wrote during set-up.
///
/// The `check` mode runs, outside any timing, the reference-engine check
/// of the seed's programs and both deterministic protection guards.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/IRGen.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace khaos;
using namespace khaosbench;

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

void Ledger::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "khaosbench: FAILED %s\n", What.c_str());
  }
}

double khaosbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double khaosbench::peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double khaosbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

std::string khaosbench::warmTierDir(const RunConfig &C) {
  return C.WorkDir + "/warm-tier";
}

std::string khaosbench::warmReferencePath(const RunConfig &C) {
  return C.WorkDir + "/warm-reference.txt";
}

std::string khaosbench::outcomeLine(const Workload &W, ObfuscationMode M,
                                    const std::string &Tool, bool Ok,
                                    double A, double B) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%s %s %s %d %a %a", W.Name.c_str(),
                obfuscationModeName(M), Tool.c_str(), Ok ? 1 : 0, A, B);
  return Buf;
}

void khaosbench::removeTree(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

void khaosbench::printResult(const Result &R) {
  for (const auto &[Name, M] : R.Metrics)
    std::printf("%-40s %.6g %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              R.L.Failed == 0 ? "true" : "false", R.L.Attempted, R.L.Failed);
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const std::vector<std::string> &khaosbench::lightTools() {
  static const std::vector<std::string> T{"BinDiff", "VulSeeker", "Asm2Vec",
                                          "SAFE"};
  return T;
}

const std::vector<std::string> &khaosbench::heavyTools() {
  static const std::vector<std::string> T{"DeepBinDiff"};
  return T;
}

const std::vector<ObfuscationMode> &khaosbench::khaosModes() {
  static const std::vector<ObfuscationMode> M{
      ObfuscationMode::Fission, ObfuscationMode::Fusion,
      ObfuscationMode::FuFiSep, ObfuscationMode::FuFiOri,
      ObfuscationMode::FuFiAll};
  return M;
}

namespace {

constexpr int WarmFills = 2;
constexpr uint64_t GuardSeed = 0;

EvalScheduler::Config schedulerConfig(const RunConfig &C,
                                      const std::string &CacheDir) {
  EvalScheduler::Config SC;
  SC.Threads = C.Threads;
  SC.Seed = C.Seed;
  SC.CacheDir = CacheDir;
  return SC;
}

/// One diff matrix: the light tools over every program and DeepBinDiff
/// over the small ones, each cell with all its tools.
struct DiffMatrix {
  std::vector<EvalScheduler::CellPrecision> Light, Heavy;
};

DiffMatrix runDiffMatrix(const EvalScheduler &S, const ProgramSet &P,
                         const std::vector<ObfuscationMode> &Modes,
                         EvalRunStats *Run) {
  DiffMatrix D;
  D.Light = S.precisionMatrix(P.All, Modes, lightTools(), Run);
  D.Heavy = S.precisionMatrix(P.Small, Modes, heavyTools(), Run);
  return D;
}

/// Cells and tool tasks of a diff matrix into the ledger.
void checkDiffMatrix(Ledger &L, const DiffMatrix &D, const ProgramSet &P,
                     const std::vector<ObfuscationMode> &Modes) {
  auto Plane = [&](const std::vector<EvalScheduler::CellPrecision> &Cells,
                   const std::vector<Workload> &Ws,
                   const std::vector<std::string> &Tools) {
    for (size_t I = 0; I != Cells.size(); ++I) {
      const std::string Where = Ws[I / Modes.size()].Name + " " +
                                obfuscationModeName(Modes[I % Modes.size()]);
      L.check(Cells[I].Ran && Cells[I].Ok, "diff cell " + Where);
      for (size_t T = 0; T != Tools.size(); ++T)
        L.check(Cells[I].Ok && Cells[I].PerTool[T] >= 0.0,
                "tool task " + Where + " " + Tools[T]);
    }
  };
  Plane(D.Light, P.All, lightTools());
  Plane(D.Heavy, P.Small, heavyTools());
}

/// Per-(cell x tool) P@1 and similarity, read back through the pipeline
/// (store hits after a matrix run).
std::vector<std::string> outcomeLines(EvalPipeline &Pipe, const ProgramSet &P,
                                      uint64_t Seed) {
  std::vector<std::string> Lines;
  auto Plane = [&](const std::vector<Workload> &Ws,
                   const std::vector<std::string> &Tools) {
    for (const Workload &W : Ws)
      for (ObfuscationMode M : allObfuscationModes())
        for (const std::string &T : Tools) {
          auto A = Pipe.diffOutcome(W, M, deriveCellSeed(Seed, W.Name, M), T);
          Lines.push_back(outcomeLine(W, M, T, A->Ok, A->Outcome.Precision,
                                      A->Outcome.Similarity));
        }
  };
  Plane(P.All, lightTools());
  Plane(P.Small, heavyTools());
  return Lines;
}

/// Mean over (tool, Khaos mode) of the per-program mean P@1, as fig8
/// aggregates it; \p D must be a matrix over khaosModes().
double khaosPrecision(const DiffMatrix &D) {
  const size_t NumModes = khaosModes().size();
  double Sum = 0.0;
  size_t Terms = 0;
  auto Plane = [&](const std::vector<EvalScheduler::CellPrecision> &Cells,
                   size_t NumTools) {
    for (size_t T = 0; T != NumTools; ++T)
      for (size_t MI = 0; MI != NumModes; ++MI) {
        double S = 0.0;
        size_t N = 0;
        for (size_t I = MI; I < Cells.size(); I += NumModes)
          if (Cells[I].Ok && Cells[I].PerTool[T] >= 0.0) {
            S += Cells[I].PerTool[T];
            ++N;
          }
        Sum += N ? S / static_cast<double>(N) : 0.0;
        ++Terms;
      }
  };
  Plane(D.Light, lightTools().size());
  Plane(D.Heavy, heavyTools().size());
  return Sum / static_cast<double>(Terms);
}

/// Mean over Khaos modes of the per-program mean VM-cost overhead;
/// \p Cells must be a matrix over khaosModes().
double khaosOverhead(const std::vector<EvalScheduler::CellOverhead> &Cells) {
  const size_t NumModes = khaosModes().size();
  double Sum = 0.0;
  for (size_t MI = 0; MI != NumModes; ++MI) {
    double S = 0.0;
    size_t N = 0;
    for (size_t I = MI; I < Cells.size(); I += NumModes)
      if (Cells[I].Ok) {
        S += Cells[I].Percent;
        ++N;
      }
    Sum += N ? S / static_cast<double>(N) : 0.0;
  }
  return Sum / static_cast<double>(NumModes);
}

void checkOverheadCells(Ledger &L,
                        const std::vector<EvalScheduler::CellOverhead> &Cells,
                        const ProgramSet &P,
                        const std::vector<ObfuscationMode> &Modes) {
  // overheadPercent's Ok already requires the obfuscated run's stdout and
  // exit value to equal the baseline's.
  for (size_t I = 0; I != Cells.size(); ++I)
    L.check(Cells[I].Ran && Cells[I].Ok,
            "overhead cell " + P.All[I / Modes.size()].Name + " " +
                obfuscationModeName(Modes[I % Modes.size()]));
}

/// Each program's O2 baseline must print and return the same under the
/// precompiled engine as under the reference interpreter. Programs are
/// independent, so they are checked on the run's thread count.
void checkBaselinesAgainstReference(Ledger &L, const ProgramSet &P,
                                    unsigned Threads) {
  std::vector<std::string> Problems(P.All.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < P.All.size();) {
      const Workload &W = P.All[I];
      Context Ctx;
      std::string Error;
      std::unique_ptr<Module> M = compileMiniC(W.Source, Ctx, W.Name, Error);
      if (!M) {
        Problems[I] = "frontend: " + Error;
        continue;
      }
      optimizeModule(*M, OptLevel::O2);
      ExecOptions Ref, Pre;
      Ref.Engine = VMEngine::Reference;
      Pre.Engine = VMEngine::Precompiled;
      ExecResult A = runModule(*M, Ref), B = runModule(*M, Pre);
      if (!A.Ok || !B.Ok || A.Stdout != B.Stdout || A.ExitValue != B.ExitValue)
        Problems[I] = "engines disagree (reference: " +
                      (A.Ok ? std::string("ok") : A.Error) +
                      ", precompiled: " + (B.Ok ? std::string("ok") : B.Error) +
                      ")";
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &Th : Pool)
    Th.join();
  for (size_t I = 0; I != P.All.size(); ++I)
    L.check(Problems[I].empty(), "precompiled vs reference baseline output of " +
                                     P.All[I].Name + " " + Problems[I]);
}

/// The deterministic protection guards, each computed outside any timing
/// by its own scheduler over khaosModes().
double guardPrecision(const RunConfig &C, const ProgramSet &P, Ledger &L) {
  EvalScheduler S(schedulerConfig(C, ""));
  DiffMatrix D = runDiffMatrix(S, P, khaosModes(), nullptr);
  checkDiffMatrix(L, D, P, khaosModes());
  return khaosPrecision(D);
}

double guardOverhead(const RunConfig &C, const ProgramSet &P, Ledger &L) {
  EvalScheduler S(schedulerConfig(C, ""));
  auto Cells = S.overheadMatrix(P.All, khaosModes());
  checkOverheadCells(L, Cells, P, khaosModes());
  return khaosOverhead(Cells);
}

/// Set-up of the cold workloads: program generation and tool
/// construction. Each timed child sets up once; run.py reports the median
/// over the children.
ProgramSet coldSetup(const RunConfig &C, Result &R) {
  Clock::time_point T0 = Clock::now();
  ProgramSet P = drawPrograms(C.Seed, C.InputSize);
  for (const std::string &T : lightTools())
    createDiffTool(T);
  for (const std::string &T : heavyTools())
    createDiffTool(T);
  R.set("setup_s", secondsSince(T0), "s");
  return P;
}

/// Accumulates one round's timing into the run's series. The peak RSS is
/// the process's after its first round: the memory one matrix run needs,
/// whatever number of rounds the child's seconds then allow (later rounds
/// only add allocator fragmentation).
struct RoundSeries {
  std::vector<double> CellsPerS, CpuMsPerCell;
  double FirstRoundPeakMiB = 0.0;
  void add(size_t Cells, double Wall, double Cpu) {
    std::fprintf(stderr,
                 "khaosbench: round %zu: %zu cells in %.3f s wall, %.3f s "
                 "cpu, peak rss %.1f MiB\n",
                 CellsPerS.size(), Cells, Wall, Cpu, peakRssMiB());
    if (CellsPerS.empty())
      FirstRoundPeakMiB = peakRssMiB();
    CellsPerS.push_back(static_cast<double>(Cells) / Wall);
    CpuMsPerCell.push_back(Cpu * 1000.0 / static_cast<double>(Cells));
  }
  void report(Result &R) const {
    R.set("cells_per_s", median(CellsPerS), "cells/s");
    R.set("cpu_ms_per_cell", median(CpuMsPerCell), "ms");
    R.set("peak_rss_mb", FirstRoundPeakMiB, "MiB");
  }
};

/// At least one round, then rounds until the child's seconds are spent.
bool keepGoing(Clock::time_point Start, const RunConfig &C, size_t Rounds) {
  return Rounds == 0 || secondsSince(Start) < C.Seconds;
}

//===----------------------------------------------------------------------===//
// The three workloads
//===----------------------------------------------------------------------===//

Result runDiffCold(const RunConfig &C) {
  Result R;
  ProgramSet P = coldSetup(C, R);
  const auto &Modes = allObfuscationModes();
  const size_t Cells = P.All.size() * Modes.size();
  const std::string Tier = C.WorkDir + "/cold-tier";

  RoundSeries Series;
  std::vector<std::string> FirstLines;
  Clock::time_point Start = Clock::now();
  for (size_t Round = 0; keepGoing(Start, C, Round); ++Round) {
    removeTree(Tier);
    double Cpu0 = processCpuSeconds();
    Clock::time_point T0 = Clock::now();
    EvalScheduler S(schedulerConfig(C, Tier));
    EvalRunStats Run;
    DiffMatrix D = runDiffMatrix(S, P, Modes, &Run);
    Series.add(Cells, secondsSince(T0), processCpuSeconds() - Cpu0);

    checkDiffMatrix(R.L, D, P, Modes);
    std::vector<std::string> Lines = outcomeLines(S.pipeline(), P, C.Seed);
    if (Round == 0)
      FirstLines = std::move(Lines);
    else
      R.L.check(Lines == FirstLines, "diff-cold round " +
                                         std::to_string(Round) +
                                         " equals round 0");
  }
  removeTree(Tier);
  Series.report(R);
  return R;
}

Result runOverheadCold(const RunConfig &C) {
  Result R;
  ProgramSet P = coldSetup(C, R);
  const auto &Modes = allObfuscationModes();
  const size_t Cells = P.All.size() * Modes.size();

  RoundSeries Series;
  std::vector<double> First;
  Clock::time_point Start = Clock::now();
  for (size_t Round = 0; keepGoing(Start, C, Round); ++Round) {
    double Cpu0 = processCpuSeconds();
    Clock::time_point T0 = Clock::now();
    std::vector<EvalScheduler::CellOverhead> Out;
    {
      EvalScheduler S(schedulerConfig(C, ""));
      Out = S.overheadMatrix(P.All, Modes);
    }
    Series.add(Cells, secondsSince(T0), processCpuSeconds() - Cpu0);

    checkOverheadCells(R.L, Out, P, Modes);
    std::vector<double> Percents;
    for (const auto &O : Out)
      Percents.push_back(O.Percent);
    if (Round == 0)
      First = std::move(Percents);
    else
      R.L.check(Percents == First, "overhead-cold round " +
                                       std::to_string(Round) +
                                       " equals round 0");
  }
  Series.report(R);
  return R;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

Result runDiffWarm(const RunConfig &C) {
  Result R;
  ProgramSet P = drawPrograms(C.Seed, C.InputSize);
  const auto &Modes = allObfuscationModes();
  const size_t Cells = P.All.size() * Modes.size();
  const std::vector<std::string> Reference = readLines(warmReferencePath(C));
  R.L.check(!Reference.empty(), "diff-warm reference written by the fill");

  RoundSeries Series;
  Clock::time_point Start = Clock::now();
  for (size_t Round = 0; keepGoing(Start, C, Round); ++Round) {
    double Cpu0 = processCpuSeconds();
    Clock::time_point T0 = Clock::now();
    EvalScheduler S(schedulerConfig(C, warmTierDir(C)));
    EvalRunStats Run;
    DiffMatrix D = runDiffMatrix(S, P, Modes, &Run);
    Series.add(Cells, secondsSince(T0), processCpuSeconds() - Cpu0);

    checkDiffMatrix(R.L, D, P, Modes);
    R.L.check(Run.DiskMisses == 0 && Run.DiskCorrupt == 0,
              "diff-warm round " + std::to_string(Round) +
                  " served from the disk tier (misses=" +
                  std::to_string(Run.DiskMisses) +
                  " corrupt=" + std::to_string(Run.DiskCorrupt) + ")");
    R.L.check(outcomeLines(S.pipeline(), P, C.Seed) == Reference,
              "diff-warm round " + std::to_string(Round) +
                  " per-cell P@1/similarity equal diff-cold's");
  }
  Series.report(R);
  return R;
}

} // namespace

Result khaosbench::runTimed(const RunConfig &C) {
  if (C.Workload == "diff-cold")
    return runDiffCold(C);
  if (C.Workload == "overhead-cold")
    return runOverheadCold(C);
  return runDiffWarm(C);
}

Result khaosbench::runCheck(const RunConfig &C) {
  Result R;
  checkBaselinesAgainstReference(R.L, drawPrograms(C.Seed, C.InputSize),
                                 C.Threads);
  // The guards run on the fixed draw GuardSeed, not on the workload seed:
  // they then read the same at every seed, so any change in them is a
  // change in the obfuscation, not in the inputs.
  RunConfig G = C;
  G.Seed = GuardSeed;
  const ProgramSet P = drawPrograms(G.Seed, G.InputSize);
  R.set("khaos_precision_at1", guardPrecision(G, P, R.L), "ratio");
  R.set("khaos_overhead_pct", guardOverhead(G, P, R.L), "%");
  return R;
}

Result khaosbench::runFill(const RunConfig &C) {
  Result R;
  const auto &Modes = allObfuscationModes();
  Clock::time_point T0 = Clock::now();
  ProgramSet P = drawPrograms(C.Seed, C.InputSize);
  const double DrawS = secondsSince(T0);
  std::vector<double> Fills;
  std::vector<std::string> FirstLines;
  for (int I = 0; I != WarmFills; ++I) {
    removeTree(warmTierDir(C));
    Clock::time_point T1 = Clock::now();
    for (const std::string &T : lightTools())
      createDiffTool(T);
    for (const std::string &T : heavyTools())
      createDiffTool(T);
    EvalScheduler S(schedulerConfig(C, warmTierDir(C)));
    DiffMatrix D = runDiffMatrix(S, P, Modes, nullptr);
    Fills.push_back(secondsSince(T1));

    checkDiffMatrix(R.L, D, P, Modes);
    std::vector<std::string> Lines = outcomeLines(S.pipeline(), P, C.Seed);
    if (I == 0)
      FirstLines = std::move(Lines);
    else
      R.L.check(Lines == FirstLines,
                "diff-warm fill " + std::to_string(I) + " equals fill 0");
  }
  std::ofstream Out(warmReferencePath(C));
  for (const std::string &L : FirstLines)
    Out << L << '\n';
  Out.close();
  R.L.check(static_cast<bool>(Out), "write " + warmReferencePath(C));
  R.set("setup_s", DrawS + median(Fills), "s");
  return R;
}

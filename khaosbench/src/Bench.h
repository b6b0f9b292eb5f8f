//===- khaosbench/src/Bench.h - Repository benchmark plumbing ---*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the repository benchmark: the seeded program
/// draw, the correctness ledger, the metric record every mode prints, and
/// the entry points of the timed, fill and traced modes. The benchmark
/// reaches the library only through its public headers; every span it
/// records sits around a call into a library module.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOSBENCH_BENCH_H
#define KHAOSBENCH_BENCH_H

#include "harness/EvalScheduler.h"
#include "harness/Evaluator.h"
#include "workloads/Suites.h"
#include "workloads/SyntheticProgram.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace khaosbench {

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// Input size: Full is what the timed runs measure, Tiny is the
/// self-test's seconds-long variant of the same shapes.
enum class Size { Full, Tiny };

/// The generated inputs of one run. Every workload runs All; the diff
/// workloads diff All with the four light tools and, as in fig8, run
/// DeepBinDiff only on Small, the programs with the fewest functions.
struct ProgramSet {
  std::vector<khaos::ProgramSpec> Specs; ///< Parallel to All.
  std::vector<khaos::Workload> All;
  std::vector<khaos::Workload> Small;
};

/// Draws the program shapes from \p Seed (stratified over the SPEC rows'
/// ranges, see Programs.cpp) and generates their sources.
ProgramSet drawPrograms(uint64_t Seed, Size S);

//===----------------------------------------------------------------------===//
// Run configuration and results
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload; ///< diff-cold | overhead-cold | diff-warm
  uint64_t Seed = 1;
  double Seconds = 10.0;
  Size InputSize = Size::Full;
  unsigned Threads = 4;
  std::string WorkDir;  ///< Scratch space owned by this run.
  std::string TraceOut; ///< Chrome trace path (traced mode).
};

/// Attempted/failed ledger over cells, tool tasks and correctness checks.
/// A failed entry is reported on stderr with its reason.
struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void check(bool Ok, const std::string &What);
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// What every mode prints as its final stdout line.
struct Result {
  Ledger L;
  std::map<std::string, Metric> Metrics;
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
};

/// Prints the human-readable metric lines and then the JSON line.
void printResult(const Result &R);

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

/// The paper's five tools, split as fig8 does.
const std::vector<std::string> &lightTools();
const std::vector<std::string> &heavyTools();
/// The five Khaos modes the protection-strength guards average over.
const std::vector<khaos::ObfuscationMode> &khaosModes();

/// Timed mode: set-up, then matrix rounds until C.Seconds are spent (at
/// least one), each checked against the first. For diff-warm the disk
/// tier must have been filled by runFill in the same WorkDir.
Result runTimed(const RunConfig &C);

/// Check mode, untimed: every program's baseline on both VM engines, and
/// both deterministic protection guards on a fixed program draw.
Result runCheck(const RunConfig &C);

/// diff-warm set-up: draws the programs, fills WorkDir's disk tier with a
/// cold diff matrix twice (setup_s is the draw plus the median fill), and
/// writes the cold per-cell reference the replay is checked against.
Result runFill(const RunConfig &C);

/// Traced mode: the harness pass and the layer pass (TracedRun.cpp).
Result runTraced(const RunConfig &C);

//===----------------------------------------------------------------------===//
// Helpers shared by the modes
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Process user+sys CPU seconds so far (all threads).
double processCpuSeconds();

/// Peak resident set of this process in MiB.
double peakRssMiB();

double median(std::vector<double> V);

/// The disk tier directory of a diff-warm WorkDir, and its reference file.
std::string warmTierDir(const RunConfig &C);
std::string warmReferencePath(const RunConfig &C);

/// One (cell x tool) result as a comparable line, the doubles in hex so
/// two results compare bit for bit. Overhead cells have an empty tool and
/// the percent in \p A.
std::string outcomeLine(const khaos::Workload &W, khaos::ObfuscationMode M,
                        const std::string &Tool, bool Ok, double A, double B);

/// Removes \p Dir recursively (no-op when absent).
void removeTree(const std::string &Dir);

} // namespace khaosbench

#endif // KHAOSBENCH_BENCH_H

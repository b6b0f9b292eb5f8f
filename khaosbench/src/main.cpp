//===- khaosbench/src/main.cpp - Repository benchmark binary --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary. khaosbench/run.py builds it and calls it; it can
/// also be run by hand:
///
///   khaosbench timed  --workload W --seed N --seconds S --work-dir D
///   khaosbench check  --workload W --seed N --work-dir D
///   khaosbench fill   --workload diff-warm --seed N --work-dir D
///   khaosbench traced --workload W --seed N --work-dir D --trace-out F
///
/// with W one of diff-cold, overhead-cold, diff-warm, and `--size tiny`
/// for the self-test's small inputs. Every scheduler and pool runs on the
/// hardware thread count, at most 4. diff-warm's timed and traced modes
/// read the disk tier a `fill` into the same work dir wrote.
///
/// Every mode checks its outputs and prints one metric per line, then a
/// JSON line {"correct", "attempted", "failed", "metrics"}; it exits 1 when
/// any check failed. The checks: every matrix cell and tool task ran;
/// every overhead cell kept the baseline's output; each program's baseline
/// prints the same on the precompiled engine as on the reference
/// interpreter; repeated rounds reproduce round 0; diff-warm's per-cell
/// P@1 and similarity equal the cold fill's bit for bit and come from the
/// disk tier alone; the traced harness pass agrees across thread counts
/// and with the layer pass.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

using namespace khaosbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "khaosbench: %s\n"
               "usage: khaosbench timed|check|fill|traced --workload "
               "diff-cold|overhead-cold|diff-warm --seed N --work-dir D\n"
               "       [--seconds S] [--size full|tiny] [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    usage("missing mode");
  const std::string Mode = argv[1];
  if (Mode != "timed" && Mode != "check" && Mode != "fill" &&
      Mode != "traced")
    usage("unknown mode");

  RunConfig C;
  C.Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (int I = 2; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    if (Flag == "--workload")
      C.Workload = V;
    else if (Flag == "--seed")
      C.Seed = std::strtoull(V, nullptr, 0);
    else if (Flag == "--seconds")
      C.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--size" && std::strcmp(V, "full") == 0)
      C.InputSize = Size::Full;
    else if (Flag == "--size" && std::strcmp(V, "tiny") == 0)
      C.InputSize = Size::Tiny;
    else if (Flag == "--work-dir")
      C.WorkDir = V;
    else if (Flag == "--trace-out")
      C.TraceOut = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (C.Workload != "diff-cold" && C.Workload != "overhead-cold" &&
      C.Workload != "diff-warm")
    usage("unknown workload");
  if (Mode == "fill" && C.Workload != "diff-warm")
    usage("fill is diff-warm's set-up");
  if (C.WorkDir.empty())
    usage("missing --work-dir");
  if (Mode == "traced" && C.TraceOut.empty())
    usage("missing --trace-out");
  std::error_code EC;
  std::filesystem::create_directories(C.WorkDir, EC);

  Result R = Mode == "timed"   ? runTimed(C)
             : Mode == "check" ? runCheck(C)
             : Mode == "fill"  ? runFill(C)
                               : runTraced(C);
  printResult(R);
  return R.L.Failed == 0 ? 0 : 1;
}

//===- examples/minic_khaos_cc.cpp - Command-line compiler driver --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A clang-like driver for the MiniC → KIR → Khaos → binary pipeline:
///
///   minic_khaos_cc FILE.c [-obf MODE] [-O0|-O1|-O2|-O3] [-emit-ir]
///                  [-emit-asm] [-run]
///
/// MODE is any obfuscation mode name, matched as parseObfuscationModeName
/// does (none, sub, fla10, mba, splitbb, fufi.sep, ...). Without a FILE, a
/// built-in demo program is used.
///
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"
#include "frontend/IRGen.h"
#include "ir/CFGExport.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "obfuscation/KhaosDriver.h"
#include "vm/Interpreter.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace khaos;

namespace {

const char *Demo = R"(
int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
int main() { printf("gcd(462, 1071) = %d\n", gcd(462, 1071)); return 0; }
)";

} // namespace

int main(int argc, char **argv) {
  std::string Source = Demo;
  std::string InputName = "<demo>";
  ObfuscationMode Mode = ObfuscationMode::FuFiAll;
  OptLevel Level = OptLevel::O2;
  bool EmitIR = false, EmitAsm = false, Run = false;
  bool EmitCFG = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-obf" && I + 1 < argc) {
      if (!parseObfuscationModeName(argv[++I], Mode)) {
        std::fprintf(stderr, "error: unknown obfuscation mode '%s'\n",
                     argv[I]);
        return 1;
      }
    } else if (Arg == "-O0") {
      Level = OptLevel::O0;
    } else if (Arg == "-O1") {
      Level = OptLevel::O1;
    } else if (Arg == "-O2") {
      Level = OptLevel::O2;
    } else if (Arg == "-O3") {
      Level = OptLevel::O3;
    } else if (Arg == "-emit-ir") {
      EmitIR = true;
    } else if (Arg == "-emit-cfg") {
      EmitCFG = true;
    } else if (Arg == "-emit-asm") {
      EmitAsm = true;
    } else if (Arg == "-run") {
      Run = true;
    } else if (Arg[0] != '-') {
      std::ifstream In(Arg);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", Arg.c_str());
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Source = SS.str();
      InputName = Arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s [FILE.c] [-obf MODE] [-O0..-O3] [-emit-ir] "
                   "[-emit-cfg] [-emit-asm] [-run]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!EmitIR && !EmitAsm && !Run)
    EmitAsm = Run = true; // Sensible default.

  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, InputName, Error);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", InputName.c_str(), Error.c_str());
    return 1;
  }

  KhaosOptions Opts;
  Opts.PostOptLevel = Level;
  obfuscateModule(*M, Mode, Opts);

  std::printf("; %s | obf=%s | opt=O%d\n", InputName.c_str(),
              obfuscationModeName(Mode), (int)Level);
  if (EmitIR)
    std::printf("%s\n", printModule(*M).c_str());
  if (EmitCFG) {
    std::printf("%s", exportCallGraph(*M).c_str());
    for (const auto &F : M->functions())
      if (!F->isDeclaration())
        std::printf("%s", exportCFG(*F).c_str());
  }
  if (EmitAsm)
    std::printf("%s\n", lowerToBinary(*M).disassemble().c_str());
  if (Run) {
    ExecResult R = runModule(*M);
    if (!R.Ok) {
      std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("%s[exit %lld, %llu steps, %llu cost]\n", R.Stdout.c_str(),
                (long long)R.ExitValue, (unsigned long long)R.Steps,
                (unsigned long long)R.Cost);
  }
  return 0;
}

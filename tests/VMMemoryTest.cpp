//===- tests/VMMemoryTest.cpp - VM memory images and layout --------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A run's memory image comes from a per-thread pool and goes back to it
/// with only its dirty ranges re-zeroed. These tests pin what that must
/// not change, on both engines: every run starts from all-zero memory,
/// whatever the run before it on the thread wrote (globals, deep stack
/// frames, the heap, addresses outside both), also across a run with
/// another MemoryBytes; and the stack stops at the heap base, so it can
/// never grow into live heap.
///
//===----------------------------------------------------------------------===//

#include "frontend/IRGen.h"
#include "ir/Module.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace khaos;

namespace {

/// Compiles \p Source (must succeed) and runs it under \p Engine.
ExecResult compileAndRun(const std::string &Source, VMEngine Engine,
                         uint64_t MemoryBytes = 16u << 20) {
  Context Ctx;
  std::string Error;
  auto M = compileMiniC(Source, Ctx, "vmmem", Error);
  EXPECT_TRUE(M) << "compile error: " << Error;
  if (!M)
    return {};
  ExecOptions Opts;
  Opts.Engine = Engine;
  Opts.MemoryBytes = MemoryBytes;
  return runModule(*M, Opts);
}

// The writer dirties every kind of location a run can reach: a global,
// stack frames 200 calls deep, the heap, and two in-range addresses that
// are neither stack nor heap (one below the heap base, one above the heap
// top). The reader reads each of them before writing anything.
const char *const Writer = "int g[64];\n"
                           "int deep(int n) {\n"
                           "  int pad[256];\n"
                           "  pad[255] = 99;\n"
                           "  if (n == 0) {\n"
                           "    int i = 0;\n"
                           "    while (i < 256) { pad[i] = i + 1; i++; }\n"
                           "    return pad[7];\n"
                           "  }\n"
                           "  return deep(n - 1);\n"
                           "}\n"
                           "int main() {\n"
                           "  g[63] = 5;\n"
                           "  int *h = (int*)malloc(4096L);\n"
                           "  h[1000] = 9;\n"
                           "  int *low = (int*)6000000L;\n"
                           "  *low = 4;\n"
                           "  int *high = (int*)14000000L;\n"
                           "  *high = 3;\n"
                           "  return deep(200) + g[63] + h[1000] + *low + "
                           "*high;\n"
                           "}\n";

// Exit value: one bit per location that was not zero.
const char *const Reader = "int g[64];\n"
                           "int main() {\n"
                           "  int bad = 0;\n"
                           "  if (g[63] != 0) bad += 1;\n"
                           "  int *stack = (int*)65536L;\n"
                           "  int i = 0;\n"
                           "  while (i < 40000) {\n"
                           "    if (stack[i] != 0) bad = bad | 2;\n"
                           "    i++;\n"
                           "  }\n"
                           "  int *h = (int*)malloc(4096L);\n"
                           "  if (h[1000] != 0) bad = bad | 4;\n"
                           "  int *low = (int*)6000000L;\n"
                           "  if (*low != 0) bad = bad | 8;\n"
                           "  int *high = (int*)14000000L;\n"
                           "  if (*high != 0) bad = bad | 16;\n"
                           "  return bad;\n"
                           "}\n";

class VMMemoryReuse : public ::testing::TestWithParam<VMEngine> {};

TEST_P(VMMemoryReuse, EveryRunStartsFromZeroedMemory) {
  const VMEngine E = GetParam();
  ExecResult W = compileAndRun(Writer, E);
  ASSERT_TRUE(W.Ok) << W.Error;
  ASSERT_EQ(W.ExitValue, 8 + 5 + 9 + 4 + 3);

  // A run at another size in between takes (and dirties) an image of its
  // own; the 16 MiB image must come back clean all the same.
  ExecResult Big = compileAndRun(Writer, E, 32u << 20);
  ASSERT_TRUE(Big.Ok) << Big.Error;
  ASSERT_EQ(Big.ExitValue, 8 + 5 + 9 + 4 + 3);

  ExecResult R = compileAndRun(Reader, E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, 0) << "bits set: locations the writer left dirty";

  ExecResult RBig = compileAndRun(Reader, E, 32u << 20);
  ASSERT_TRUE(RBig.Ok) << RBig.Error;
  EXPECT_EQ(RBig.ExitValue, 0) << "bits set: locations the writer left dirty";
}

// A stack that reaches the heap base traps, however much heap is live:
// the program fills a 4 MB heap block, then recurses far enough to cross
// the heap base with 4 KiB frames. It must trap rather than finish with
// its heap overwritten by the frames' zeroing.
TEST_P(VMMemoryReuse, StackStopsAtTheHeapBase) {
  const char *Source = "int depth(int n) {\n"
                       "  int pad[1024];\n"
                       "  pad[0] = n;\n"
                       "  if (n == 0) return pad[0];\n"
                       "  return depth(n - 1) + pad[0] - n;\n"
                       "}\n"
                       "int main() {\n"
                       "  int *heap = (int*)malloc(4000000L);\n"
                       "  int i = 0;\n"
                       "  while (i < 1000000) { heap[i] = 7; i = i + 64; }\n"
                       "  depth(2400);\n"
                       "  int bad = 0;\n"
                       "  i = 0;\n"
                       "  while (i < 1000000) {\n"
                       "    if (heap[i] != 7) bad++;\n"
                       "    i = i + 64;\n"
                       "  }\n"
                       "  return bad;\n"
                       "}\n";
  ExecResult R = compileAndRun(Source, GetParam());
  EXPECT_FALSE(R.Ok) << "finished with " << R.ExitValue
                     << " heap samples overwritten";
  EXPECT_NE(R.Error.find("stack overflow"), std::string::npos) << R.Error;
  EXPECT_EQ(R.FaultFunction, "depth");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, VMMemoryReuse,
                         ::testing::Values(VMEngine::Reference,
                                           VMEngine::Precompiled),
                         [](const ::testing::TestParamInfo<VMEngine> &I) {
                           return std::string(vmEngineName(I.param));
                         });

} // namespace

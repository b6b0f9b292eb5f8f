//===- khaosbench/src/TracedRun.cpp - Per-layer traced run ----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run behind the per-layer metrics. It never shares a process
/// with a timed run and has two passes over the workload's cells:
///
///  1. Harness pass: the benchmark's own threads pull (cell x tool) tasks
///     off a ticket counter and call the public EvalPipeline stages
///     (baselineImage, obfuscatedImage, diffOutcome; baselineRun,
///     overheadPercent), once on 1 thread and once on the run's thread
///     count. Three more passes on that count, recording off, on and off,
///     measure the tracing overhead.
///  2. Layer pass: one thread drives the same cells through the raw module
///     entry points the pipeline calls (compileMiniC, optimizeModule,
///     cloneModule, runFissionPhase, obfuscateModule / finishFissionMode,
///     verifyModule, lowerToBinary, extractFeatures, DiffTool::diff,
///     precisionAt1, runModule), each inside its own span.
///
/// Both passes must produce the same per-task results, and the harness
/// pass must agree with itself across thread counts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "codegen/ISel.h"
#include "diffing/BinaryFeatures.h"
#include "diffing/Metrics.h"
#include "frontend/IRGen.h"
#include "harness/DiskCache.h"
#include "ir/Verifier.h"
#include "transform/Cloning.h"
#include "transform/Pass.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

using namespace khaos;
using namespace khaosbench;

namespace {

const char *const StageNames[] = {"baselineImage", "obfuscatedImage",
                                  "diffOutcome", "baselineRun",
                                  "overheadPercent"};

const char *const LayerNames[] = {"frontend", "transform", "obfuscation",
                                  "codegen",  "diffing",   "vm",
                                  "ir"};

/// One unit of the harness pass: a (cell x tool) task of a diff
/// workload, or a cell of overhead-cold (Tool empty).
struct HarnessTask {
  const Workload *W = nullptr;
  ObfuscationMode Mode = ObfuscationMode::None;
  std::string Tool;
};

std::vector<HarnessTask> harnessTasks(const ProgramSet &P, bool Diff) {
  std::vector<HarnessTask> Tasks;
  auto Plane = [&](const std::vector<Workload> &Ws,
                   const std::vector<std::string> &Tools) {
    for (const Workload &W : Ws)
      for (ObfuscationMode M : allObfuscationModes())
        for (const std::string &T : Tools)
          Tasks.push_back({&W, M, T});
  };
  if (Diff) {
    Plane(P.All, lightTools());
    Plane(P.Small, heavyTools());
  } else {
    Plane(P.All, {std::string()});
  }
  return Tasks;
}

struct HarnessPassOut {
  uint64_t SpanId = 0;
  double WallS = 0.0;
  std::vector<std::string> Lines; ///< Sorted.
  std::vector<uint8_t> Ok;        ///< Per task, in task order.
  ArtifactStore::Snapshot Stats;
  uint64_t StoreBytes = 0;
  uint64_t DiskBytes = 0;
};

HarnessPassOut harnessPass(const RunConfig &C,
                           const std::vector<HarnessTask> &Tasks,
                           unsigned Threads, const std::string &CacheDir,
                           const std::string &Name) {
  HarnessPassOut Out;
  EvalPipeline::Config PC;
  PC.CacheDir = CacheDir;
  EvalPipeline Pipe(PC);
  std::vector<std::string> Lines(Tasks.size());
  Out.Ok.assign(Tasks.size(), 0);
  std::atomic<size_t> Ticket{0};

  Clock::time_point T0 = Clock::now();
  {
    Span Pass(Name);
    Out.SpanId = Pass.id();
    auto Worker = [&] {
      adoptParent(Out.SpanId);
      for (size_t I; (I = Ticket.fetch_add(1)) < Tasks.size();) {
        const HarnessTask &T = Tasks[I];
        const uint64_t Seed = deriveCellSeed(C.Seed, T.W->Name, T.Mode);
        Span Task("harness.task");
        if (T.Tool.empty()) {
          {
            Span S("harness.baselineRun");
            Pipe.baselineRun(*T.W);
          }
          double Pct = 0.0;
          bool Ok;
          {
            Span S("harness.overheadPercent");
            Ok = Pipe.overheadPercent(*T.W, T.Mode, Pct, Seed);
          }
          Lines[I] = outcomeLine(*T.W, T.Mode, T.Tool, Ok, Pct, 0.0);
          Out.Ok[I] = Ok;
          continue;
        }
        std::shared_ptr<const EvalPipeline::ImageArtifact> A, B;
        {
          Span S("harness.baselineImage");
          A = Pipe.baselineImage(*T.W);
        }
        {
          Span S("harness.obfuscatedImage");
          B = Pipe.obfuscatedImage(*T.W, T.Mode, Seed);
        }
        std::shared_ptr<const EvalPipeline::DiffArtifact> D;
        {
          Span S("harness.diffOutcome");
          D = Pipe.diffOutcome(*T.W, T.Mode, Seed, T.Tool, A, B);
        }
        Lines[I] = outcomeLine(*T.W, T.Mode, T.Tool, D->Ok,
                               D->Outcome.Precision, D->Outcome.Similarity);
        Out.Ok[I] = D->Ok;
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned I = 0; I != Threads; ++I)
      Pool.emplace_back(Worker);
    for (std::thread &Th : Pool)
      Th.join();
  }
  Out.WallS = secondsSince(T0);
  Out.Stats = Pipe.store().stats();
  Out.StoreBytes = Pipe.store().totalBytes();
  if (DiskCache *Disk = Pipe.store().diskCache())
    Out.DiskBytes = Disk->totalBytes();
  std::sort(Lines.begin(), Lines.end());
  Out.Lines = std::move(Lines);
  return Out;
}

/// Counts the layer pass gathers alongside its spans.
struct LayerCounts {
  uint64_t CompileCalls = 0, SourceBytes = 0, CloneCalls = 0;
  uint64_t InstsSelected = 0, VMSteps = 0;
};

size_t instructionCount(const BinaryImage &I) {
  size_t N = 0;
  for (const MFunction &F : I.Functions)
    N += F.instructionCount();
  return N;
}

/// compileMiniC inside a span; null (and a failed check) on a frontend
/// error.
std::unique_ptr<Module> compile(const Workload &W, Context &Ctx,
                                LayerCounts &N, Ledger &L) {
  std::string Error;
  std::unique_ptr<Module> M;
  {
    Span S("frontend.compile");
    M = compileMiniC(W.Source, Ctx, W.Name, Error);
  }
  ++N.CompileCalls;
  N.SourceBytes += W.Source.size();
  L.check(M != nullptr, "frontend " + W.Name + ": " + Error);
  return M;
}

struct Lowered {
  BinaryImage Image;
  ImageFeatures Features;
};

Lowered lower(const Module &M, const CodegenOptions &CG, LayerCounts &N) {
  Lowered Out;
  {
    Span S("codegen.lower");
    Out.Image = lowerToBinary(M, CG);
  }
  N.InstsSelected += instructionCount(Out.Image);
  Span S("diffing.features");
  Out.Features = extractFeatures(Out.Image);
  return Out;
}

ExecResult run(const Module &M, LayerCounts &N) {
  ExecResult R;
  {
    Span S("vm.run");
    R = runModule(M);
  }
  N.VMSteps += R.Steps;
  return R;
}

/// Destroys a module and its context inside a span: freeing IR is work
/// the pipeline pays too, and the pass's coverage must include it.
void release(std::unique_ptr<Module> &M, std::unique_ptr<Context> &Ctx) {
  Span S("ir.release");
  M.reset();
  Ctx.reset();
}

struct LayerPassOut {
  uint64_t SpanId = 0;
  std::vector<std::string> Lines; ///< Sorted.
  LayerCounts Counts;
};

LayerPassOut layerPass(const RunConfig &C, const ProgramSet &P, bool Diff,
                       Ledger &L) {
  LayerPassOut Out;
  LayerCounts &N = Out.Counts;
  std::map<std::string, std::unique_ptr<DiffTool>> Tools;
  for (const std::string &T : lightTools())
    Tools[T] = createDiffTool(T);
  for (const std::string &T : heavyTools())
    Tools[T] = createDiffTool(T);
  const BuildConfig Baseline;

  Span Pass("layer_pass");
  Out.SpanId = Pass.id();
  for (size_t WI = 0; WI != P.All.size(); ++WI) {
    const Workload &W = P.All[WI];
    std::vector<std::string> CellTools;
    if (Diff) {
      CellTools = lightTools();
      if (WI < P.Small.size())
        CellTools.push_back(heavyTools().front());
    }

    // Work done once per program and shared by its cells: the baseline
    // (by all 12 modes) and the fission prefix (by the 4 fission modes).
    auto BaseCtx = std::make_unique<Context>();
    std::unique_ptr<Module> Base;
    Lowered A;
    ExecResult BaseRun;
    {
      Span Shared("shared.baseline");
      Base = compile(W, *BaseCtx, N, L);
      if (!Base)
        continue;
      {
        Span S("transform.o2");
        optimizeModule(*Base, Baseline.Level);
      }
      if (Diff)
        A = lower(*Base, Baseline.Codegen, N);
      else
        BaseRun = run(*Base, N);
    }

    auto FisCtx = std::make_unique<Context>();
    std::unique_ptr<Module> FisM;
    FissionPhase Phase;
    {
      Span Shared("shared.fission_prefix");
      FisM = compile(W, *FisCtx, N, L);
      if (!FisM)
        continue;
      Span S("obfuscation.fission_prefix");
      Phase = runFissionPhase(*FisM);
    }

    for (ObfuscationMode M : allObfuscationModes()) {
      KhaosOptions Opts;
      Opts.Seed = deriveCellSeed(C.Seed, W.Name, M);
      const std::string ModeSpan =
          std::string("obfuscation.mode.") + obfuscationModeName(M);
      std::unique_ptr<Context> Ctx;
      std::unique_ptr<Module> Obf;
      if (modeUsesFission(M)) {
        {
          Span S("transform.clone");
          Obf = cloneModule(*FisM);
        }
        ++N.CloneCalls;
        Span S(ModeSpan);
        finishFissionMode(*Obf, M, Opts, Phase);
      } else {
        Ctx = std::make_unique<Context>();
        Obf = compile(W, *Ctx, N, L);
        if (!Obf)
          continue;
        Span S(ModeSpan);
        obfuscateModule(*Obf, M, Opts);
      }
      bool Verified;
      {
        Span S("ir.verify");
        Verified = verifyModule(*Obf).empty();
      }
      L.check(Verified, std::string("verifier on ") + W.Name + " " +
                            obfuscationModeName(M));

      if (Diff) {
        Lowered B = lower(*Obf, CodegenOptions(), N);
        for (const std::string &T : CellTools) {
          DiffResult Raw;
          {
            Span S("diffing.tool." + T);
            Raw = Tools[T]->diff(A.Image, A.Features, B.Image, B.Features);
          }
          double Precision;
          {
            Span S("diffing.precision");
            Precision = precisionAt1(A.Image, B.Image, Raw);
          }
          Out.Lines.push_back(outcomeLine(W, M, T, true, Precision,
                                          Raw.WholeBinarySimilarity));
        }
      } else {
        ExecResult R = run(*Obf, N);
        bool Ok = BaseRun.Ok && R.Ok && R.Stdout == BaseRun.Stdout &&
                  R.ExitValue == BaseRun.ExitValue && BaseRun.Cost != 0;
        double Pct = Ok ? (static_cast<double>(R.Cost) -
                           static_cast<double>(BaseRun.Cost)) /
                              static_cast<double>(BaseRun.Cost) * 100.0
                        : 0.0;
        Out.Lines.push_back(outcomeLine(W, M, "", Ok, Pct, 0.0));
      }
      release(Obf, Ctx);
    }
    release(FisM, FisCtx);
    release(Base, BaseCtx);
  }
  std::sort(Out.Lines.begin(), Out.Lines.end());
  return Out;
}

/// Span sums over the spans that descend from one pass.
struct SpanTotals {
  std::map<std::string, double> SelfS;  ///< By span name.
  std::map<std::string, double> TotalS; ///< By span name.
  std::map<std::string, uint64_t> Calls;
};

SpanTotals totalsUnder(const std::vector<SpanRecord> &Spans,
                       const std::vector<double> &SelfUs, uint64_t Root) {
  std::map<uint64_t, const SpanRecord *> ById;
  for (const SpanRecord &S : Spans)
    ById[S.Id] = &S;
  SpanTotals T;
  for (size_t I = 0; I != Spans.size(); ++I) {
    if (!descendsFrom(ById, Spans[I].Id, Root))
      continue;
    T.SelfS[Spans[I].Name] += SelfUs[I] * 1e-6;
    T.TotalS[Spans[I].Name] += Spans[I].durationUs() * 1e-6;
    ++T.Calls[Spans[I].Name];
  }
  return T;
}

double get(const std::map<std::string, double> &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0.0 : It->second;
}

} // namespace

Result khaosbench::runTraced(const RunConfig &C) {
  Result R;
  const bool Diff = C.Workload != "overhead-cold";
  const bool Warm = C.Workload == "diff-warm";
  setTracing(true);

  ProgramSet P;
  uint64_t GenerateId;
  {
    Span S("workloads.generate");
    GenerateId = S.id();
    P = drawPrograms(C.Seed, C.InputSize);
  }
  const std::vector<HarnessTask> Tasks = harnessTasks(P, Diff);

  // Cold diff passes each write a fresh tier; diff-warm reads the filled
  // one; overhead-cold has none.
  auto TierFor = [&](const char *Tag) -> std::string {
    if (Warm)
      return warmTierDir(C);
    if (!Diff)
      return "";
    std::string Dir = C.WorkDir + "/traced-tier-" + Tag;
    removeTree(Dir);
    return Dir;
  };
  HarnessPassOut One =
      harnessPass(C, Tasks, 1, TierFor("t1"), "harness_pass.threads1");
  HarnessPassOut Many = harnessPass(C, Tasks, C.Threads, TierFor("tn"),
                                    "harness_pass.threadsN");
  // Tracing overhead: the N-thread pass again, recording off, on, off.
  // Each pass reuses memory its predecessors freed, so a single pair
  // would mostly measure pass order; the fastest of each side is compared.
  double TracedS = Many.WallS, UntracedS = 0.0;
  for (const char *Tag : {"off1", "on", "off2"}) {
    const bool On = Tag[1] == 'n';
    setTracing(On);
    HarnessPassOut Extra = harnessPass(C, Tasks, C.Threads, TierFor(Tag),
                                       std::string("harness_pass.") + Tag);
    setTracing(true);
    double &Side = On ? TracedS : UntracedS;
    Side = Side > 0.0 ? std::min(Side, Extra.WallS) : Extra.WallS;
    R.L.check(Extra.Lines == Many.Lines,
              std::string("harness pass results equal in pass ") + Tag);
  }
  R.L.check(One.Lines == Many.Lines,
            "harness pass results equal at 1 and " +
                std::to_string(C.Threads) + " threads");
  LayerPassOut Layer = layerPass(C, P, Diff, R.L);
  R.L.check(Layer.Lines == Many.Lines,
            "layer pass results equal the harness pass");
  setTracing(false);
  if (Diff && !Warm)
    for (const char *Tag : {"t1", "tn", "off1", "on", "off2"})
      removeTree(C.WorkDir + "/traced-tier-" + Tag);

  const std::vector<SpanRecord> Spans = collectSpans();
  const std::vector<double> SelfUs = selfTimesUs(Spans);
  R.L.check(writeChromeTrace(C.TraceOut, Spans), "write " + C.TraceOut);

  // Layer pass: per-layer self time and counts.
  const SpanTotals LT = totalsUnder(Spans, SelfUs, Layer.SpanId);
  const LayerCounts &N = Layer.Counts;
  auto SelfSum = [&](const std::string &Prefix) {
    double S = 0.0;
    for (const auto &[Name, V] : LT.SelfS)
      if (Name.compare(0, Prefix.size(), Prefix) == 0)
        S += V;
    return S;
  };
  R.set("workloads.generate_s",
        get(totalsUnder(Spans, SelfUs, GenerateId).TotalS,
            "workloads.generate"),
        "s");
  const double CompileS = get(LT.SelfS, "frontend.compile");
  R.set("frontend.compile_s", CompileS, "s");
  R.set("frontend.compile_calls", static_cast<double>(N.CompileCalls),
        "count");
  R.set("frontend.source_mb_per_s",
        CompileS > 0 ? static_cast<double>(N.SourceBytes) / 1e6 / CompileS
                     : 0.0,
        "MB/s");
  R.set("transform.o2_s", get(LT.SelfS, "transform.o2"), "s");
  R.set("transform.clone_s", get(LT.SelfS, "transform.clone"), "s");
  R.set("transform.clone_calls", static_cast<double>(N.CloneCalls), "count");
  R.set("obfuscation.fission_prefix_s",
        get(LT.SelfS, "obfuscation.fission_prefix"), "s");
  for (ObfuscationMode M : allObfuscationModes()) {
    std::string Mode = obfuscationModeName(M);
    R.set("obfuscation.mode_s." + Mode,
          get(LT.SelfS, "obfuscation.mode." + Mode), "s");
  }
  R.set("codegen.lower_s", get(LT.SelfS, "codegen.lower"), "s");
  R.set("codegen.insts_selected", static_cast<double>(N.InstsSelected),
        "count");
  R.set("diffing.features_s", get(LT.SelfS, "diffing.features"), "s");
  R.set("diffing.precision_s", get(LT.SelfS, "diffing.precision"), "s");
  for (const std::vector<std::string> *Tools : {&lightTools(), &heavyTools()})
    for (const std::string &T : *Tools)
      R.set("diffing.tool_s." + T, get(LT.SelfS, "diffing.tool." + T), "s");
  const double VMS = get(LT.SelfS, "vm.run");
  R.set("vm.run_s", VMS, "s");
  R.set("vm.steps", static_cast<double>(N.VMSteps), "count");
  R.set("vm.steps_per_s",
        VMS > 0 ? static_cast<double>(N.VMSteps) / VMS : 0.0, "1/s");
  R.set("ir.verify_s", get(LT.SelfS, "ir.verify"), "s");
  R.set("ir.release_s", get(LT.SelfS, "ir.release"), "s");

  const double LayerWall = get(LT.TotalS, "layer_pass");
  double Covered = 0.0;
  for (const char *Layer : LayerNames) {
    double S = SelfSum(std::string(Layer) + ".");
    Covered += S;
    R.set(std::string("layer_share.") + Layer,
          LayerWall > 0 ? S / LayerWall : 0.0, "ratio");
  }
  R.set("trace.layer_coverage", LayerWall > 0 ? Covered / LayerWall : 0.0,
        "ratio");
  for (const char *Shared : {"baseline", "fission_prefix"})
    R.set(std::string("shared.") + Shared + "_share",
          LayerWall > 0
              ? get(LT.TotalS, std::string("shared.") + Shared) / LayerWall
              : 0.0,
          "ratio");
  R.L.check(LayerWall > 0 && Covered / LayerWall >= 0.9,
            "layer pass self times cover >= 90% of its wall time");

  // Harness pass: stage sums at N threads, inflation against 1 thread,
  // store and disk telemetry of the N-thread pipeline.
  const SpanTotals HM = totalsUnder(Spans, SelfUs, Many.SpanId);
  const SpanTotals H1 = totalsUnder(Spans, SelfUs, One.SpanId);
  double StageMany = 0.0, StageOne = 0.0;
  for (const char *Stage : StageNames) {
    const std::string Key = std::string("harness.") + Stage;
    R.set(std::string("harness.stage_s.") + Stage, get(HM.TotalS, Key), "s");
    auto It = HM.Calls.find(Key);
    R.set(std::string("harness.stage_calls.") + Stage,
          It == HM.Calls.end() ? 0.0 : static_cast<double>(It->second),
          "count");
    StageMany += get(HM.TotalS, Key);
    StageOne += get(H1.TotalS, Key);
  }
  R.set("harness.stage_inflation", StageOne > 0 ? StageMany / StageOne : 0.0,
        "ratio");
  const ArtifactStore::Snapshot &St = Many.Stats;
  R.set("harness.store_hit_ratio",
        St.Hits + St.Misses
            ? static_cast<double>(St.Hits) /
                  static_cast<double>(St.Hits + St.Misses)
            : 0.0,
        "ratio");
  R.set("harness.store_bytes", static_cast<double>(Many.StoreBytes), "bytes");
  R.set("harness.disk_hits", static_cast<double>(St.DiskHits), "count");
  R.set("harness.disk_corrupt", static_cast<double>(St.DiskCorrupt), "count");
  R.set("harness.disk_bytes", static_cast<double>(Many.DiskBytes), "bytes");
  R.set("trace.overhead_pct", (TracedS - UntracedS) / UntracedS * 100.0,
        "%");
  R.set("harness.wall_s.threads1", One.WallS, "s");
  R.set("harness.wall_s.threadsN", Many.WallS, "s");
  return R;
}

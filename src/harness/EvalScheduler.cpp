//===- harness/EvalScheduler.cpp - Parallel evaluation batches ------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/EvalScheduler.h"

#include "support/RNG.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace khaos;

uint64_t khaos::deriveCellSeed(uint64_t BaseSeed,
                               const std::string &WorkloadName,
                               ObfuscationMode Mode) {
  // Name the stream after the cell and salt it with the base seed and the
  // mode. RNG::fromName is an FNV-1a mix, so distinct workloads get
  // uncorrelated streams while the same cell always maps to the same seed.
  uint64_t Salt =
      BaseSeed * 0x100000001b3ull + static_cast<uint64_t>(Mode) + 1;
  return RNG::fromName(WorkloadName, Salt).next();
}

void EvalRunStats::mergeCell(const ObfuscationResult &R, bool Failed) {
  std::lock_guard<std::mutex> Lock(M);
  Cells += 1;
  Failures += Failed ? 1 : 0;
  Fission.OriFuncs += R.Fission.OriFuncs;
  Fission.ProcessedFuncs += R.Fission.ProcessedFuncs;
  Fission.SepFuncs += R.Fission.SepFuncs;
  Fission.SepBlocks += R.Fission.SepBlocks;
  Fission.LazyAllocas += R.Fission.LazyAllocas;
  Fission.OriInstructions += R.Fission.OriInstructions;
  Fission.MovedInstructions += R.Fission.MovedInstructions;
  Fusion.Candidates += R.Fusion.Candidates;
  Fusion.Fused += R.Fusion.Fused;
  Fusion.Pairs += R.Fusion.Pairs;
  Fusion.CompressedParams += R.Fusion.CompressedParams;
  Fusion.DeepMergedBlocks += R.Fusion.DeepMergedBlocks;
  Fusion.Trampolines += R.Fusion.Trampolines;
  Fusion.TaggedPointerSites += R.Fusion.TaggedPointerSites;
  Passes.merge(R.Report);
}

void EvalRunStats::countCell(bool Failed) {
  std::lock_guard<std::mutex> Lock(M);
  Cells += 1;
  Failures += Failed ? 1 : 0;
}

void EvalRunStats::mergePasses(const PassReport &R) {
  std::lock_guard<std::mutex> Lock(M);
  Passes.merge(R);
}

void EvalRunStats::countToolFailure() {
  std::lock_guard<std::mutex> Lock(M);
  ToolFailures += 1;
}

void EvalRunStats::mergeCache(const ArtifactStore::Snapshot &Delta) {
  std::lock_guard<std::mutex> Lock(M);
  CacheHits += Delta.Hits;
  CacheMisses += Delta.Misses;
  CacheEvictions += Delta.Evictions;
  CacheBytesSaved += Delta.BytesSaved;
  DiskHits += Delta.DiskHits;
  DiskMisses += Delta.DiskMisses;
  DiskEvictions += Delta.DiskEvictions;
  DiskCorrupt += Delta.DiskCorrupt;
}

EvalScheduler::EvalScheduler(Config C) : Cfg(std::move(C)) {
  if (Cfg.Shards == 0)
    Cfg.Shards = 1;
  if (Cfg.ShardIdx >= Cfg.Shards) {
    std::fprintf(stderr,
                 "EvalScheduler: shard index %u out of range for %u "
                 "shards\n",
                 Cfg.ShardIdx, Cfg.Shards);
    std::abort();
  }
  Workers = Cfg.Threads;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }
  EvalPipeline::Config PC;
  PC.CacheEnabled = Cfg.CacheEnabled;
  PC.StoreMaxBytes = Cfg.StoreMaxBytes;
  PC.Engine = Cfg.Engine;
  PC.CacheDir = Cfg.CacheDir;
  PC.DiskMaxBytes = Cfg.DiskMaxBytes;
  PC.Baseline = Cfg.Baseline;
  Pipe = std::make_shared<EvalPipeline>(PC);

  if (remote()) {
    // Fail fast, and fail loud: a daemon whose engine or cache setting
    // differs from this run's flags would NOT produce byte-identical
    // results, which is the whole --connect contract.
    EvalRequest Req;
    Req.Kind = EvalWireKind::Ping;
    EvalResponse Resp = callDaemon(Req);
    if (Resp.Engine != static_cast<uint8_t>(Cfg.Engine) ||
        (Resp.CacheEnabled != 0) != Cfg.CacheEnabled) {
      std::fprintf(stderr,
                   "EvalScheduler: khaos-evald at '%s' runs engine=%s "
                   "cache=%s but this run wants engine=%s cache=%s — "
                   "results would not be comparable\n",
                   Cfg.ConnectPath.c_str(),
                   vmEngineName(static_cast<VMEngine>(Resp.Engine)),
                   Resp.CacheEnabled ? "on" : "off",
                   vmEngineName(Cfg.Engine),
                   Cfg.CacheEnabled ? "on" : "off");
      std::abort();
    }
    // The baseline build config is an axis of the artifact keys: a client
    // wanting O0 cells from a daemon warmed at O2 must abort loudly here,
    // never silently mix keys.
    BuildConfig DaemonBC;
    DaemonBC.Level = static_cast<OptLevel>(Resp.BaselineLevel);
    DaemonBC.Codegen = BuildConfig::unpackCodegen(Resp.BaselineCodegen);
    if (DaemonBC != Cfg.Baseline) {
      std::fprintf(stderr,
                   "EvalScheduler: khaos-evald at '%s' runs baseline=%s "
                   "but this run wants baseline=%s — results would not "
                   "be comparable\n",
                   Cfg.ConnectPath.c_str(), DaemonBC.name().c_str(),
                   Cfg.Baseline.name().c_str());
      std::abort();
    }
  }
}

EvalScheduler::~EvalScheduler() = default;

EvalResponse EvalScheduler::callDaemon(const EvalRequest &Req) const {
  std::unique_ptr<EvalClient> Client;
  {
    std::lock_guard<std::mutex> Lock(ClientsM);
    if (!Clients.empty()) {
      Client = std::move(Clients.back());
      Clients.pop_back();
    }
  }
  std::string Err;
  if (!Client) {
    Client.reset(new EvalClient());
    if (!Client->connect(Cfg.ConnectPath, Err)) {
      std::fprintf(stderr, "EvalScheduler: cannot reach khaos-evald at "
                           "'%s': %s\n",
                   Cfg.ConnectPath.c_str(), Err.c_str());
      std::abort();
    }
  }
  EvalResponse Resp;
  if (!Client->call(Req, Resp, Err) || !Resp.Ok) {
    std::fprintf(stderr, "EvalScheduler: evald request failed: %s\n",
                 Err.empty() ? Resp.Error.c_str() : Err.c_str());
    std::abort();
  }
  std::lock_guard<std::mutex> Lock(ClientsM);
  Clients.push_back(std::move(Client));
  return Resp;
}

void EvalScheduler::runPool(size_t N,
                            const std::function<void(size_t)> &Fn) const {
  unsigned Pool = Workers;
  if (Pool > N)
    Pool = static_cast<unsigned>(N);

  if (Pool <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }

  // Work-stealing by atomic ticket: workers pull the next unclaimed item,
  // so stragglers never serialize the rest of the matrix.
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      Fn(I);
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(Pool);
  for (unsigned T = 0; T != Pool; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
}

void EvalScheduler::forEachCell(
    const std::vector<Workload> &Workloads,
    const std::vector<ObfuscationMode> &Modes,
    const std::function<void(const EvalCell &)> &Fn) const {
  std::vector<EvalCell> Cells;
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t MI = 0; MI != Modes.size(); ++MI) {
      size_t Flat = WI * Modes.size() + MI;
      if (!ownsCell(Flat))
        continue;
      Cells.push_back({&Workloads[WI], Modes[MI],
                       deriveCellSeed(Cfg.Seed, Workloads[WI].Name,
                                      Modes[MI]),
                       WI, MI, Flat});
    }
  runPool(Cells.size(), [&](size_t I) { Fn(Cells[I]); });
}

std::vector<EvalScheduler::CellCompilation>
EvalScheduler::compileMatrix(const std::vector<Workload> &Workloads,
                             const std::vector<ObfuscationMode> &Modes,
                             EvalRunStats *RunStats) const {
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<CellCompilation> Out(Workloads.size() * Modes.size());
  forEachCell(Workloads, Modes, [&](const EvalCell &C) {
    CellCompilation &Slot = Out[C.FlatIdx];
    Slot.Ran = true;
    Slot.Compiled = Pipe->obfuscate(*C.W, C.Mode, &Slot.Stats, C.Seed);
    if (RunStats)
      RunStats->mergeCell(Slot.Stats, !Slot.Compiled);
  });
  if (RunStats)
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  return Out;
}

std::vector<EvalScheduler::CellOverhead>
EvalScheduler::overheadMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              EvalRunStats *RunStats) const {
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  std::vector<CellOverhead> Out(Workloads.size() * Modes.size());
  forEachCell(Workloads, Modes, [&](const EvalCell &C) {
    CellOverhead &Slot = Out[C.FlatIdx];
    Slot.Ran = true;
    if (!remote()) {
      Slot.Ok = Pipe->overheadPercent(*C.W, C.Mode, Slot.Percent, C.Seed);
    } else {
      // Same cell, same seed, measured on the daemon's warm pipeline. The
      // percent travels as raw double bits, so downstream formatting is
      // byte-identical to an in-process run.
      EvalRequest Req;
      Req.Kind = EvalWireKind::Overhead;
      Req.WorkloadName = C.W->Name;
      Req.WorkloadSource = C.W->Source;
      Req.Mode = C.Mode;
      Req.Seed = C.Seed;
      EvalResponse Resp = callDaemon(Req);
      Slot.Ok = Resp.Measured != 0;
      Slot.Percent = Resp.Percent;
    }
    if (RunStats)
      RunStats->countCell(!Slot.Ok);
  });
  // Remote runs leave the local store untouched, so the delta is zero:
  // the artifacts live in the daemon's store, which reports its own.
  if (RunStats)
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  return Out;
}

DiffTaskResult EvalScheduler::diffTask(const Workload &W,
                                       const BuildConfig &BC,
                                       ObfuscationMode Mode, uint64_t Seed,
                                       const std::string &Tool) const {
  if (!remote())
    return Pipe->diffTask(W, BC, Mode, Seed, Tool);
  EvalRequest Req;
  Req.Kind = EvalWireKind::DiffTask;
  Req.WorkloadName = W.Name;
  Req.WorkloadSource = W.Source;
  Req.VulnFunctions = W.VulnFunctions;
  Req.Mode = Mode;
  Req.Seed = Seed;
  Req.Tool = Tool;
  Req.BaselineLevel = static_cast<uint8_t>(BC.Level);
  Req.BaselineCodegen = BC.packedCodegen();
  EvalResponse Resp = callDaemon(Req);
  DiffTaskResult R;
  R.ImagesOk = Resp.ImagesOk != 0;
  R.ToolOk = Resp.ToolOk != 0;
  R.ToolError = std::move(Resp.ToolError);
  R.Precision = Resp.Precision;
  R.Similarity = Resp.Similarity;
  R.VulnRanks = std::move(Resp.VulnRanks);
  return R;
}

std::vector<EvalScheduler::PlaneCell>
EvalScheduler::diffPlane(const std::vector<Workload> &Workloads,
                         const std::vector<BuildConfig> &Configs,
                         const std::vector<ObfuscationMode> &Modes,
                         const std::vector<std::string> &ToolNames,
                         EvalRunStats *RunStats) const {
  // A misspelled tool name would silently yield an all-zero figure row;
  // fail fast against the registry instead (the daemon checks the same
  // registry, so remote runs fail here too, not mid-matrix).
  for (const std::string &Name : ToolNames) {
    if (!isDiffToolRegistered(Name)) {
      std::fprintf(stderr, "EvalScheduler: unknown diffing tool '%s'\n",
                   Name.c_str());
      std::abort();
    }
  }

  // One cell per (workload, config, mode); the config axis is the middle
  // dimension so a workload's rows stay contiguous in figure output.
  struct Cell {
    const Workload *W;
    const BuildConfig *BC;
    ObfuscationMode Mode;
    uint64_t Seed;
    size_t FlatIdx;
  };
  std::vector<PlaneCell> Out(Workloads.size() * Configs.size() *
                             Modes.size());
  std::vector<Cell> Cells;
  for (size_t WI = 0; WI != Workloads.size(); ++WI)
    for (size_t CI = 0; CI != Configs.size(); ++CI)
      for (size_t MI = 0; MI != Modes.size(); ++MI) {
        size_t Flat = (WI * Configs.size() + CI) * Modes.size() + MI;
        if (!ownsCell(Flat))
          continue;
        Out[Flat].Ran = true;
        Out[Flat].PerTool.resize(ToolNames.size());
        // Seeds are derived from (workload, mode) alone — NOT the config
        // — so every config row diffs against the same obfuscated image,
        // which is both the experiment's point and what makes a sweep
        // over N configs build each B-side exactly once.
        Cells.push_back({&Workloads[WI], &Configs[CI], Modes[MI],
                         deriveCellSeed(Cfg.Seed, Workloads[WI].Name,
                                        Modes[MI]),
                         Flat});
      }

  // (cell × tool) tasks. A cell's lead task (its first tool, or only its
  // images when no tool is asked) builds the pair its other tools share
  // through the store, and alone writes the cell's Ok and pass telemetry.
  // Each lead is queued Workers cells ahead of its cell's other tools:
  // workers build different cells side by side instead of queueing in one
  // cell's single-flight, yet only about Workers cells are in flight, so a
  // bounded store keeps their pairs.
  const size_t NumTools = ToolNames.empty() ? 1 : ToolNames.size();
  const size_t Ahead = Workers;
  std::vector<std::pair<size_t, size_t>> Ticket; // (cell, tool) indices
  for (size_t K = 0; K != Cells.size() + Ahead; ++K) {
    if (K < Cells.size())
      Ticket.push_back({K, 0});
    for (size_t TI = 1; K >= Ahead && TI != NumTools; ++TI)
      Ticket.push_back({K - Ahead, TI});
  }
  ArtifactStore::Snapshot Before = Pipe->store().stats();
  runPool(Ticket.size(), [&](size_t I) {
    const Cell &C = Cells[Ticket[I].first];
    const size_t TI = Ticket[I].second;
    DiffTaskResult R =
        diffTask(*C.W, *C.BC, C.Mode, C.Seed,
                 TI < ToolNames.size() ? ToolNames[TI] : std::string());
    PlaneCell &Slot = Out[C.FlatIdx];
    if (TI == 0) {
      Slot.Ok = R.ImagesOk;
      if (RunStats)
        RunStats->mergePasses(R.Passes);
    }
    if (!R.ImagesOk || TI >= ToolNames.size())
      return;
    if (!R.ToolOk) {
      // Loud per-task failure (timeout, crashed worker): the task
      // renders as "n/a", siblings and the shard keep going.
      std::fprintf(stderr, "[scheduler] tool '%s' failed on %s/%s/%s: %s\n",
                   ToolNames[TI].c_str(), C.W->Name.c_str(),
                   C.BC->name().c_str(), obfuscationModeName(C.Mode),
                   R.ToolError.c_str());
      if (RunStats)
        RunStats->countToolFailure();
      return;
    }
    Slot.PerTool[TI] = std::move(R);
  });

  // Deterministic post-pass: count owned cells in row-major order.
  if (RunStats) {
    for (size_t Flat = 0; Flat != Out.size(); ++Flat)
      if (Out[Flat].Ran)
        RunStats->countCell(!Out[Flat].Ok);
    RunStats->mergeCache(
        ArtifactStore::Snapshot::delta(Pipe->store().stats(), Before));
  }
  return Out;
}

std::vector<EvalScheduler::CellPrecision>
EvalScheduler::precisionMatrix(const std::vector<Workload> &Workloads,
                               const std::vector<ObfuscationMode> &Modes,
                               const std::vector<std::string> &ToolNames,
                               EvalRunStats *RunStats) const {
  std::vector<PlaneCell> Plane =
      diffPlane(Workloads, {Cfg.Baseline}, Modes, ToolNames, RunStats);
  std::vector<CellPrecision> Out(Plane.size());
  for (size_t Flat = 0; Flat != Plane.size(); ++Flat) {
    Out[Flat].Ran = Plane[Flat].Ran;
    Out[Flat].Ok = Plane[Flat].Ok;
    for (const DiffTaskResult &R : Plane[Flat].PerTool)
      Out[Flat].PerTool.push_back(R.ToolOk ? R.Precision : -1.0);
  }
  return Out;
}

std::vector<EvalScheduler::CellRanks>
EvalScheduler::vulnRankMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  std::vector<PlaneCell> Plane =
      diffPlane(Workloads, {Cfg.Baseline}, Modes, ToolNames, RunStats);
  std::vector<CellRanks> Out(Plane.size());
  for (size_t Flat = 0; Flat != Plane.size(); ++Flat) {
    Out[Flat].Ran = Plane[Flat].Ran;
    Out[Flat].Ok = Plane[Flat].Ok;
    for (DiffTaskResult &R : Plane[Flat].PerTool)
      Out[Flat].PerTool.push_back(std::move(R.VulnRanks));
  }
  return Out;
}

std::vector<EvalScheduler::ConfoundCell>
EvalScheduler::confoundMatrix(const std::vector<Workload> &Workloads,
                              const std::vector<BuildConfig> &Configs,
                              const std::vector<ObfuscationMode> &Modes,
                              const std::vector<std::string> &ToolNames,
                              EvalRunStats *RunStats) const {
  std::vector<PlaneCell> Plane =
      diffPlane(Workloads, Configs, Modes, ToolNames, RunStats);
  std::vector<ConfoundCell> Out(Plane.size());
  for (size_t Flat = 0; Flat != Plane.size(); ++Flat) {
    Out[Flat].Ran = Plane[Flat].Ran;
    Out[Flat].Ok = Plane[Flat].Ok;
    for (const DiffTaskResult &R : Plane[Flat].PerTool) {
      Out[Flat].PerToolPrecision.push_back(R.ToolOk ? R.Precision : -1.0);
      Out[Flat].PerToolSimilarity.push_back(R.ToolOk ? R.Similarity : -1.0);
    }
  }
  return Out;
}

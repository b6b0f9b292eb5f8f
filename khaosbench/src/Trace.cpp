//===- khaosbench/src/Trace.cpp - In-memory span recorder -----------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace khaosbench;

namespace {

struct ThreadBuffer {
  uint32_t Tid = 0;
  uint64_t Adopted = 0;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Open; ///< Indices of the spans still open.
};

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};

std::mutex RegistryM;
std::vector<std::shared_ptr<ThreadBuffer>> Registry; // guarded by RegistryM

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

ThreadBuffer &localBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> Mine;
  if (!Mine) {
    Mine = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> Lock(RegistryM);
    Mine->Tid = static_cast<uint32_t>(Registry.size() + 1);
    Registry.push_back(Mine);
  }
  return *Mine;
}

} // namespace

void khaosbench::setTracing(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool khaosbench::tracing() { return Enabled.load(std::memory_order_relaxed); }

void khaosbench::adoptParent(uint64_t ParentId) {
  localBuffer().Adopted = ParentId;
}

Span::Span(const std::string &Name) {
  if (!tracing())
    return;
  ThreadBuffer &B = localBuffer();
  SpanRecord R;
  R.Name = Name;
  R.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  R.Parent = B.Open.empty() ? B.Adopted : B.Spans[B.Open.back()].Id;
  R.Tid = B.Tid;
  Id = R.Id;
  Index = B.Spans.size();
  B.Spans.push_back(std::move(R));
  B.Open.push_back(Index);
  B.Spans[Index].StartUs = nowUs();
}

Span::~Span() {
  if (!Id)
    return;
  double End = nowUs();
  ThreadBuffer &B = localBuffer();
  B.Spans[Index].EndUs = End;
  B.Open.pop_back();
}

std::vector<SpanRecord> khaosbench::collectSpans() {
  std::vector<SpanRecord> Out;
  std::lock_guard<std::mutex> Lock(RegistryM);
  for (const std::shared_ptr<ThreadBuffer> &B : Registry)
    Out.insert(Out.end(), B->Spans.begin(), B->Spans.end());
  return Out;
}

std::vector<double>
khaosbench::selfTimesUs(const std::vector<SpanRecord> &Spans) {
  std::map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf[Spans[I].Id] = I;
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].durationUs();
  // Children on the parent's thread run inside it one after another, so
  // their durations are disjoint parts of the parent's interval. A child
  // on another thread (a pool worker) overlaps its siblings and is not
  // subtracted: the parent's time there is waiting, which is its own.
  for (const SpanRecord &S : Spans) {
    auto It = IndexOf.find(S.Parent);
    if (It != IndexOf.end() && Spans[It->second].Tid == S.Tid)
      Self[It->second] -= S.durationUs();
  }
  for (double &V : Self)
    V = std::max(V, 0.0);
  return Self;
}

bool khaosbench::descendsFrom(
    const std::map<uint64_t, const SpanRecord *> &ById, uint64_t Id,
    uint64_t Ancestor) {
  while (Id != 0) {
    if (Id == Ancestor)
      return true;
    auto It = ById.find(Id);
    if (It == ById.end())
      return false;
    Id = It->second->Parent;
  }
  return false;
}

namespace {

void writeJsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    std::fputc(C, F);
  }
  std::fputc('"', F);
}

void writeEvent(std::FILE *F, bool &First, const SpanRecord &S, char Phase) {
  std::fputs(First ? "\n" : ",\n", F);
  First = false;
  std::fputs("{\"name\":", F);
  writeJsonString(F, S.Name);
  std::fprintf(F,
               ",\"cat\":\"khaosbench\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
               "\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu}}",
               Phase, Phase == 'B' ? S.StartUs : S.EndUs, S.Tid,
               static_cast<unsigned long long>(S.Id),
               static_cast<unsigned long long>(S.Parent));
}

} // namespace

bool khaosbench::writeChromeTrace(const std::string &Path,
                                  const std::vector<SpanRecord> &Spans) {
  // Per thread, walk the span tree depth-first in start order so every
  // "E" closes the most recent open "B" on its thread.
  std::map<uint64_t, std::vector<const SpanRecord *>> Children;
  std::map<uint32_t, std::vector<const SpanRecord *>> Roots;
  std::map<uint64_t, const SpanRecord *> ById;
  for (const SpanRecord &S : Spans)
    ById[S.Id] = &S;
  for (const SpanRecord &S : Spans) {
    auto It = ById.find(S.Parent);
    if (It != ById.end() && It->second->Tid == S.Tid)
      Children[S.Parent].push_back(&S);
    else
      Roots[S.Tid].push_back(&S);
  }
  auto ByStart = [](const SpanRecord *A, const SpanRecord *B) {
    return A->StartUs != B->StartUs ? A->StartUs < B->StartUs : A->Id < B->Id;
  };

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  bool First = true;
  std::vector<std::pair<const SpanRecord *, bool>> Stack;
  for (auto &[Tid, Top] : Roots) {
    std::sort(Top.begin(), Top.end(), ByStart);
    for (auto It = Top.rbegin(); It != Top.rend(); ++It)
      Stack.push_back({*It, false});
    while (!Stack.empty()) {
      auto [S, Opened] = Stack.back();
      Stack.pop_back();
      if (Opened) {
        writeEvent(F, First, *S, 'E');
        continue;
      }
      writeEvent(F, First, *S, 'B');
      Stack.push_back({S, true});
      std::vector<const SpanRecord *> &Kids = Children[S->Id];
      std::sort(Kids.begin(), Kids.end(), ByStart);
      for (auto K = Kids.rbegin(); K != Kids.rend(); ++K)
        Stack.push_back({*K, false});
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

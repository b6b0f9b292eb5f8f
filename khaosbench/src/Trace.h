//===- khaosbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into library modules.
/// Each span has a name, a start and end on one steady clock, the thread
/// that ran it and the span that caused it (the enclosing span on the same
/// thread, or the span a worker thread was started for). Spans live in
/// per-thread buffers and are written once, at the end, as Chrome
/// trace-event JSON. While recording is off a Span costs one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOSBENCH_TRACE_H
#define KHAOSBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace khaosbench {

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root.
  uint32_t Tid = 0;
  double StartUs = 0.0;
  double EndUs = 0.0;
  double durationUs() const { return EndUs - StartUs; }
};

/// Turns recording on or off (process-wide).
void setTracing(bool On);
bool tracing();

/// Makes \p ParentId the parent of the spans this thread opens while its
/// own span stack is empty (worker threads call it with the pass span).
void adoptParent(uint64_t ParentId);

/// Every span recorded so far, from all threads. Call after the threads
/// that recorded them have been joined.
std::vector<SpanRecord> collectSpans();

/// RAII span around one call.
class Span {
public:
  explicit Span(const std::string &Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's id (0 when recording is off).
  uint64_t id() const { return Id; }

private:
  uint64_t Id = 0;
  size_t Index = 0;
};

/// Self time per span: its duration minus the part its children cover,
/// in microseconds, indexed like \p Spans.
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &Spans);

/// True if \p Id is \p Ancestor or descends from it.
bool descendsFrom(const std::map<uint64_t, const SpanRecord *> &ById,
                  uint64_t Id, uint64_t Ancestor);

/// Writes \p Spans as Chrome trace-event JSON: per thread, a "B"/"E" pair
/// per span in nesting order, with the span id and parent id in args.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanRecord> &Spans);

} // namespace khaosbench

#endif // KHAOSBENCH_TRACE_H

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public entry points: name (`<module>.<call>`), start, end, the
// recording thread and the enclosing span on that thread. Nothing is written
// until the run ends; WriteChromeTrace then emits the Chrome trace-event JSON
// format ("X" complete events), which Perfetto and chrome://tracing open.
//
// A null Tracer* disables recording: ScopedSpan then costs one branch, so the
// same workload code serves the untraced (end-to-end) and traced runs.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// \brief One closed span. Times are nanoseconds since the tracer's epoch.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span on its thread
  uint32_t thread = 0;  ///< small dense id, in order of first use
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Per-name totals: how long, and how long net of the child spans
/// nested inside (self time).
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

/// \brief Thread-safe span sink. Span names must be string literals (they
/// are stored by pointer).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id.
  uint64_t Begin(const char* name);
  /// Closes span `id`, which must be the innermost open span of the calling
  /// thread.
  void End(uint64_t id);

  /// Totals per span name over every closed span.
  std::map<std::string, SpanTotals> Totals() const;
  /// Duration in seconds of the first closed span called `name` (0 if none).
  double FirstDuration(const std::string& name) const;

  /// Writes every closed span as Chrome trace-event JSON.
  crowder::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> closed_;  // guarded by mu_
};

/// \brief RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

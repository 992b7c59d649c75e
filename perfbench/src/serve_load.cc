#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using crowder::Result;
using crowder::Status;
namespace serve = crowder::serve;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

// Sleeps most of the way, then spins: sleep_until alone oversleeps by tens
// of microseconds, a sizeable share of a 62 us send interval.
// Returns true when the caller had to wait (it was not behind schedule).
bool WaitUntil(Clock::time_point when) {
  Clock::time_point now = Clock::now();
  if (now >= when) return false;
  const auto spin = std::chrono::microseconds(80);
  if (when - now > spin) std::this_thread::sleep_until(when - spin);
  while (Clock::now() < when) {
  }
  return true;
}

Clock::time_point Scheduled(Clock::time_point start, uint64_t k, double rate) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(k) / rate));
}

// Joins a helper thread on every exit path, after asking it to stop.
class StoppableThread {
 public:
  explicit StoppableThread(std::atomic<bool>* stop) : stop_(stop) {}
  ~StoppableThread() { Join(); }
  StoppableThread(const StoppableThread&) = delete;
  StoppableThread& operator=(const StoppableThread&) = delete;

  template <typename Fn>
  void Start(Fn fn) {
    thread_ = std::thread(std::move(fn));
  }
  void Join() {
    stop_->store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool>* stop_;
  std::thread thread_;
};

}  // namespace

Result<ServePhase> RunServePhase(const crowder::data::Dataset& dataset,
                                 const serve::ServiceConfig& config,
                                 const ServePhaseOptions& options, Tracer* tracer) {
  const uint32_t n = options.num_records;
  if (n == 0 || n > dataset.table.num_records()) {
    return Status::InvalidArgument("serve phase: record count out of range");
  }
  ServePhase phase;
  const Clock::time_point created = Clock::now();
  CROWDER_ASSIGN_OR_RETURN(std::unique_ptr<serve::EntityResolutionService> service,
                           serve::EntityResolutionService::Create(config));
  const Clock::time_point start = Clock::now();
  // Send time of each insert, ns since `start`; written before the insert
  // so the watcher, which learns of a match only after it was applied,
  // always finds it set.
  std::unique_ptr<std::atomic<int64_t>[]> sent_ns(new std::atomic<int64_t>[n]);
  for (uint32_t i = 0; i < n; ++i) sent_ns[i].store(0, std::memory_order_relaxed);

  std::atomic<bool> stop_queries{false};
  std::atomic<bool> stop_watch{false};
  double query_late_max_ms = 0.0;
  StoppableThread queries(&stop_queries);
  StoppableThread watcher(&stop_watch);
  if (options.query_qps > 0) {
    queries.Start([&] {
      crowder::Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
      for (uint64_t k = 0; !stop_queries.load(); ++k) {
        const Clock::time_point due = Scheduled(start, k, options.query_qps);
        const bool waited = WaitUntil(due);
        if (waited) query_late_max_ms = std::max(query_late_max_ms, Ms(Clock::now() - due));
        // Favour recent records: uniformly among the last 1,024 published.
        const uint32_t published = service->CurrentSnapshot()->num_records;
        if (published == 0) continue;
        const uint32_t window = std::min<uint32_t>(published, 1024);
        const uint32_t id = published - 1 - static_cast<uint32_t>(rng.Uniform(window));
        bool ok = false;
        {
          ScopedSpan span(tracer, "serve.query");
          ok = service->Query(id).ok();
        }
        if (ok) {
          phase.query_ms.push_back(Ms(Clock::now() - due));
        } else {
          ++phase.query_failures;
        }
      }
    });
  }
  if (options.measure_lag) {
    watcher.Start([&] {
      uint64_t seen = 0;
      for (;;) {
        const bool stopping = stop_watch.load();
        const uint64_t applied = service->CurrentSnapshot()->applied_matches;
        if (applied > seen) {
          const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     Clock::now() - start)
                                     .count();
          const auto matches = service->AppliedMatchPrefix(applied);
          for (uint64_t i = seen; i < matches.size(); ++i) {
            const uint32_t later = std::max(matches[i].first, matches[i].second);
            const int64_t sent = later < n ? sent_ns[later].load(std::memory_order_acquire) : 0;
            phase.lag_ms.push_back(static_cast<double>(now_ns - sent) * 1e-6);
          }
          seen = applied;
        }
        if (stopping) break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  Clock::time_point last_due = start;
  for (uint32_t i = 0; i < n; ++i) {
    Clock::time_point due = Clock::now();
    if (options.insert_rate > 0) {
      due = Scheduled(start, i, options.insert_rate);
      if (WaitUntil(due)) {
        phase.generator_late_max_ms =
            std::max(phase.generator_late_max_ms, Ms(Clock::now() - due));
      }
    }
    const Clock::time_point sent = Clock::now();
    sent_ns[i].store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(sent - start).count(),
        std::memory_order_release);
    const Result<serve::InsertOutcome> outcome = [&] {
      ScopedSpan span(tracer, "serve.insert");
      return service->InsertDatasetRecord(dataset, i);
    }();
    if (outcome.ok() && outcome->record_id == i) {
      phase.insert_ms.push_back(Ms(Clock::now() - due));
    } else {
      ++phase.insert_failures;
    }
    last_due = due;
  }
  phase.ingest_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.backlog_ms = Ms(Clock::now() - last_due);
  {
    ScopedSpan span(tracer, "serve.flush");
    CROWDER_RETURN_NOT_OK(service->Flush());
  }
  queries.Join();
  watcher.Join();
  phase.generator_late_max_ms = std::max(phase.generator_late_max_ms, query_late_max_ms);
  {
    ScopedSpan span(tracer, "serve.finish");
    CROWDER_ASSIGN_OR_RETURN(phase.report, service->Finish());
  }
  phase.wall_s = std::chrono::duration<double>(Clock::now() - created).count();
  return phase;
}

}  // namespace perfbench

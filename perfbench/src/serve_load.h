// Load generator for the serve workload: one ingest thread inserting records
// into an EntityResolutionService, optionally one open-loop query thread and
// one thread watching published snapshots for match lag.
#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "serve/service.h"
#include "trace.h"

namespace perfbench {

/// \brief How one service instance is loaded.
struct ServePhaseOptions {
  /// Records inserted: the first `num_records` of the dataset, in order.
  uint32_t num_records = 0;
  /// Open-loop insert rate, records/s; 0 = closed loop (back to back).
  double insert_rate = 0.0;
  /// Open-loop query rate from one thread, queries/s; 0 = no queries.
  double query_qps = 0.0;
  /// Watch published snapshots and time each applied match.
  bool measure_lag = false;
};

/// \brief What one loaded service instance did.
struct ServePhase {
  crowder::serve::ServiceReport report;
  double wall_s = 0.0;  ///< service creation to Finish
  /// From the first scheduled insert until the last Insert returned, s.
  double ingest_s = 0.0;
  /// Insert latency, ms: from the scheduled send (open loop) or the actual
  /// send (closed loop) until Insert returned.
  std::vector<double> insert_ms;
  /// Query latency from the scheduled send, ms.
  std::vector<double> query_ms;
  /// Per applied match: from inserting its later record until a published
  /// snapshot showed it, ms.
  std::vector<double> lag_ms;
  uint64_t insert_failures = 0;
  uint64_t query_failures = 0;
  /// Latest wake-up after a scheduled send for which the generator was not
  /// behind (its own timing error, not the service's backlog), ms.
  double generator_late_max_ms = 0.0;
  /// How late the last insert returned against its schedule, ms.
  double backlog_ms = 0.0;
};

/// \brief Creates a service under `config`, loads it as `options` says,
/// flushes and finishes it. Spans: serve.insert, serve.query, serve.flush,
/// serve.finish.
crowder::Result<ServePhase> RunServePhase(const crowder::data::Dataset& dataset,
                                          const crowder::serve::ServiceConfig& config,
                                          const ServePhaseOptions& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_

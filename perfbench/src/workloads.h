// The benchmark's workloads and the pieces every subcommand shares: the
// workload table, the workflow run with optional spans, output digests and a
// small JSON object writer for the files run.py reads back.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/resolution.h"
#include "core/workflow.h"
#include "crowd/backend.h"
#include "data/dataset.h"
#include "serve/service.h"
#include "trace.h"

namespace perfbench {

enum class WorkloadKind { kBatchJoin, kShardedJoin, kCrowdHeavy, kServe };

/// \brief One named workload: Product generated at `scale` from the run's
/// seed, resolved at `threshold`.
struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  double scale;
  double threshold;
};

/// \brief The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief The workflow a batch workload runs. For the serve workload this is
/// the batch-join configuration at the serve threshold, which the traced run
/// uses to measure the batch layers on the serve records.
crowder::core::WorkflowConfig MakeWorkflowConfig(const WorkloadSpec& spec, uint64_t seed,
                                                 const std::string& shardd);

/// \brief The service configuration of the serve workload.
crowder::serve::ServiceConfig MakeServiceConfig(const WorkloadSpec& spec, uint64_t seed);

/// \brief The Product records of a workload at `seed`.
crowder::Result<crowder::data::Dataset> GenerateRecords(const WorkloadSpec& spec, uint64_t seed);

/// \brief Every vote the crowd returned, in delivery order (traced runs keep
/// them to re-run aggregation on the same input).
using VoteLog = std::vector<crowder::crowd::PairVote>;

/// \brief One workflow run, from reading the CSV to the final clusters.
struct WorkflowRun {
  crowder::data::Dataset dataset;
  crowder::core::WorkflowResult result;
  crowder::core::EntityClusters clusters;
  /// Crowd rounds: result.crowd_rounds.size() untraced, the batches posted
  /// when traced (the untraced == traced check makes them agree).
  uint64_t crowd_rounds = 0;
  double wall_s = 0.0;
};

/// \brief Reads `csv`, runs the workflow against the simulated crowd and
/// resolves the clusters: transitive closure in streaming mode, verified
/// merges otherwise, as crowder_cli does. Without a tracer the workflow is
/// HybridWorkflow::Run itself. With one, the benchmark drives the same loop
/// with a span around every call into WorkflowDriver and the crowd backend,
/// and keeps every delivered vote in `votes` when it is not null.
crowder::Result<WorkflowRun> RunWorkflow(const std::string& csv,
                                         const crowder::core::WorkflowConfig& config,
                                         Tracer* tracer, VoteLog* votes);

/// \brief 64-bit FNV-1a digests of outputs, as 16 hex digits.
std::string DigestPairs(const std::vector<crowder::similarity::ScoredPair>& pairs);
std::string DigestRanked(const std::vector<crowder::eval::RankedPair>& ranked);
std::string DigestClusters(const crowder::core::EntityClusters& clusters);
std::string DigestServeAccounting(const crowder::serve::ServiceReport& report);

/// \brief Peak resident set size of this process, MiB.
double PeakRssMb();
/// \brief User + system CPU seconds of this process.
double ProcessCpuSeconds();

/// \brief Builds one flat-or-nested JSON object.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Nums(const std::string& key, const std::vector<double>& values);
  Json& Ints(const std::string& key, const std::vector<uint64_t>& values);
  Json& Strs(const std::string& key, const std::vector<std::string>& values);
  Json& Obj(const std::string& key, const Json& value);
  std::string Dump() const;
  /// Writes Dump() to `path`.
  crowder::Status Write(const std::string& path) const;

 private:
  Json& Raw(const std::string& key, const std::string& value);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

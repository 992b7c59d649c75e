#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "core/driver.h"
#include "data/generators.h"

namespace perfbench {

using crowder::Result;
using crowder::Status;
namespace core = crowder::core;
namespace crowd = crowder::crowd;
namespace data = crowder::data;
namespace serve = crowder::serve;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and LEDGER.json.
// Threads are fixed at 4: the benchmark host has 4 cores.
constexpr WorkloadSpec kWorkloads[] = {
    {"batch-join", WorkloadKind::kBatchJoin, 46.0, 0.5},
    {"sharded-join", WorkloadKind::kShardedJoin, 46.0, 0.5},
    {"crowd-heavy", WorkloadKind::kCrowdHeavy, 8.0, 0.2},
    {"serve", WorkloadKind::kServe, 12.0, 0.5},
};
constexpr uint32_t kThreads = 4;

class Fnv {
 public:
  void Add(const void* bytes, size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void AddValue(T value) {
    Add(&value, sizeof(value));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

core::WorkflowConfig MakeWorkflowConfig(const WorkloadSpec& spec, uint64_t seed,
                                        const std::string& shardd) {
  core::WorkflowConfig config;
  config.measure = crowder::similarity::SetMeasure::kJaccard;
  config.likelihood_threshold = spec.threshold;
  config.num_threads = kThreads;
  config.hit_type = core::HitType::kClusterBased;
  config.cluster_size = 10;
  config.cluster_algorithm = crowder::hitgen::ClusterAlgorithm::kTwoTiered;
  config.aggregation = core::AggregationMethod::kDawidSkene;
  config.seed = seed;
  if (spec.kind == WorkloadKind::kShardedJoin) {
    config.num_shards = 4;
    config.shard_worker_path = shardd;
  }
  if (spec.kind == WorkloadKind::kCrowdHeavy) {
    // The paper's Product recall regime under a budget small enough that
    // the candidate stream, the vote table and the component buckets spill.
    config.execution_mode = core::ExecutionMode::kStreaming;
    config.memory_budget_bytes = 1 << 20;
    config.question_policy = core::QuestionPolicyKind::kInferenceOrdered;
  }
  return config;
}

serve::ServiceConfig MakeServiceConfig(const WorkloadSpec& spec, uint64_t seed) {
  serve::ServiceConfig config;
  config.threshold = spec.threshold;
  config.cross_source_only = true;
  config.seed = seed;
  return config;
}

Result<data::Dataset> GenerateRecords(const WorkloadSpec& spec, uint64_t seed) {
  // The entities are the generator's default-seed Product at the workload's
  // scale; the run seed shuffles the record order (and seeds the crowd).
  // Fresh entities per seed would move HITs by 3-7% from seed to seed,
  // more than the bounds a regression check can afford.
  data::ProductConfig config;
  config.scale_factor = spec.scale;
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset generated, data::GenerateProduct(config));
  std::vector<uint32_t> order(generated.table.num_records());
  std::iota(order.begin(), order.end(), 0u);
  crowder::Rng rng(seed);
  rng.Shuffle(&order);
  data::Dataset shuffled;
  shuffled.name = generated.name;
  shuffled.table.attribute_names = generated.table.attribute_names;
  for (uint32_t r : order) {
    shuffled.table.records.push_back(generated.table.records[r]);
    shuffled.table.sources.push_back(generated.table.sources[r]);
    shuffled.truth.entity_of.push_back(generated.truth.entity_of[r]);
  }
  return shuffled;
}

namespace {

// The driver loop of HybridWorkflow::Run with a span around every call into
// the driver and the crowd backend. Only traced passes take this path.
Result<core::WorkflowResult> DriveTraced(const data::Dataset& dataset,
                                         const core::WorkflowConfig& config, Tracer* tracer,
                                         VoteLog* votes, uint64_t* posts) {
  CROWDER_RETURN_NOT_OK(core::ValidateWorkflowConfig(config));
  crowd::SimulatedCrowdBackend::Options options;
  options.num_threads = config.num_threads;
  CROWDER_ASSIGN_OR_RETURN(auto backend,
                           crowd::SimulatedCrowdBackend::Create(
                               config.crowd, config.seed, dataset.truth.entity_of, options));
  core::WorkflowDriver driver(config);
  {
    ScopedSpan span(tracer, "core.start");
    CROWDER_RETURN_NOT_OK(driver.Start(dataset));
  }
  while (!driver.done()) {
    crowd::Ticket ticket = 0;
    {
      ScopedSpan span(tracer, "crowd.post");
      CROWDER_ASSIGN_OR_RETURN(ticket, backend->Post(driver.PendingHits()));
    }
    ++*posts;
    bool complete = false;
    while (!complete) {
      crowd::VoteBatch batch;
      {
        ScopedSpan span(tracer, "crowd.poll");
        CROWDER_ASSIGN_OR_RETURN(batch, backend->Poll(ticket));
      }
      complete = batch.complete;
      if (votes != nullptr) {
        for (const crowd::HitVotes& hit : batch.hit_votes) {
          votes->insert(votes->end(), hit.votes.begin(), hit.votes.end());
        }
      }
      ScopedSpan span(tracer, "core.submit_votes");
      CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(batch)));
    }
    ScopedSpan span(tracer, "core.step");
    CROWDER_RETURN_NOT_OK(driver.Step());
  }
  crowd::CrowdRunResult crowd_stats;
  {
    ScopedSpan span(tracer, "crowd.finish");
    CROWDER_ASSIGN_OR_RETURN(crowd_stats, backend->Finish());
  }
  ScopedSpan span(tracer, "core.take_result");
  CROWDER_RETURN_NOT_OK(driver.SubmitCrowdStats(std::move(crowd_stats)));
  return driver.TakeResult();
}

}  // namespace

Result<WorkflowRun> RunWorkflow(const std::string& csv, const core::WorkflowConfig& config,
                                Tracer* tracer, VoteLog* votes) {
  WorkflowRun run;
  crowder::WallTimer timer;
  ScopedSpan root(tracer, "workflow");
  {
    ScopedSpan span(tracer, "data.read_csv");
    CROWDER_ASSIGN_OR_RETURN(run.dataset, data::ReadDatasetCsv(csv, "product"));
  }
  if (tracer == nullptr) {
    CROWDER_ASSIGN_OR_RETURN(run.result, core::HybridWorkflow(config).Run(run.dataset));
    run.crowd_rounds = run.result.crowd_rounds.size();
  } else {
    CROWDER_ASSIGN_OR_RETURN(run.result,
                             DriveTraced(run.dataset, config, tracer, votes, &run.crowd_rounds));
  }
  {
    const auto num_records = static_cast<uint32_t>(run.dataset.table.num_records());
    if (config.execution_mode == core::ExecutionMode::kStreaming) {
      ScopedSpan span(tracer, "core.streaming_resolver");
      const double match_threshold = core::ResolutionOptions{}.match_threshold;
      core::StreamingResolver resolver(num_records);
      for (const auto& rp : run.result.ranked) {
        if (rp.score >= match_threshold) CROWDER_RETURN_NOT_OK(resolver.AddMatch(rp.a, rp.b));
      }
      CROWDER_ASSIGN_OR_RETURN(run.clusters, resolver.Finish());
    } else {
      ScopedSpan span(tracer, "core.resolve_entities");
      CROWDER_ASSIGN_OR_RETURN(run.clusters,
                               core::ResolveEntities(num_records, run.result.ranked));
    }
  }
  run.wall_s = timer.ElapsedSeconds();
  return run;
}

std::string DigestPairs(const std::vector<crowder::similarity::ScoredPair>& pairs) {
  Fnv fnv;
  for (const auto& p : pairs) {
    fnv.AddValue(p.a);
    fnv.AddValue(p.b);
    fnv.AddValue(p.score);
  }
  return fnv.Hex();
}

std::string DigestRanked(const std::vector<crowder::eval::RankedPair>& ranked) {
  Fnv fnv;
  for (const auto& p : ranked) {
    fnv.AddValue(p.a);
    fnv.AddValue(p.b);
    fnv.AddValue(p.score);
  }
  return fnv.Hex();
}

std::string DigestClusters(const core::EntityClusters& clusters) {
  Fnv fnv;
  for (uint32_t c : clusters.cluster_of) fnv.AddValue(c);
  for (const auto& members : clusters.clusters) {
    fnv.AddValue(static_cast<uint64_t>(members.size()));
    for (uint32_t r : members) fnv.AddValue(r);
  }
  return fnv.Hex();
}

std::string DigestServeAccounting(const serve::ServiceReport& report) {
  Fnv fnv;
  fnv.AddValue(report.crowd.num_assignments);
  fnv.AddValue(report.crowd.total_comparisons);
  fnv.AddValue(report.crowd.num_distinct_workers);
  fnv.AddValue(report.crowd.cost_dollars);
  return fnv.Hex();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Json& Json::Raw(const std::string& key, const std::string& value) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": " + value;
  return *this;
}

Json& Json::Num(const std::string& key, double value) { return Raw(key, JsonNumber(value)); }

Json& Json::Int(const std::string& key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonQuote(value));
}

Json& Json::Nums(const std::string& key, const std::vector<double>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) s += (i ? "," : "") + JsonNumber(values[i]);
  return Raw(key, s + "]");
}

Json& Json::Ints(const std::string& key, const std::vector<uint64_t>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) s += (i ? "," : "") + std::to_string(values[i]);
  return Raw(key, s + "]");
}

Json& Json::Strs(const std::string& key, const std::vector<std::string>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) s += (i ? "," : "") + JsonQuote(values[i]);
  return Raw(key, s + "]");
}

Json& Json::Obj(const std::string& key, const Json& value) { return Raw(key, value.Dump()); }

std::string Json::Dump() const { return "{" + body_ + "}"; }

Status Json::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << Dump() << "\n";
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace perfbench

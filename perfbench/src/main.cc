// crowder_perfbench — one process per benchmark step, so each step's peak
// RSS is its own. perfbench/run.py runs the steps and summarizes them.
//
//   crowder_perfbench setup     --workload W --seed N --csv F --out J
//   crowder_perfbench run       --workload W --seed N --csv F --seconds S --shardd B --out J
//   crowder_perfbench reference --workload W --seed N --csv F --out J
//   crowder_perfbench trace     --workload W --seed N --csv F --shardd B --out J
//                               --trace-out T
//
// setup generates the workload's records from the seed and writes the CSV,
// repeatedly (the program under test only ever sees that CSV). run times the
// workload untraced. reference computes, by an independent path, what the
// run's outputs must equal. trace repeats the workload with spans around
// every public entry point, calls the layers that are reachable only inside
// WorkflowDriver on the same inputs, and writes the spans as Chrome trace JSON.
#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aggregate/dawid_skene.h"
#include "common/timer.h"
#include "core/stages.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "hitgen/two_tiered_generator.h"
#include "serve_load.h"
#include "shard/coordinator.h"
#include "similarity/parallel_join.h"
#include "similarity/similarity_join.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowder::Result;
using crowder::Status;
namespace core = crowder::core;
namespace data = crowder::data;
namespace serve = crowder::serve;
namespace similarity = crowder::similarity;

// Serve load shape. Every serve pass runs one paced query thread at this
// rate beside ingest, so reads always run beside writes.
constexpr double kQueryQps = 2000.0;
// Open-loop insert rates, as shares of the closed-loop ingest rate the same
// run measured with the query thread running: they bracket the service's
// capacity on whatever host runs the benchmark. The first is the base rate
// whose latencies are reported.
constexpr double kInsertRateShares[] = {0.25, 0.5, 1.0};
// Records the serve probe inserts in the traced runs of batch workloads.
constexpr uint32_t kServeProbeRecords = 8192;
// Timed workload passes per run, at least, however short --seconds is.
constexpr int kMinReps = 3;
// Set-up repeats until both bounds are met; setup_s is their median.
constexpr int kMinSetupReps = 5;
constexpr double kSetupSeconds = 2.0;

struct Flags {
  std::string command;
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? std::string() : it->second;
  }
};

Result<Flags> ParseFlags(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Flags flags;
  flags.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Status::InvalidArgument("expected --flag value, got '" + key + "'");
    }
    flags.values[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

// ---------------------------------------------------------------------------
// setup

Status Setup(const WorkloadSpec& spec, uint64_t seed, const Flags& flags) {
  std::vector<double> seconds;
  uint64_t records = 0;
  crowder::WallTimer window;
  for (int i = 0; i < kMinSetupReps || window.ElapsedSeconds() < kSetupSeconds; ++i) {
    crowder::WallTimer timer;
    CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset, GenerateRecords(spec, seed));
    CROWDER_RETURN_NOT_OK(data::WriteDatasetCsv(dataset, flags.Get("csv")));
    seconds.push_back(timer.ElapsedSeconds());
    records = dataset.table.num_records();
  }
  return Json().Nums("setup_s", seconds).Int("records", records).Write(flags.Get("out"));
}

// ---------------------------------------------------------------------------
// run

// The work counters of one workflow pass that must repeat exactly.
Json WorkflowCounters(const WorkflowRun& run) {
  const core::WorkflowResult& r = run.result;
  const core::PipelineStats& p = r.pipeline_stats;
  std::vector<uint64_t> shard_verifications;
  for (const auto& shard : r.shard_stats.shards) {
    shard_verifications.push_back(shard.pair_verifications);
  }
  return Json()
      .Int("candidates", r.num_candidate_pairs)
      .Int("hits", r.crowd_stats.num_hits)
      .Int("assignments", r.crowd_stats.num_assignments)
      .Int("crowd_rounds", run.crowd_rounds)
      .Int("spilled_bytes", p.spilled_bytes + p.vote_spilled_bytes + p.boundary_spilled_bytes)
      .Int("partitions", p.crowd_partitions)
      .Int("pairs_asked", r.crowd_pairs_asked)
      .Int("pairs_inferred", r.pairs_inferred)
      .Ints("shard_verifications", shard_verifications);
}

Json WorkflowDigests(const WorkflowRun& run) {
  return Json()
      .Str("candidates", DigestPairs(run.result.candidate_pairs))
      .Str("ranked", DigestRanked(run.result.ranked))
      .Str("clusters", DigestClusters(run.clusters));
}

Json ServeCounters(const serve::ServiceReport& report) {
  return Json()
      .Int("candidates", report.stats.candidate_pairs)
      .Int("hits", report.stats.hits_posted)
      .Int("assignments", report.crowd.num_assignments)
      .Int("crowd_pairs", report.stats.crowd_pairs);
}

Json ServeDigests(const serve::ServiceReport& report) {
  return Json()
      .Str("clusters", DigestClusters(report.clusters))
      .Str("accounting", DigestServeAccounting(report));
}

Status RunBatch(const WorkloadSpec& spec, uint64_t seed, const Flags& flags) {
  const core::WorkflowConfig config = MakeWorkflowConfig(spec, seed, flags.Get("shardd"));
  const double seconds = std::stod(flags.Get("seconds"));
  std::vector<double> wall, cpu;
  std::vector<std::string> errors;
  std::string first_fingerprint;
  Json first_counters, first_digests, outcome;
  uint64_t attempted = 0, failed = 0;
  // Largest sum over one pass of the shard workers' peak RSS (sharded-join).
  uint64_t worker_rss_kb = 0;
  crowder::WallTimer window;
  // Pass 0 warms the page cache and the allocator and is not timed.
  for (int pass = 0; pass <= kMinReps || window.ElapsedSeconds() < seconds; ++pass) {
    ++attempted;
    const double cpu_before = ProcessCpuSeconds();
    Result<WorkflowRun> run = RunWorkflow(flags.Get("csv"), config, nullptr, nullptr);
    if (!run.ok()) {
      ++failed;
      errors.push_back("workflow: " + run.status().ToString());
      continue;
    }
    if (pass > 0) {
      cpu.push_back(ProcessCpuSeconds() - cpu_before);
      wall.push_back(run->wall_s);
    } else {
      window.Reset();
    }
    uint64_t pass_worker_rss_kb = 0;
    for (const auto& shard : run->result.shard_stats.shards) pass_worker_rss_kb += shard.max_rss_kb;
    worker_rss_kb = std::max(worker_rss_kb, pass_worker_rss_kb);
    const Json counters = WorkflowCounters(*run);
    const Json digests = WorkflowDigests(*run);
    const std::string fingerprint = counters.Dump() + digests.Dump();
    if (first_fingerprint.empty()) {
      first_fingerprint = fingerprint;
      first_counters = counters;
      first_digests = digests;
      outcome.Int("records", run->dataset.table.num_records())
          .Int("hits", run->result.crowd_stats.num_hits)
          .Num("crowd_cost_usd", run->result.crowd_stats.cost_dollars)
          .Num("cluster_f1", core::EvaluateClusters(run->clusters, run->dataset).f1);
    } else if (fingerprint != first_fingerprint) {
      ++failed;
      errors.push_back("determinism: pass " + std::to_string(pass) +
                       " differs from the first pass at the same seed");
    }
  }
  // The run's processes: this one plus the shard workers, which run side by
  // side; each worker reports its own peak.
  return outcome.Nums("wall_s", wall)
      .Nums("cpu_s", cpu)
      .Num("peak_rss_mb", PeakRssMb() + static_cast<double>(worker_rss_kb) / 1024.0)
      .Obj("counters", first_counters)
      .Obj("digests", first_digests)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Strs("errors", errors)
      .Write(flags.Get("out"));
}

// One closed-loop serve pass, records in (the CSV) to clusters out, with
// the paced query thread running beside ingest.
Result<ServePhase> ServeClosedLoop(const std::string& csv, const serve::ServiceConfig& config,
                                   Tracer* tracer, double* wall_s) {
  crowder::WallTimer timer;
  ScopedSpan root(tracer, "serve.closed_loop");
  Result<data::Dataset> records = [&] {
    ScopedSpan span(tracer, "serve.read_csv");
    return data::ReadDatasetCsv(csv, "product");
  }();
  if (!records.ok()) return records.status();
  ServePhaseOptions options;
  options.num_records = static_cast<uint32_t>(records->table.num_records());
  options.query_qps = kQueryQps;
  CROWDER_ASSIGN_OR_RETURN(ServePhase phase, RunServePhase(*records, config, options, tracer));
  *wall_s = timer.ElapsedSeconds();
  return phase;
}

// Inserts per second a closed-loop pass sustained with the query thread
// running: the service's ingest capacity on this host.
double IngestRate(const ServePhase& phase) {
  return static_cast<double>(phase.report.stats.num_records) / phase.ingest_s;
}

Status RunServe(const WorkloadSpec& spec, uint64_t seed, const Flags& flags) {
  const serve::ServiceConfig config = MakeServiceConfig(spec, seed);
  const std::string csv = flags.Get("csv");
  const double seconds = std::stod(flags.Get("seconds"));
  uint64_t attempted = 0, failed = 0;
  // Every pass's final partition + accounting, and its work counters.
  std::vector<std::string> digests, pass_counters;

  // Closed-loop passes, records in (the CSV) to clusters out, queries
  // beside ingest: wall_s, peak_rss_mb and the ingest capacity. Pass 0
  // warms up and is not timed.
  std::vector<double> wall, cpu, ingest_rate;
  Json outcome, counters;
  crowder::WallTimer window;
  for (int pass = 0; pass <= kMinReps || window.ElapsedSeconds() < seconds; ++pass) {
    const double cpu_before = ProcessCpuSeconds();
    double wall_s = 0.0;
    CROWDER_ASSIGN_OR_RETURN(const ServePhase phase,
                             ServeClosedLoop(csv, config, nullptr, &wall_s));
    if (pass > 0) {
      wall.push_back(wall_s);
      cpu.push_back(ProcessCpuSeconds() - cpu_before);
      ingest_rate.push_back(IngestRate(phase));
    } else {
      window.Reset();
      counters = ServeCounters(phase.report);
      outcome.Int("records", phase.report.stats.num_records)
          .Int("hits", phase.report.stats.hits_posted)
          .Num("crowd_cost_usd", phase.report.crowd.cost_dollars);
    }
    attempted += phase.report.stats.num_records + phase.query_ms.size() + phase.query_failures;
    failed += phase.insert_failures + phase.query_failures;
    digests.push_back(ServeDigests(phase.report).Dump());
    pass_counters.push_back(ServeCounters(phase.report).Dump());
  }
  outcome.Num("peak_rss_mb", PeakRssMb());
  std::sort(ingest_rate.begin(), ingest_rate.end());
  const double capacity = ingest_rate[ingest_rate.size() / 2];

  // Open-loop phases at shares of that capacity: the base rate with
  // queries and match lag, then the higher rates, for the highest rate
  // that holds the latency limit.
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset, data::ReadDatasetCsv(csv, "product"));
  const auto n = static_cast<uint32_t>(dataset.table.num_records());
  for (size_t i = 0; i < std::size(kInsertRateShares); ++i) {
    ServePhaseOptions options;
    options.num_records = n;
    options.insert_rate = kInsertRateShares[i] * capacity;
    options.query_qps = kQueryQps;
    options.measure_lag = i == 0;
    CROWDER_ASSIGN_OR_RETURN(const ServePhase phase,
                             RunServePhase(dataset, config, options, nullptr));
    attempted += n + phase.query_ms.size() + phase.query_failures;
    failed += phase.insert_failures + phase.query_failures;
    digests.push_back(ServeDigests(phase.report).Dump());
    pass_counters.push_back(ServeCounters(phase.report).Dump());
    if (i == 0) {
      outcome.Num("cluster_f1", core::EvaluateClusters(phase.report.clusters, dataset).f1)
          .Obj("base", Json()
                           .Nums("insert_ms", phase.insert_ms)
                           .Nums("query_ms", phase.query_ms)
                           .Nums("lag_ms", phase.lag_ms));
    }
    outcome.Obj("phase" + std::to_string(i), Json()
                                                 .Num("rate", options.insert_rate)
                                                 .Num("share", kInsertRateShares[i])
                                                 .Nums("insert_ms", phase.insert_ms)
                                                 .Num("backlog_ms", phase.backlog_ms)
                                                 .Int("failures", phase.insert_failures));
  }
  return outcome.Nums("wall_s", wall)
      .Nums("cpu_s", cpu)
      .Num("capacity", capacity)
      .Obj("counters", counters)
      .Strs("serve_digests", digests)
      .Strs("serve_counters", pass_counters)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Strs("errors", {})
      .Write(flags.Get("out"));
}

// ---------------------------------------------------------------------------
// reference

Status Reference(const WorkloadSpec& spec, uint64_t seed, const Flags& flags) {
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset,
                           data::ReadDatasetCsv(flags.Get("csv"), "product"));
  Json out;
  switch (spec.kind) {
    case WorkloadKind::kBatchJoin: {
      // The serial join, by which every parallel and sharded pass is defined.
      const similarity::JoinInput input =
          core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin, nullptr);
      similarity::JoinStats stats;
      CROWDER_ASSIGN_OR_RETURN(
          std::vector<similarity::ScoredPair> pairs,
          similarity::AllPairsJoin(input, {similarity::SetMeasure::kJaccard, spec.threshold},
                                   &stats));
      similarity::SortPairs(&pairs);
      out.Str("candidates", DigestPairs(pairs))
          .Int("num_candidates", pairs.size())
          .Int("verifications", stats.pair_verifications);
      break;
    }
    case WorkloadKind::kShardedJoin: {
      // The same records through the single-process batch-join workflow.
      const core::WorkflowConfig config =
          MakeWorkflowConfig(*FindWorkload("batch-join"), seed, std::string());
      CROWDER_ASSIGN_OR_RETURN(const WorkflowRun run,
                               RunWorkflow(flags.Get("csv"), config, nullptr, nullptr));
      out.Obj("digests", WorkflowDigests(run));
      break;
    }
    case WorkloadKind::kCrowdHeavy: {
      CROWDER_ASSIGN_OR_RETURN(
          const std::vector<similarity::ScoredPair> pairs,
          core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard,
                                            spec.threshold,
                                            core::CandidateStrategy::kAllPairsJoin, 4));
      out.Int("num_candidates", pairs.size());
      break;
    }
    case WorkloadKind::kServe: {
      CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport report,
                               serve::BatchResolve(dataset, MakeServiceConfig(spec, seed)));
      out.Str("serve_digest", ServeDigests(report).Dump()).Obj("counters", ServeCounters(report));
      break;
    }
  }
  return out.Write(flags.Get("out"));
}

// ---------------------------------------------------------------------------
// trace

double Span(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

double SelfTime(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s;
}

// Calls the layers that run only inside WorkflowDriver::Start / Step on the
// traced pass's own inputs, each under its own span, and reports their work.
Status ProbeBatchLayers(const WorkflowRun& run, const core::WorkflowConfig& config,
                        const VoteLog& votes, bool probe_shards, const std::string& shardd,
                        Tracer* tracer, Json* out) {
  const data::Dataset& dataset = run.dataset;
  const auto n = static_cast<uint32_t>(dataset.table.num_records());
  similarity::JoinInput input;
  {
    ScopedSpan span(tracer, "text.tokenize");
    input = core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin,
                                           nullptr);
  }
  const similarity::JoinOptions options{config.measure, config.likelihood_threshold};
  similarity::JoinStats parallel_stats, serial_stats;
  std::vector<similarity::ScoredPair> pairs, serial;
  {
    ScopedSpan span(tracer, "similarity.join");
    similarity::ParallelJoinOptions exec;
    exec.num_threads = config.num_threads;
    CROWDER_ASSIGN_OR_RETURN(pairs,
                             similarity::ParallelAllPairsJoin(input, options, exec, &parallel_stats));
  }
  {
    ScopedSpan span(tracer, "exec.serial_join");
    CROWDER_ASSIGN_OR_RETURN(serial, similarity::AllPairsJoin(input, options, &serial_stats));
  }
  similarity::SortPairs(&serial);

  std::vector<crowder::graph::Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  Result<crowder::graph::PairGraph> built = [&] {
    ScopedSpan span(tracer, "graph.build");
    return crowder::graph::PairGraph::Create(n, edges);
  }();
  if (!built.ok()) return built.status();
  crowder::graph::PairGraph& graph = *built;
  size_t largest = 0;
  for (const auto& c : crowder::graph::ConnectedComponents(graph)) {
    largest = std::max(largest, c.size());
  }
  std::vector<crowder::hitgen::ClusterBasedHit> hits;
  {
    ScopedSpan span(tracer, "hitgen.generate");
    CROWDER_ASSIGN_OR_RETURN(hits,
                             crowder::hitgen::TwoTieredGenerator().Generate(&graph,
                                                                            config.cluster_size));
  }

  // The delivered votes, filed against the sorted candidate list.
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < pairs.size(); ++i) {
    index.emplace(crowder::crowd::PairKey(pairs[i].a, pairs[i].b), i);
  }
  crowder::aggregate::VoteTable table(pairs.size());
  for (const auto& v : votes) {
    auto it = index.find(crowder::crowd::PairKey(v.a, v.b));
    if (it != index.end()) table[it->second].push_back(v.vote);
  }
  int em_iterations = 0;
  {
    ScopedSpan span(tracer, "aggregate.dawid_skene");
    CROWDER_ASSIGN_OR_RETURN(const auto result, crowder::aggregate::RunDawidSkene(table));
    em_iterations = result.iterations;
  }

  crowder::shard::ShardRunStats shard_stats = run.result.shard_stats;
  if (probe_shards) {
    shard_stats = {};
    crowder::shard::ShardExecOptions exec;
    exec.num_shards = 4;
    exec.worker_path = shardd;
    ScopedSpan span(tracer, "shard.run");
    CROWDER_RETURN_NOT_OK(crowder::shard::RunShardedJoin(
        input, options, exec, [](std::vector<similarity::ScoredPair>&&) { return Status::OK(); },
        &shard_stats));
  }
  double slowest_s = 0.0, worker_cpu_s = 0.0;
  uint64_t most = 0, least = UINT64_MAX;
  std::vector<uint64_t> shard_verifications;
  for (const auto& w : shard_stats.shards) {
    slowest_s = std::max(slowest_s, w.wall_ms / 1e3);
    worker_cpu_s += w.cpu_ms / 1e3;
    most = std::max(most, w.pair_verifications);
    least = std::min(least, w.pair_verifications);
    shard_verifications.push_back(w.pair_verifications);
  }

  const auto totals = tracer->Totals();
  out->Num("similarity.join_s", Span(totals, "similarity.join"))
      .Int("similarity.verifications", parallel_stats.pair_verifications)
      .Int("similarity.candidates", pairs.size())
      .Num("similarity.candidates_per_mverif",
           parallel_stats.pair_verifications == 0
               ? 0.0
               : static_cast<double>(pairs.size()) * 1e6 /
                     static_cast<double>(parallel_stats.pair_verifications))
      .Num("exec.join_speedup", Span(totals, "exec.serial_join") / Span(totals, "similarity.join"))
      .Num("text.tokenize_s", Span(totals, "text.tokenize"))
      .Num("graph.build_s", Span(totals, "graph.build"))
      .Int("graph.largest_component", largest)
      .Num("hitgen.generate_s", Span(totals, "hitgen.generate"))
      .Int("hitgen.hits", hits.size())
      .Num("hitgen.pairs_per_hit",
           hits.empty() ? 0.0 : static_cast<double>(pairs.size()) / static_cast<double>(hits.size()))
      .Num("aggregate.dawid_skene_s", Span(totals, "aggregate.dawid_skene"))
      .Int("aggregate.em_iterations", static_cast<uint64_t>(em_iterations))
      .Num("shard.plan_ms", shard_stats.plan_wall_ms)
      .Num("shard.ship_ms", shard_stats.ship_wall_ms)
      .Num("shard.gather_ms", shard_stats.gather_wall_ms)
      .Num("shard.slowest_worker_s", slowest_s)
      .Num("shard.worker_cpu_s", worker_cpu_s)
      .Num("shard.verification_spread",
           least == 0 || least == UINT64_MAX ? 0.0
                                             : static_cast<double>(most) / static_cast<double>(least));
  // Identity checks run.py applies: thread counts agree, and the traced
  // pass saw the candidates the probes found.
  out->Obj("probe", Json()
                        .Str("parallel_candidates", DigestPairs(pairs))
                        .Str("serial_candidates", DigestPairs(serial))
                        .Int("parallel_verifications", parallel_stats.pair_verifications)
                        .Int("serial_verifications", serial_stats.pair_verifications)
                        .Int("hits", hits.size())
                        .Ints("shard_verifications", shard_verifications));
  return Status::OK();
}

Status Trace(const WorkloadSpec& spec, uint64_t seed, const Flags& flags) {
  Tracer tracer;
  Json out;
  const std::string csv = flags.Get("csv");
  const std::string shardd = flags.Get("shardd");

  // Untraced passes (the first warms up), then the traced one: their wall
  // times give the tracing overhead, and their outputs must agree. For
  // serve the pass is the closed loop from the CSV.
  const serve::ServiceConfig serve_config = MakeServiceConfig(*FindWorkload("serve"), seed);
  const core::WorkflowConfig config = MakeWorkflowConfig(spec, seed, shardd);
  Json untraced;
  double capacity = 0.0;  // serve: the untraced pass's ingest rate
  for (int pass = 0; pass < 2; ++pass) {
    double wall_s = 0.0;
    const double cpu_before = ProcessCpuSeconds();
    untraced = Json();
    if (spec.kind == WorkloadKind::kServe) {
      CROWDER_ASSIGN_OR_RETURN(const ServePhase closed,
                               ServeClosedLoop(csv, serve_config, nullptr, &wall_s));
      untraced.Str("serve_digest", ServeDigests(closed.report).Dump());
      capacity = IngestRate(closed);
    } else {
      CROWDER_ASSIGN_OR_RETURN(const WorkflowRun run, RunWorkflow(csv, config, nullptr, nullptr));
      wall_s = run.wall_s;
      untraced.Obj("counters", WorkflowCounters(run)).Obj("digests", WorkflowDigests(run));
    }
    untraced.Num("wall_s", wall_s).Num("cpu_s", ProcessCpuSeconds() - cpu_before);
  }
  out.Obj("untraced", untraced);

  std::map<std::string, SpanTotals> closed_totals;
  if (spec.kind == WorkloadKind::kServe) {
    double traced_wall_s = 0.0;
    CROWDER_ASSIGN_OR_RETURN(const ServePhase closed,
                             ServeClosedLoop(csv, serve_config, &tracer, &traced_wall_s));
    out.Num("traced_wall_s", traced_wall_s)
        .Obj("serve_counters", ServeCounters(closed.report))
        .Str("serve_digest", ServeDigests(closed.report).Dump());
    closed_totals = tracer.Totals();
    const double covered = Span(closed_totals, "serve.read_csv") +
                           Span(closed_totals, "serve.insert") +
                           Span(closed_totals, "serve.flush") + Span(closed_totals, "serve.finish");
    out.Num("trace.coverage", covered / Span(closed_totals, "serve.closed_loop"));
  }

  // The batch workflow, traced: the workload's own, or for serve the
  // batch-join configuration over the serve records.
  VoteLog votes;
  CROWDER_ASSIGN_OR_RETURN(const WorkflowRun run, RunWorkflow(csv, config, &tracer, &votes));
  if (spec.kind != WorkloadKind::kServe) out.Num("traced_wall_s", run.wall_s);
  out.Obj("counters", WorkflowCounters(run)).Obj("digests", WorkflowDigests(run));
  CROWDER_RETURN_NOT_OK(ProbeBatchLayers(run, config, votes,
                                         spec.kind != WorkloadKind::kShardedJoin, shardd,
                                         &tracer, &out));

  // The serve layer under load: the serve workload's open-loop base phase
  // over all its records, or a shorter closed-loop probe over the first
  // records of a batch workload.
  ServePhaseOptions options;
  options.num_records =
      spec.kind == WorkloadKind::kServe
          ? static_cast<uint32_t>(run.dataset.table.num_records())
          : std::min<uint32_t>(kServeProbeRecords, run.dataset.table.num_records());
  options.insert_rate = kInsertRateShares[0] * capacity;
  options.query_qps = kQueryQps;
  options.measure_lag = true;
  CROWDER_ASSIGN_OR_RETURN(const ServePhase serve_phase,
                           RunServePhase(run.dataset, serve_config, options, &tracer));

  const auto totals = tracer.Totals();
  const core::WorkflowResult& r = run.result;
  const core::PipelineStats& p = r.pipeline_stats;
  const serve::ServiceStats& s = serve_phase.report.stats;
  out.Num("data.read_csv_s", Span(totals, "data.read_csv"))
      .Num("crowd.post_s", Span(totals, "crowd.post"))
      .Num("crowd.poll_s", Span(totals, "crowd.poll"))
      .Int("crowd.rounds", run.crowd_rounds)
      .Int("crowd.assignments", r.crowd_stats.num_assignments)
      .Num("core.start_s", SelfTime(totals, "core.start"))
      .Num("core.step_s", SelfTime(totals, "core.step"))
      .Num("core.resolve_s",
           Span(totals, "core.resolve_entities") + Span(totals, "core.streaming_resolver"))
      .Int("core.spilled_bytes",
           p.spilled_bytes + p.vote_spilled_bytes + p.boundary_spilled_bytes)
      .Int("core.partitions", p.crowd_partitions)
      .Int("core.pairs_asked", r.crowd_pairs_asked)
      .Int("core.pairs_inferred", r.pairs_inferred)
      .Num("serve.insert_busy_s",
           Span(totals, "serve.insert") - Span(closed_totals, "serve.insert"))
      .Int("serve.index_rebuilds", s.index_rebuilds)
      .Int("serve.candidates", s.candidate_pairs)
      .Int("serve.rounds", s.rounds)
      .Num("serve.flush_s", Span(totals, "serve.flush") + Span(totals, "serve.finish") -
                                Span(closed_totals, "serve.flush") -
                                Span(closed_totals, "serve.finish"))
      .Num("serve.query_busy_s", Span(totals, "serve.query") - Span(closed_totals, "serve.query"))
      .Int("serve.epochs", s.epochs_published)
      .Num("serve.generator_late_max_ms", serve_phase.generator_late_max_ms)
      .Obj("serve_probe", ServeDigests(serve_phase.report));
  if (spec.kind != WorkloadKind::kServe) {
    const double covered =
        Span(totals, "data.read_csv") + Span(totals, "text.tokenize") +
        Span(totals, "similarity.join") + Span(totals, "graph.build") +
        Span(totals, "hitgen.generate") + Span(totals, "crowd.post") +
        Span(totals, "crowd.poll") + Span(totals, "aggregate.dawid_skene") +
        Span(totals, "core.resolve_entities") + Span(totals, "core.streaming_resolver");
    out.Num("trace.coverage", covered / tracer.FirstDuration("workflow"));
  }
  CROWDER_RETURN_NOT_OK(tracer.WriteChromeTrace(flags.Get("trace-out")));
  return out.Write(flags.Get("out"));
}

int Main(int argc, char** argv) try {
  Result<Flags> flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::cerr << "crowder_perfbench: " << flags.status().ToString() << "\n";
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(flags->Get("workload"));
  if (spec == nullptr) {
    std::cerr << "crowder_perfbench: unknown workload '" << flags->Get("workload") << "'\n";
    return 2;
  }
  const uint64_t seed = std::stoull(flags->Get("seed"));
  Status status;
  if (flags->command == "setup") {
    status = Setup(*spec, seed, *flags);
  } else if (flags->command == "run") {
    status = spec->kind == WorkloadKind::kServe ? RunServe(*spec, seed, *flags)
                                                : RunBatch(*spec, seed, *flags);
  } else if (flags->command == "reference") {
    status = Reference(*spec, seed, *flags);
  } else if (flags->command == "trace") {
    status = Trace(*spec, seed, *flags);
  } else {
    status = Status::InvalidArgument("unknown command '" + flags->command + "'");
  }
  if (!status.ok()) {
    std::cerr << "crowder_perfbench " << flags->command << ": " << status.ToString() << "\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {  // a malformed number in a flag
  std::cerr << "crowder_perfbench: " << e.what() << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

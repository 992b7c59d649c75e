// The pipeline stages HybridWorkflow composes (CrowdER §2.2's phases):
//
//   MachinePassStage  records → candidate pairs in WorkflowState::stream,
//                     under any CandidateStrategy, sharded or not
//                     (HybridWorkflow::MachinePassInto)
//   HitGenStage       candidate pairs → cluster HITs plus the component-
//                     bucket pair store the crowd rounds read their contexts
//                     from (two-tiered: per-bucket decomposition over
//                     local-id subgraphs + one global pack — see
//                     internal::BuildClusterBoundary; the other generators:
//                     the full pair graph and a one-bucket store). Pair HITs
//                     are packed by the driver, one partition at a time.
//   AggregateStage    votes → ranked matches + PR curve, shard by shard over
//                     the vote store and the sorted stream (kMaterialized
//                     also keeps the sorted pair list and the vote table)
//
// The crowd phase is not a Stage: it is a sequence of *rounds* surfaced by
// core::WorkflowDriver (driver.h) — the driver prepares one HIT batch at a
// time, any crowd::CrowdBackend answers it, and the driver files the votes
// into the spill-backed VoteShardStore. HybridWorkflow::Run is a thin loop
// over driver + backend; its PipelineStats still reports a "crowd" stage
// timing spanning the rounds.
//
// Stages communicate through WorkflowState, never through globals. Both
// execution modes run every stage the same way and cross the same
// partitioned crowd boundary (core/partition.h); kMaterialized is its
// single-partition, unbounded-budget case (EffectiveWorkflowConfig), which
// is why the modes are byte-identical (see the merge lemma in
// core/pipeline.h and the partition-invisibility argument in
// docs/ARCHITECTURE.md). No stage branches on the mode except
// AggregateStage's result-retention step: whether the result keeps the pair
// list and the vote table.
#ifndef CROWDER_CORE_STAGES_H_
#define CROWDER_CORE_STAGES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/partition.h"
#include "core/pipeline.h"
#include "core/workflow.h"
#include "hitgen/hit.h"

namespace crowder {
namespace core {

/// \brief Everything the stages (and the driver's crowd rounds) share.
/// Owned by WorkflowDriver for the duration of one workflow execution.
struct WorkflowState {
  WorkflowState(const WorkflowConfig& config_in, const data::Dataset& dataset_in)
      : config(&config_in), dataset(&dataset_in), stream(config_in.memory_budget_bytes) {}

  /// The effective configuration (EffectiveWorkflowConfig): in
  /// kMaterialized the budget, partition and block settings read 0.
  const WorkflowConfig* config;
  const data::Dataset* dataset;

  /// The sorted candidate pairs, in both execution modes. Stays alive
  /// through the whole run: the crowd boundary and the final ranked pass
  /// re-scan it.
  PairStream stream;

  /// Cluster HITs handed from HitGenStage to the crowd rounds (cluster-based
  /// only; pair-based HITs are packed partition by partition by the driver).
  /// Bounded by the decomposition, not by |P|, and kept whole.
  std::vector<hitgen::ClusterBasedHit> cluster_hits;

  // ---- Partitioned crowd boundary (core/partition.h). ----

  /// Pairs per crowd partition, resolved from the config by HitGenStage.
  uint64_t partition_capacity = 0;
  /// Per-bucket pair storage, global-index tagged (cluster-based only): one
  /// bucket per group of whole components (two-tiered), or one bucket of
  /// every pair in global order (the full-graph generators).
  std::unique_ptr<ShardedSpillStore<IndexedPair>> bucket_pairs;
  /// The disk-backed vote table, filled by the driver's crowd rounds,
  /// drained by AggregateStage.
  std::unique_ptr<VoteShardStore> votes;

  /// Workers banned by the driver's admission filter (crowd/worker_filter.h),
  /// copied in at Finalize. AggregateStage excludes their votes when it
  /// derives decisions, while the unfiltered store above (and
  /// result.crowd_stats.votes) keeps the audit truth.
  std::unordered_set<uint32_t> banned_workers;

  /// Verdicts the driver's answer closure inferred instead of crowdsourcing
  /// (QuestionPolicyKind::kInferenceOrdered; copied in at Finalize), keyed
  /// by global pair index — ordered, so the streaming aggregate can walk it
  /// in lockstep with the sorted stream. AggregateStage overrides these
  /// pairs' match probabilities with 1.0 / 0.0 (they have no votes; without
  /// the override they would rank as never-judged). Empty under
  /// kFixedOrder, leaving the aggregate bitwise untouched.
  std::map<uint64_t, bool> inferred_verdicts;

  /// The result under construction (candidate_pairs, machine_recall,
  /// crowd_stats, ranked, pr_curve, ... filled in stage by stage).
  WorkflowResult result;
};

/// \brief Machine pass + prune into state->stream, where the pairs stay —
/// every downstream consumer re-scans the (possibly spilled) stream in
/// sorted order. One call to HybridWorkflow::MachinePassInto: the sharded
/// runtime when num_shards >= 2, otherwise the single-process pass of the
/// configured CandidateStrategy. Also computes machine recall.
class MachinePassStage : public Stage {
 public:
  const char* name() const override { return "machine-pass"; }
  Status Run(WorkflowState* state) override;
};

/// \brief HIT generation. Pair-based HITs defer to the driver's rounds
/// (packed per partition as the partitions are drawn from the stream).
/// Two-tiered cluster HITs run internal::BuildClusterBoundary — the HIT list
/// TwoTieredGenerator produces, without ever holding the whole pair graph.
/// The other cluster generators (random, bfs, dfs, approximation) decompose
/// the full pair graph — O(|P|) resident while they run, under any budget —
/// and leave a one-bucket store of every pair in global order.
class HitGenStage : public Stage {
 public:
  const char* name() const override { return "hit-gen"; }
  Status Run(WorkflowState* state) override;
};

/// \brief Vote aggregation into the ranked match list and PR curve, shard
/// by shard over the vote store (aggregate/partitioned.h) while re-scanning
/// the candidate stream for the pair identities — majority vote
/// partition-blind by pair independence, Dawid-Skene because shards tile
/// the global pair order, so every floating-point accumulation happens in
/// one order at any partitioning. kMaterialized results also get the sorted
/// pair list in result.candidate_pairs and the unfiltered vote table in
/// result.crowd_stats.votes.
class AggregateStage : public Stage {
 public:
  const char* name() const override { return "aggregate"; }
  Status Run(WorkflowState* state) override;
};

namespace internal {

/// \brief Tokenizes every record into the join input (and, for sorted
/// neighborhood, the normalized sort keys). Shared by every machine pass so
/// all see identical token sets.
similarity::JoinInput BuildJoinInput(const data::Dataset& dataset, CandidateStrategy strategy,
                                     std::vector<std::string>* keys);

/// \brief True matches among `pairs` — the machine-recall numerator. The one
/// definition shared by the workflow stages, the streaming sink, and the
/// CLI's machine-only report.
uint64_t CountCandidateMatches(const data::Dataset& dataset,
                               const std::vector<similarity::ScoredPair>& pairs);

/// \brief What the two-tiered cluster-based crowd boundary precomputes.
struct ClusterBoundary {
  /// Component-aligned bucket plan (which bucket holds each record).
  ComponentBucketPlan plan;
  /// Per-bucket pairs, tagged with their global sorted index.
  std::unique_ptr<ShardedSpillStore<IndexedPair>> bucket_pairs;
  /// The full cluster-HIT list — identical to TwoTieredGenerator's output
  /// over the whole pair graph.
  std::vector<hitgen::ClusterBasedHit> hits;
  /// Bytes the bucket store spilled while routing pairs.
  uint64_t spilled_bytes = 0;
};

/// \brief Two-tiered cluster-based boundary: component buckets, per-bucket
/// two-tiered decomposition, one global pack. Produces the HIT list
/// TwoTieredGenerator produces over the whole pair graph — same HITs, same
/// order — because
///  (1) buckets hold whole components, in the ConnectedComponents order
///      (ascending smallest member), so concatenating the per-bucket
///      decompositions reproduces the global component order;
///  (2) each bucket's subgraph is remapped to dense *local* vertex ids in
///      ascending global order — a strictly monotone renaming, so every id
///      comparison, tie-break, adjacency order, and component order the
///      decomposition observes is preserved, while the per-bucket graph
///      costs O(bucket records) instead of O(all records); and
///  (3) the bottom-tier pack runs once, globally, over the identical scc
///      sequence (all small components in component order, then all LCC
///      parts in LCC order — exactly TwoTieredGenerator::Generate's order).
/// Exposed for partition_test, which asserts the identity directly.
Result<ClusterBoundary> BuildClusterBoundary(const PairStream& stream, uint32_t num_records,
                                             uint64_t partition_capacity,
                                             uint32_t cluster_size,
                                             uint64_t memory_budget_bytes);

}  // namespace internal

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_STAGES_H_

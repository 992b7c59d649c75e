// Deterministic end-to-end golden test: the full HybridWorkflow on a small
// generated Restaurant dataset with fixed seeds must keep producing exactly
// the recorded outputs. This is the cheap regression gate for the whole
// pipeline — machine pass, pair-graph clustering, cluster-HIT generation,
// crowd simulation, and Dawid-Skene aggregation; any semantic drift in any
// stage moves at least one golden value.
//
// If a deliberate algorithm change shifts these numbers, re-record them by
// running the binary and copying the values its failure messages print —
// and say why in the commit.
//
// Re-record history:
//  * BestF1 0.93617... → 0.91666...: the crowd platform moved to per-HIT
//    seed derivation (crowd/session.h) so HIT batches can simulate in
//    parallel and stream incrementally; the worker-pick and answer draws
//    legitimately shifted. Candidate pairs, HIT counts, assignment counts,
//    and cost are unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <iomanip>
#include <string>
#include <utility>

#include "core/driver.h"
#include "core/workflow.h"
#include "crowd/backend.h"
#include "crowd/vote_log.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SmallRestaurant() {
  data::RestaurantConfig config;
  config.num_records = 160;
  config.num_duplicate_pairs = 24;
  config.num_chains = 8;
  config.seed = 20260730;
  return data::GenerateRestaurant(config).ValueOrDie();
}

WorkflowConfig GoldenConfig() {
  WorkflowConfig config;
  config.measure = similarity::SetMeasure::kJaccard;
  config.likelihood_threshold = 0.3;
  config.hit_type = HitType::kClusterBased;
  config.cluster_size = 5;
  config.cluster_algorithm = hitgen::ClusterAlgorithm::kTwoTiered;
  config.aggregation = AggregationMethod::kDawidSkene;
  config.seed = 1234;
  return config;
}

TEST(GoldenWorkflowTest, SmallRestaurantPipelineIsStable) {
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow workflow(GoldenConfig());
  auto result = workflow.Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // ---- Golden values (recorded from the seed build; see header note). ----
  EXPECT_EQ(dataset.table.num_records(), 160u);
  EXPECT_EQ(result->total_matches, 24u);
  EXPECT_EQ(result->candidate_pairs.size(), 234u);
  EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12);

  // Cluster structure of the candidate pair graph.
  std::vector<graph::Edge> edges;
  for (const auto& p : result->candidate_pairs) edges.push_back({p.a, p.b});
  auto pair_graph =
      graph::PairGraph::Create(dataset.table.num_records(), edges).ValueOrDie();
  EXPECT_EQ(graph::ConnectedComponents(pair_graph).size(), 18u);

  // Crowd execution.
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);

  // Quality of the final ranked output.
  EXPECT_EQ(result->ranked.size(), result->candidate_pairs.size());
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9);
}

TEST(GoldenWorkflowTest, MultiThreadedRunLeavesGoldenValuesBitwiseUnchanged) {
  // Determinism across thread counts is a contract, not an accident: with
  // num_threads > 1 the machine pass runs the parallel join, and every
  // golden value — and the full ranked list, bitwise — must match the
  // serial run. A drift here means scheduling leaked into the output.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow serial_workflow(GoldenConfig());
  auto serial = serial_workflow.Run(dataset);
  ASSERT_TRUE(serial.ok());

  for (uint32_t threads : {2u, 4u, 7u}) {
    WorkflowConfig config = GoldenConfig();
    config.num_threads = threads;
    const HybridWorkflow workflow(config);
    auto result = workflow.Run(dataset);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The recorded goldens, verbatim.
    EXPECT_EQ(result->candidate_pairs.size(), 234u) << "threads " << threads;
    EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12) << "threads " << threads;
    EXPECT_EQ(result->crowd_stats.num_hits, 46u) << "threads " << threads;
    EXPECT_EQ(result->crowd_stats.num_assignments, 138u) << "threads " << threads;
    EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9)
        << "threads " << threads;

    // And the stronger form: bitwise equality with the serial run.
    ASSERT_EQ(result->candidate_pairs.size(), serial->candidate_pairs.size());
    for (size_t i = 0; i < serial->candidate_pairs.size(); ++i) {
      EXPECT_EQ(result->candidate_pairs[i].a, serial->candidate_pairs[i].a);
      EXPECT_EQ(result->candidate_pairs[i].b, serial->candidate_pairs[i].b);
      EXPECT_EQ(result->candidate_pairs[i].score, serial->candidate_pairs[i].score);
    }
    ASSERT_EQ(result->ranked.size(), serial->ranked.size());
    for (size_t i = 0; i < serial->ranked.size(); ++i) {
      EXPECT_EQ(result->ranked[i].a, serial->ranked[i].a);
      EXPECT_EQ(result->ranked[i].b, serial->ranked[i].b);
      EXPECT_EQ(result->ranked[i].score, serial->ranked[i].score);
    }
    EXPECT_EQ(result->crowd_stats.cost_dollars, serial->crowd_stats.cost_dollars);
  }
}

// Shared matrix body: a streaming run under (threads, budget,
// partition_pairs) must reproduce `materialized` bitwise — ranked list,
// crowd statistics, cost, and completion time — without ever materializing
// the candidate pair list.
void ExpectStreamingMatchesMaterialized(const data::Dataset& dataset,
                                        const WorkflowConfig& base,
                                        const WorkflowResult& materialized, uint32_t threads,
                                        uint64_t budget, uint64_t partition_pairs) {
  WorkflowConfig config = base;
  config.execution_mode = ExecutionMode::kStreaming;
  config.num_threads = threads;
  config.memory_budget_bytes = budget;
  config.stream_block_records = 64;
  config.crowd_partition_pairs = partition_pairs;
  const HybridWorkflow workflow(config);
  auto result = workflow.Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string which = "threads " + std::to_string(threads) + " budget " +
                            std::to_string(budget) + " partition " +
                            std::to_string(partition_pairs);

  // The partitioned boundary never materializes the pair list; only the
  // count survives.
  EXPECT_TRUE(result->candidate_pairs.empty()) << which;
  EXPECT_EQ(result->num_candidate_pairs, materialized.num_candidate_pairs) << which;
  EXPECT_EQ(result->pipeline_stats.streamed_pairs, materialized.num_candidate_pairs) << which;
  EXPECT_EQ(result->machine_recall, materialized.machine_recall) << which;

  // Crowd statistics, bitwise.
  EXPECT_EQ(result->crowd_stats.num_hits, materialized.crowd_stats.num_hits) << which;
  EXPECT_EQ(result->crowd_stats.num_assignments, materialized.crowd_stats.num_assignments)
      << which;
  EXPECT_EQ(result->crowd_stats.cost_dollars, materialized.crowd_stats.cost_dollars) << which;
  EXPECT_EQ(result->crowd_stats.total_seconds, materialized.crowd_stats.total_seconds) << which;

  // The ranked output, bitwise.
  ASSERT_EQ(result->ranked.size(), materialized.ranked.size()) << which;
  for (size_t i = 0; i < materialized.ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, materialized.ranked[i].a) << which;
    EXPECT_EQ(result->ranked[i].b, materialized.ranked[i].b) << which;
    EXPECT_EQ(result->ranked[i].score, materialized.ranked[i].score) << which;
  }

  // The boundary really partitioned / spilled when asked to.
  EXPECT_GE(result->pipeline_stats.crowd_partitions, 1u) << which;
  if (partition_pairs > 0 && partition_pairs < materialized.num_candidate_pairs) {
    EXPECT_GT(result->pipeline_stats.crowd_partitions, 1u) << which;
  }
  if (budget > 0) {
    EXPECT_GT(result->pipeline_stats.spilled_bytes, 0u) << which;
  } else {
    EXPECT_EQ(result->pipeline_stats.spilled_bytes, 0u) << which;
  }
}

TEST(GoldenWorkflowTest, StreamingModeIsBitwiseIdenticalToMaterialized) {
  // The acceptance bar of the partitioned crowd boundary: kStreaming must
  // produce the same bytes as kMaterialized at every golden config — across
  // thread counts, partition counts {1, ~4}, and whether or not the
  // candidate stream ever spilled to disk. The 1 KiB budget is well below
  // this run's pair volume (234 pairs * 16 B across 64-record blocks), so
  // the spill path genuinely executes; partition_pairs = 64 splits the 234
  // pairs across ~4 crowd partitions.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow materialized_workflow(GoldenConfig());
  auto materialized = materialized_workflow.Run(dataset);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->num_candidate_pairs, 234u);

  for (uint32_t threads : {1u, 4u}) {
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/0, /*partition_pairs=*/0);
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/0, /*partition_pairs=*/64);
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/1024, /*partition_pairs=*/64);
  }
}

TEST(GoldenWorkflowTest, PairHitPartitionedStreamingMatchesMaterialized) {
  // The same contract along the pair-based HIT path (partition boundaries
  // must fall on HIT boundaries to be invisible) and for both aggregators.
  const data::Dataset dataset = SmallRestaurant();
  for (const AggregationMethod aggregation :
       {AggregationMethod::kDawidSkene, AggregationMethod::kMajorityVote}) {
    WorkflowConfig base = GoldenConfig();
    base.hit_type = HitType::kPairBased;
    base.pairs_per_hit = 7;  // deliberately not a divisor of 64
    base.aggregation = aggregation;
    const HybridWorkflow materialized_workflow(base);
    auto materialized = materialized_workflow.Run(dataset);
    ASSERT_TRUE(materialized.ok());

    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/1,
                                       /*budget=*/0, /*partition_pairs=*/0);
    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/4,
                                       /*budget=*/0, /*partition_pairs=*/64);
    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/1,
                                       /*budget=*/1024, /*partition_pairs=*/64);
  }
}

// The backend dimension of the golden contract: a WorkflowDriver driven by
// hand against a SimulatedCrowdBackend — the public step/poll API, not
// HybridWorkflow::Run — must reproduce the pre-redesign goldens bitwise, in
// both execution modes. (Run() itself is a loop over the same driver and
// backend, so the classic golden tests above already pin that path; this
// one pins the exposed seam.)
TEST(GoldenWorkflowTest, ManualDriverLoopReproducesGoldensInBothModes) {
  const data::Dataset dataset = SmallRestaurant();
  for (const bool streaming : {false, true}) {
    WorkflowConfig config = GoldenConfig();
    if (streaming) {
      config.execution_mode = ExecutionMode::kStreaming;
      config.crowd_partition_pairs = 64;  // several rounds
    }
    crowd::SimulatedCrowdOptions options;
    auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                        dataset.truth.entity_of, options)
                       .ValueOrDie();
    WorkflowDriver driver(config);
    ASSERT_TRUE(driver.Start(dataset).ok());
    size_t rounds = 0;
    while (!driver.done()) {
      ++rounds;
      auto ticket = backend->Post(driver.PendingHits());
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      auto votes = backend->Poll(*ticket);
      ASSERT_TRUE(votes.ok()) << votes.status().ToString();
      ASSERT_TRUE(driver.SubmitVotes(std::move(*votes)).ok());
      ASSERT_TRUE(driver.Step().ok());
    }
    ASSERT_TRUE(driver.SubmitCrowdStats(backend->Finish().ValueOrDie()).ok());
    auto result = driver.TakeResult();
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The recorded goldens, verbatim (see the header note).
    const std::string which = streaming ? "streaming" : "materialized";
    EXPECT_EQ(result->num_candidate_pairs, 234u) << which;
    EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12) << which;
    EXPECT_EQ(result->crowd_stats.num_hits, 46u) << which;
    EXPECT_EQ(result->crowd_stats.num_assignments, 138u) << which;
    EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9) << which;
    if (streaming) {
      EXPECT_GT(rounds, 1u);  // the step machine really surfaced partitions
      EXPECT_TRUE(result->candidate_pairs.empty()) << which;
    } else {
      EXPECT_EQ(rounds, 1u);
    }
  }
}

// Record → replay must reproduce the ranked list byte for byte — including
// across execution modes, because the vote log stores the HIT sequence, not
// the round partitioning.
TEST(GoldenWorkflowTest, RecordReplayRoundTripIsByteIdentical) {
  const data::Dataset dataset = SmallRestaurant();
  const std::string log_path = ::testing::TempDir() + "/golden_votes.jsonl";

  // Record a materialized run.
  auto writer = crowd::VoteLogWriter::Create(log_path).ValueOrDie();
  crowd::SimulatedCrowdOptions options;
  options.tee = writer.get();
  auto recorder = crowd::SimulatedCrowdBackend::Create(GoldenConfig().crowd,
                                                       GoldenConfig().seed,
                                                       dataset.truth.entity_of, options)
                      .ValueOrDie();
  const HybridWorkflow workflow(GoldenConfig());
  auto recorded = workflow.Run(dataset, recorder.get());
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_NEAR(eval::BestF1(recorded->pr_curve), 0.91666666666666663, 1e-9);

  // Replay it back — once materialized, once through the partitioned
  // streaming boundary with forced spilling.
  for (const bool streaming : {false, true}) {
    WorkflowConfig config = GoldenConfig();
    if (streaming) {
      config.execution_mode = ExecutionMode::kStreaming;
      config.memory_budget_bytes = 1024;
      config.crowd_partition_pairs = 64;
    }
    auto replayer = crowd::RecordedCrowdBackend::Open(log_path).ValueOrDie();
    auto replayed = HybridWorkflow(config).Run(dataset, replayer.get());
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    const std::string which = streaming ? "streaming replay" : "materialized replay";

    ASSERT_EQ(replayed->ranked.size(), recorded->ranked.size()) << which;
    for (size_t i = 0; i < recorded->ranked.size(); ++i) {
      EXPECT_EQ(replayed->ranked[i].a, recorded->ranked[i].a) << which;
      EXPECT_EQ(replayed->ranked[i].b, recorded->ranked[i].b) << which;
      EXPECT_EQ(replayed->ranked[i].score, recorded->ranked[i].score) << which;
    }
    EXPECT_EQ(replayed->crowd_stats.num_hits, recorded->crowd_stats.num_hits) << which;
    EXPECT_EQ(replayed->crowd_stats.num_assignments, recorded->crowd_stats.num_assignments)
        << which;
    EXPECT_EQ(replayed->crowd_stats.cost_dollars, recorded->crowd_stats.cost_dollars) << which;
    EXPECT_EQ(replayed->crowd_stats.total_seconds, recorded->crowd_stats.total_seconds)
        << which;
  }
}

TEST(GoldenWorkflowTest, FixedOrderPolicyLeavesGoldensBitwiseUnchanged) {
  // kFixedOrder is the default and must be a true no-op: requesting it
  // explicitly produces the recorded goldens and a bitwise-identical ranked
  // list, with the inference counters reporting "everything was asked".
  const data::Dataset dataset = SmallRestaurant();
  auto baseline = HybridWorkflow(GoldenConfig()).Run(dataset);
  ASSERT_TRUE(baseline.ok());

  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kFixedOrder;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs_inferred, 0u);
  EXPECT_EQ(result->crowd_pairs_asked, 234u);
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9);

  ASSERT_EQ(result->ranked.size(), baseline->ranked.size());
  for (size_t i = 0; i < baseline->ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, baseline->ranked[i].a);
    EXPECT_EQ(result->ranked[i].b, baseline->ranked[i].b);
    EXPECT_EQ(result->ranked[i].score, baseline->ranked[i].score);
  }
}

TEST(GoldenWorkflowTest, AdaptiveSelectionGoldenIsStable) {
  // The adaptive-policy counterpart of the classic golden: the same config
  // through kInferenceOrdered must keep producing the recorded asked /
  // inferred split, crowd cost, ranked-list head, and F1. Any drift in the
  // closure, the gain ranking, or the sub-round machinery moves one of
  // these. Re-record deliberately, like the header says.
  const data::Dataset dataset = SmallRestaurant();
  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kInferenceOrdered;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->num_candidate_pairs, 234u);
  EXPECT_EQ(result->crowd_pairs_asked, 230u);
  EXPECT_EQ(result->pairs_inferred, 4u);
  EXPECT_EQ(result->crowd_pairs_asked + result->pairs_inferred, 234u);
  // Cluster HITs stay posted unless *every* pair inside resolves, so on this
  // small run the HIT/assignment counts match the fixed-order goldens; the
  // savings show up in the asked/inferred split (and, at scale, in skipped
  // HITs — see selection_sweep_test for the strict-reduction pin).
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.93617021276595735, 1e-9);

  // Per-round savings roll up to the run total and are actually nonzero.
  uint64_t per_round = 0;
  for (const auto& round : result->crowd_rounds) per_round += round.pairs_inferred;
  EXPECT_EQ(per_round, result->pairs_inferred);
  EXPECT_GT(result->pairs_inferred, 0u);

  // The head of the ranked list, verbatim.
  const struct {
    uint32_t a;
    uint32_t b;
    double score;
  } head[] = {
      {126, 127, 0.99940958874326224},
      {128, 129, 0.99925238622317192},
      {154, 155, 0.99872017173952565},
      {148, 149, 0.99713160472793172},
      {124, 125, 0.99713159927338635},
  };
  ASSERT_GE(result->ranked.size(), std::size(head));
  for (size_t i = 0; i < std::size(head); ++i) {
    EXPECT_EQ(result->ranked[i].a, head[i].a) << "rank " << i;
    EXPECT_EQ(result->ranked[i].b, head[i].b) << "rank " << i;
    EXPECT_EQ(result->ranked[i].score, head[i].score) << "rank " << i;
  }
}

// The crowd-heavy benchmark shape at golden scale: adaptive selection over a
// streaming run whose vote shards spill. Every layer the bounded-memory crowd
// loop touches feeds one of these numbers: the spilled vote shards read back
// once per EM pass, the pending-pair sweep, and the answer closure's
// inferences.
WorkflowConfig AdaptiveStreamingConfig() {
  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kInferenceOrdered;
  config.execution_mode = ExecutionMode::kStreaming;
  config.memory_budget_bytes = 4 * 1024;  // forces the vote shards to spill
  config.crowd_partition_pairs = 64;
  return config;
}

struct RankedHead {
  uint32_t a;
  uint32_t b;
  double score;
};

void ExpectRankedHead(const WorkflowResult& result, const RankedHead* head, size_t n) {
  ASSERT_GE(result.ranked.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(result.ranked[i].a, head[i].a) << "rank " << i;
    EXPECT_EQ(result.ranked[i].b, head[i].b) << "rank " << i;
    EXPECT_EQ(result.ranked[i].score, head[i].score) << "rank " << i;
  }
}

TEST(GoldenWorkflowTest, AdaptiveStreamingClusterGoldenIsStable) {
  const data::Dataset dataset = SmallRestaurant();
  auto result = HybridWorkflow(AdaptiveStreamingConfig()).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->pipeline_stats.vote_spilled_bytes, 0u) << "the budget must bite";
  EXPECT_EQ(result->num_candidate_pairs, 234u);
  EXPECT_EQ(result->crowd_pairs_asked, 227u);
  EXPECT_EQ(result->pairs_inferred, 7u);
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);
  EXPECT_EQ(result->crowd_rounds.size(), 14u);
  EXPECT_EQ(eval::BestF1(result->pr_curve), 0.88888888888888895);

  const RankedHead head[] = {
      {120, 121, 0.99947920691179426}, {134, 135, 0.99947919834036569},
      {156, 157, 0.99779037317743813}, {114, 115, 0.99680539967190163},
      {116, 117, 0.99595005038744877},
  };
  ExpectRankedHead(*result, head, std::size(head));
}

TEST(GoldenWorkflowTest, AdaptiveStreamingHostilePairGoldenIsStable) {
  // The defended variant: a hostile pool, the approval-rate filter and pair
  // HITs, so bans, the filtered shard view aggregation reads, repair rounds
  // and the retraction/re-ask path all shape the pinned numbers. The larger
  // dataset is what it takes for a ban to retract an inference.
  data::RestaurantConfig data_config;
  data_config.num_records = 400;
  data_config.num_duplicate_pairs = 80;
  data_config.num_chains = 8;
  data_config.seed = 20260730;
  const data::Dataset dataset = data::GenerateRestaurant(data_config).ValueOrDie();
  WorkflowConfig config = AdaptiveStreamingConfig();
  config.hit_type = HitType::kPairBased;
  config.pairs_per_hit = 10;
  config.crowd.reliable_fraction = 0.46;
  config.crowd.noisy_fraction = 0.18;
  config.crowd.colluder_fraction = 0.13;
  config.crowd.sleeper_fraction = 0.08;
  config.async_crowd = true;
  config.filter_workers = true;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->pipeline_stats.vote_spilled_bytes, 0u) << "the budget must bite";
  uint64_t reasked = 0;
  for (const auto& round : result->crowd_rounds) reasked += round.pairs_reasked;
  EXPECT_GT(reasked, 0u) << "the retraction path must fire";
  EXPECT_EQ(result->filtered_workers.size(), 70u);
  EXPECT_EQ(result->num_candidate_pairs, 1944u);
  EXPECT_EQ(result->crowd_pairs_asked, 1886u);
  EXPECT_EQ(result->pairs_inferred, 58u);
  EXPECT_EQ(result->crowd_stats.num_hits, 407u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 1221u);
  EXPECT_EQ(result->crowd_rounds.size(), 171u);
  EXPECT_EQ(eval::BestF1(result->pr_curve), 0.95597484276729561);

  const RankedHead head[] = {
      {240, 241, 0.99999992956554373}, {244, 245, 0.99999992956554373},
      {246, 247, 0.99999991946453359}, {308, 309, 0.99999958025964697},
      {310, 311, 0.99999958025964697},
  };
  ExpectRankedHead(*result, head, std::size(head));
}

// 64-bit FNV-1a over the raw bytes of the values fed to it.
class Fnv64 {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ ^= byte;
      hash_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t RankedDigest(const WorkflowResult& result) {
  Fnv64 fnv;
  for (const auto& p : result.ranked) {
    fnv.Add(p.a);
    fnv.Add(p.b);
    fnv.Add(p.score);
  }
  return fnv.value();
}

uint64_t VotesDigest(const WorkflowResult& result) {
  Fnv64 fnv;
  for (const auto& pair_votes : result.crowd_stats.votes) {
    fnv.Add(static_cast<uint64_t>(pair_votes.size()));
    for (const auto& v : pair_votes) {
      fnv.Add(v.worker_id);
      fnv.Add(static_cast<uint8_t>(v.says_match));
    }
  }
  return fnv.value();
}

// The configurations off the default route (other cluster generators,
// other candidate strategies), plus pair HITs under majority vote and one
// defended adaptive run. Recorded from the materialized crowd path that
// predates the single partitioned crowd boundary, back when only
// kMaterialized could run them; they must never be re-recorded to follow a
// refactor of that boundary or of the machine pass.
struct MaterializedPin {
  const char* name;
  WorkflowConfig (*config)();
  uint32_t num_hits;
  uint32_t num_assignments;
  double cost_dollars;
  size_t crowd_rounds;
  uint64_t ranked_digest;
  uint64_t votes_digest;
};

WorkflowConfig WithAlgorithm(hitgen::ClusterAlgorithm algorithm) {
  WorkflowConfig config = GoldenConfig();
  config.cluster_algorithm = algorithm;
  return config;
}

WorkflowConfig WithStrategy(CandidateStrategy strategy) {
  WorkflowConfig config = GoldenConfig();
  config.candidate_strategy = strategy;
  return config;
}

WorkflowConfig PairMajorityConfig() {
  WorkflowConfig config = GoldenConfig();
  config.hit_type = HitType::kPairBased;
  config.pairs_per_hit = 7;
  config.aggregation = AggregationMethod::kMajorityVote;
  return config;
}

WorkflowConfig FilteredAdaptiveConfig() {
  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kInferenceOrdered;
  config.crowd.reliable_fraction = 0.46;
  config.crowd.noisy_fraction = 0.18;
  config.crowd.colluder_fraction = 0.13;
  config.crowd.sleeper_fraction = 0.08;
  config.filter_workers = true;
  return config;
}

const MaterializedPin kMaterializedPins[] = {
    {"random", [] { return WithAlgorithm(hitgen::ClusterAlgorithm::kRandom); }, 96, 288,
     7.2000000000000002, 1, 0xcb8ee98f5932e154ULL, 0x7c3ee63233019b2bULL},
    {"bfs", [] { return WithAlgorithm(hitgen::ClusterAlgorithm::kBfs); }, 53, 159,
     3.9750000000000001, 1, 0xe6e9efc336902e54ULL, 0x4b6f799e9ac49908ULL},
    {"dfs", [] { return WithAlgorithm(hitgen::ClusterAlgorithm::kDfs); }, 56, 168,
     4.2000000000000002, 1, 0xca92f163cdd8471aULL, 0x223b42386ff65ca5ULL},
    {"approximation", [] { return WithAlgorithm(hitgen::ClusterAlgorithm::kApproximation); },
     89, 267, 6.6750000000000007, 1, 0xffd461a13f1a818eULL, 0xf027f3854fc70e86ULL},
    {"blocking-verify", [] { return WithStrategy(CandidateStrategy::kBlockingVerify); }, 46,
     138, 3.4500000000000002, 1, 0xdea610ce43ba6623ULL, 0xffbcc343b4a112eaULL},
    {"sorted-neighborhood-verify",
     [] { return WithStrategy(CandidateStrategy::kSortedNeighborhoodVerify); }, 29, 87,
     2.1750000000000003, 1, 0x23eb1366dd5033c0ULL, 0x641c5de3525cc678ULL},
    {"pair-majority", PairMajorityConfig, 34, 102, 2.5500000000000003, 1,
     0xd5a1cbaea2a4ac0fULL, 0x25382610418cb346ULL},
    {"filtered-adaptive", FilteredAdaptiveConfig, 238, 714, 17.850000000000001, 29,
     0x90337cd07a4e2e42ULL, 0x874a54fada9a5c64ULL},
};

TEST(GoldenWorkflowTest, MaterializedOnlyConfigurationsArePinned) {
  const data::Dataset dataset = SmallRestaurant();
  for (const MaterializedPin& pin : kMaterializedPins) {
    auto result = HybridWorkflow(pin.config()).Run(dataset);
    ASSERT_TRUE(result.ok()) << pin.name << ": " << result.status().ToString();
    EXPECT_EQ(result->crowd_stats.num_hits, pin.num_hits) << pin.name;
    EXPECT_EQ(result->crowd_stats.num_assignments, pin.num_assignments) << pin.name;
    EXPECT_EQ(result->crowd_stats.cost_dollars, pin.cost_dollars)
        << pin.name << std::setprecision(17) << " cost " << result->crowd_stats.cost_dollars;
    EXPECT_EQ(result->crowd_rounds.size(), pin.crowd_rounds) << pin.name;
    EXPECT_EQ(RankedDigest(*result), pin.ranked_digest)
        << pin.name << std::hex << " ranked 0x" << RankedDigest(*result);
    EXPECT_EQ(VotesDigest(*result), pin.votes_digest)
        << pin.name << std::hex << " votes 0x" << VotesDigest(*result);
    EXPECT_EQ(result->crowd_stats.votes.size(), result->num_candidate_pairs) << pin.name;
    EXPECT_EQ(result->candidate_pairs.size(), result->num_candidate_pairs) << pin.name;
  }
}

// `config` as kStreaming with a 1 KiB budget, 16-pair partitions and
// 8-record blocks: the candidate stream, the vote shards and (cluster HITs)
// the bucket store all spill on SmallRestaurant.
WorkflowConfig ForcedSpill(WorkflowConfig config) {
  config.execution_mode = ExecutionMode::kStreaming;
  config.memory_budget_bytes = 1024;
  config.crowd_partition_pairs = 16;
  config.stream_block_records = 8;
  return config;
}

TEST(GoldenWorkflowTest, MaterializedPinsHoldUnderForcedSpill) {
  // Every strategy and cluster generator runs under a budget and reproduces
  // its pin. filtered-adaptive is left out: adaptive selection reorders
  // within a partition by design, so its bytes depend on the partitioning.
  const data::Dataset dataset = SmallRestaurant();
  for (const MaterializedPin& pin : kMaterializedPins) {
    if (std::string(pin.name) == "filtered-adaptive") continue;
    const WorkflowConfig config = ForcedSpill(pin.config());
    auto result = HybridWorkflow(config).Run(dataset);
    ASSERT_TRUE(result.ok()) << pin.name << ": " << result.status().ToString();
    EXPECT_EQ(result->crowd_stats.num_hits, pin.num_hits) << pin.name;
    EXPECT_EQ(result->crowd_stats.num_assignments, pin.num_assignments) << pin.name;
    EXPECT_EQ(result->crowd_stats.cost_dollars, pin.cost_dollars) << pin.name;
    EXPECT_EQ(RankedDigest(*result), pin.ranked_digest)
        << pin.name << std::hex << " ranked 0x" << RankedDigest(*result);
    EXPECT_GT(result->pipeline_stats.spilled_bytes, 0u) << pin.name;
    EXPECT_GT(result->pipeline_stats.vote_spilled_bytes, 0u) << pin.name;
    if (config.hit_type == HitType::kClusterBased) {
      // Pair HITs are packed per partition straight from the stream; only
      // cluster HITs have a bucket store to spill.
      EXPECT_GT(result->pipeline_stats.boundary_spilled_bytes, 0u) << pin.name;
    }
    EXPECT_GT(result->pipeline_stats.crowd_partitions, 1u) << pin.name;
    EXPECT_TRUE(result->candidate_pairs.empty()) << pin.name;
    EXPECT_TRUE(result->crowd_stats.votes.empty()) << pin.name;
  }

  // Two cross combinations without a pin of their own match their own
  // kMaterialized run instead.
  WorkflowConfig blocking_pairs = WithStrategy(CandidateStrategy::kBlockingVerify);
  blocking_pairs.hit_type = HitType::kPairBased;
  WorkflowConfig neighborhood_bfs = WithStrategy(CandidateStrategy::kSortedNeighborhoodVerify);
  neighborhood_bfs.cluster_algorithm = hitgen::ClusterAlgorithm::kBfs;
  for (const WorkflowConfig& base : {blocking_pairs, neighborhood_bfs}) {
    auto materialized = HybridWorkflow(base).Run(dataset);
    auto streaming = HybridWorkflow(ForcedSpill(base)).Run(dataset);
    ASSERT_TRUE(materialized.ok() && streaming.ok());
    EXPECT_EQ(streaming->crowd_stats.num_hits, materialized->crowd_stats.num_hits);
    EXPECT_EQ(streaming->crowd_stats.num_assignments,
              materialized->crowd_stats.num_assignments);
    EXPECT_EQ(streaming->crowd_stats.cost_dollars, materialized->crowd_stats.cost_dollars);
    EXPECT_EQ(RankedDigest(*streaming), RankedDigest(*materialized));
    EXPECT_GT(streaming->pipeline_stats.spilled_bytes, 0u);
    EXPECT_GT(streaming->pipeline_stats.crowd_partitions, 1u);
  }
}

TEST(GoldenWorkflowTest, MaterializedIgnoresStreamingOnlySettings) {
  // memory_budget_bytes, crowd_partition_pairs and stream_block_records are
  // kStreaming-only: a kMaterialized run resolves them to "unbounded, one
  // partition, default", so setting them changes no byte and spills nothing.
  const data::Dataset dataset = SmallRestaurant();
  auto baseline = HybridWorkflow(GoldenConfig()).Run(dataset);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  WorkflowConfig config = GoldenConfig();
  config.memory_budget_bytes = 1024;
  config.crowd_partition_pairs = 16;
  config.stream_block_records = 8;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pipeline_stats.spilled_bytes, 0u);
  EXPECT_EQ(result->pipeline_stats.vote_spilled_bytes, 0u);
  EXPECT_EQ(result->pipeline_stats.boundary_spilled_bytes, 0u);
  EXPECT_EQ(result->crowd_rounds.size(), 1u);

  ASSERT_EQ(result->candidate_pairs.size(), baseline->candidate_pairs.size());
  for (size_t i = 0; i < baseline->candidate_pairs.size(); ++i) {
    EXPECT_EQ(result->candidate_pairs[i].a, baseline->candidate_pairs[i].a);
    EXPECT_EQ(result->candidate_pairs[i].b, baseline->candidate_pairs[i].b);
    EXPECT_EQ(result->candidate_pairs[i].score, baseline->candidate_pairs[i].score);
  }
  EXPECT_EQ(RankedDigest(*result), RankedDigest(*baseline));
  EXPECT_EQ(VotesDigest(*result), VotesDigest(*baseline));
  EXPECT_EQ(result->crowd_stats.num_hits, baseline->crowd_stats.num_hits);
  EXPECT_EQ(result->crowd_stats.num_assignments, baseline->crowd_stats.num_assignments);
  EXPECT_EQ(result->crowd_stats.cost_dollars, baseline->crowd_stats.cost_dollars);
  EXPECT_EQ(result->crowd_stats.total_seconds, baseline->crowd_stats.total_seconds);
}

TEST(GoldenWorkflowTest, RerunIsBitwiseIdentical) {
  // Same config + same dataset must reproduce the identical ranked list —
  // the determinism contract the golden values above rely on.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow workflow(GoldenConfig());
  auto first = workflow.Run(dataset);
  auto second = workflow.Run(dataset);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->ranked.size(), second->ranked.size());
  for (size_t i = 0; i < first->ranked.size(); ++i) {
    EXPECT_EQ(first->ranked[i].a, second->ranked[i].a);
    EXPECT_EQ(first->ranked[i].b, second->ranked[i].b);
    EXPECT_EQ(first->ranked[i].score, second->ranked[i].score);
  }
  EXPECT_EQ(first->crowd_stats.num_hits, second->crowd_stats.num_hits);
  EXPECT_EQ(first->crowd_stats.cost_dollars, second->crowd_stats.cost_dollars);
}

}  // namespace
}  // namespace core
}  // namespace crowder

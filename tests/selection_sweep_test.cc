// The adaptive-vs-fixed selection sweep (tier2; the tentpole's acceptance
// pins): with the kInferenceOrdered policy,
//   * pairs are actually inferred (pairs_inferred > 0) and crowd cost (HITs
//     and assignments issued) is strictly below the fixed-order baseline at
//     equal-or-better F1;
//   * materialized and streaming runs under a forced spill budget produce
//     bitwise-identical ranked lists and final entity partitions; and
//   * the hostile-pool sweep from adversarial_sweep_test.cc passes through
//     the adaptive policy too (filter + revision + repair + retraction).
//
// The cross-mode identity uses a *perfect* crowd (every worker reliable,
// zero base error, zero hardness): every vote is then the ground truth, so
// with majority aggregation every pair's probability is exactly 1.0 / 0.0 —
// whether the pair was asked or inferred, and regardless of how the two
// modes partition, batch, or order the questions. The ranked score
// (probability + 1e-7 * machine likelihood, deterministically tie-broken)
// is therefore identical pair-for-pair across modes, even though the modes
// ask different question subsets.
#include <gtest/gtest.h>

#include <utility>

#include "core/resolution.h"
#include "core/workflow.h"
#include "data/generators.h"
#include "eval/metrics.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SweepDataset() {
  data::RestaurantConfig config;
  config.num_records = 400;
  config.num_duplicate_pairs = 80;
  config.num_chains = 8;
  config.seed = 13;
  return data::GenerateRestaurant(config).ValueOrDie();
}

WorkflowConfig SweepConfig() {
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.hit_type = HitType::kPairBased;
  config.pairs_per_hit = 10;
  config.aggregation = AggregationMethod::kMajorityVote;
  config.seed = 42;
  return config;
}

// Every worker reliable and error-free: every vote equals the ground truth.
void MakePerfect(crowd::CrowdModel* crowd) {
  crowd->reliable_fraction = 1.0;
  crowd->noisy_fraction = 0.0;
  crowd->reliable_base_error = 0.0;
  crowd->hard_pair_gain = 0.0;
}

// 36% of the pool is hostile (the adversarial_sweep_test mix).
void MakeHostile(crowd::CrowdModel* crowd) {
  crowd->reliable_fraction = 0.46;
  crowd->noisy_fraction = 0.18;
  crowd->colluder_fraction = 0.13;
  crowd->sleeper_fraction = 0.08;
}

WorkflowResult RunWorkflow(const WorkflowConfig& config, const data::Dataset& dataset) {
  auto result = HybridWorkflow(config).Run(dataset);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : WorkflowResult{};
}

TEST(SelectionSweepTest, AdaptiveReducesCrowdCostAtEqualOrBetterF1) {
  const auto dataset = SweepDataset();

  WorkflowConfig fixed = SweepConfig();
  const WorkflowResult fixed_result = RunWorkflow(fixed, dataset);
  const double fixed_f1 = eval::BestF1(fixed_result.pr_curve);
  ASSERT_GT(fixed_f1, 0.5) << "fixed baseline must be meaningful";
  EXPECT_EQ(fixed_result.pairs_inferred, 0u);
  EXPECT_EQ(fixed_result.crowd_pairs_asked, fixed_result.num_candidate_pairs);

  WorkflowConfig adaptive = SweepConfig();
  adaptive.question_policy = QuestionPolicyKind::kInferenceOrdered;
  const WorkflowResult adaptive_result = RunWorkflow(adaptive, dataset);
  const double adaptive_f1 = eval::BestF1(adaptive_result.pr_curve);

  // The savings are real: pairs were inferred instead of crowdsourced, so
  // strictly fewer pairs, HITs, and assignments reached the crowd.
  EXPECT_GT(adaptive_result.pairs_inferred, 0u);
  EXPECT_EQ(adaptive_result.crowd_pairs_asked + adaptive_result.pairs_inferred,
            adaptive_result.num_candidate_pairs);
  EXPECT_LT(adaptive_result.crowd_pairs_asked, fixed_result.crowd_pairs_asked);
  EXPECT_LT(adaptive_result.crowd_stats.num_hits, fixed_result.crowd_stats.num_hits);
  EXPECT_LT(adaptive_result.crowd_stats.num_assignments,
            fixed_result.crowd_stats.num_assignments);

  // ... at equal or better F1.
  EXPECT_GE(adaptive_f1, fixed_f1 - 1e-9)
      << "adaptive " << adaptive_f1 << " vs fixed " << fixed_f1;

  // The per-round savings roll up to the run total.
  uint64_t per_round = 0;
  for (const auto& round : adaptive_result.crowd_rounds) per_round += round.pairs_inferred;
  EXPECT_LE(per_round, adaptive_result.pairs_inferred);
  EXPECT_GT(per_round, 0u);
}

TEST(SelectionSweepTest, StreamingMatchesMaterializedBitwiseUnderSpillBudget) {
  const auto dataset = SweepDataset();

  WorkflowConfig base = SweepConfig();
  base.question_policy = QuestionPolicyKind::kInferenceOrdered;
  MakePerfect(&base.crowd);

  const WorkflowResult materialized = RunWorkflow(base, dataset);
  EXPECT_GT(materialized.pairs_inferred, 0u);

  WorkflowConfig streaming_config = base;
  streaming_config.execution_mode = ExecutionMode::kStreaming;
  streaming_config.memory_budget_bytes = 4 * 1024;  // forced spill
  streaming_config.crowd_partition_pairs = 64;      // many resident partitions
  const WorkflowResult streaming = RunWorkflow(streaming_config, dataset);
  EXPECT_GT(streaming.pairs_inferred, 0u);
  EXPECT_GT(streaming.pipeline_stats.vote_spilled_bytes, 0u)
      << "the spill budget must actually bite";

  // Bitwise-identical ranked lists, despite different asked/inferred splits
  // (the streaming side can only reorder within the resident partition).
  ASSERT_EQ(streaming.ranked.size(), materialized.ranked.size());
  for (size_t i = 0; i < materialized.ranked.size(); ++i) {
    EXPECT_EQ(streaming.ranked[i].a, materialized.ranked[i].a) << "rank " << i;
    EXPECT_EQ(streaming.ranked[i].b, materialized.ranked[i].b) << "rank " << i;
    EXPECT_EQ(streaming.ranked[i].score, materialized.ranked[i].score) << "rank " << i;
  }

  // ... and bitwise-identical final entity partitions.
  ResolutionOptions closure;
  closure.transitive_closure = true;
  const uint32_t n = static_cast<uint32_t>(dataset.table.num_records());
  const auto materialized_clusters =
      ResolveEntities(n, materialized.ranked, closure).ValueOrDie();
  const auto streaming_clusters = ResolveEntities(n, streaming.ranked, closure).ValueOrDie();
  EXPECT_EQ(streaming_clusters.cluster_of, materialized_clusters.cluster_of);
}

TEST(SelectionSweepTest, HostilePoolSweepPassesThroughAdaptivePolicy) {
  const auto dataset = SweepDataset();
  const double clean_f1 = eval::BestF1(RunWorkflow(SweepConfig(), dataset).pr_curve);

  WorkflowConfig defended = SweepConfig();
  defended.question_policy = QuestionPolicyKind::kInferenceOrdered;
  MakeHostile(&defended.crowd);
  defended.async_crowd = true;
  defended.filter_workers = true;

  const WorkflowResult result = RunWorkflow(defended, dataset);
  const double defended_f1 = eval::BestF1(result.pr_curve);
  EXPECT_GE(defended_f1, 0.9 * clean_f1)
      << "adaptive defended " << defended_f1 << " vs clean " << clean_f1;
  EXPECT_GE(result.filtered_workers.size(), 20u);
  EXPECT_GT(result.crowd_rounds.size(), 1u);
  // Inference still pays off under fire.
  EXPECT_GT(result.pairs_inferred, 0u);
  EXPECT_LT(result.crowd_pairs_asked, result.num_candidate_pairs);
}

TEST(SelectionSweepTest, HostileClusterHitSweepReasksWithClusterHits) {
  // The cluster-HIT twin of the sweep above. A crowd session carries one HIT
  // interface from its first HIT on, so when a ban retracts an inference the
  // re-ask must go out as cluster HITs too; posting pair HITs into a
  // cluster-HIT session fails the run. Both execution modes, the streaming
  // one with its vote shards spilled.
  const auto dataset = SweepDataset();
  WorkflowConfig clean = SweepConfig();
  clean.hit_type = HitType::kClusterBased;
  clean.cluster_size = 5;
  const double clean_f1 = eval::BestF1(RunWorkflow(clean, dataset).pr_curve);

  WorkflowConfig defended = clean;
  defended.question_policy = QuestionPolicyKind::kInferenceOrdered;
  MakeHostile(&defended.crowd);
  defended.async_crowd = true;
  defended.filter_workers = true;

  WorkflowConfig streaming = defended;
  streaming.execution_mode = ExecutionMode::kStreaming;
  streaming.memory_budget_bytes = 4 * 1024;  // forced spill
  streaming.crowd_partition_pairs = 256;

  for (const WorkflowConfig& config : {defended, streaming}) {
    const bool is_streaming = config.execution_mode == ExecutionMode::kStreaming;
    SCOPED_TRACE(is_streaming ? "streaming" : "materialized");
    const WorkflowResult result = RunWorkflow(config, dataset);
    uint64_t reasked = 0;
    for (const auto& round : result.crowd_rounds) reasked += round.pairs_reasked;
    EXPECT_GT(reasked, 0u) << "a ban must retract an inference and post its re-ask";
    EXPECT_GE(eval::BestF1(result.pr_curve), 0.9 * clean_f1);
    EXPECT_FALSE(result.filtered_workers.empty());
    EXPECT_GT(result.pairs_inferred, 0u);
    EXPECT_EQ(result.crowd_pairs_asked + result.pairs_inferred, result.num_candidate_pairs);
    if (is_streaming) {
      EXPECT_GT(result.pipeline_stats.vote_spilled_bytes, 0u);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace crowder

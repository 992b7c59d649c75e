// Tests for answer aggregation: majority vote and Dawid-Skene EM, including
// the property that the sharded (partition-aware) implementations are
// equivalent to the materialized ones at any partitioning.
#include <gtest/gtest.h>

#include "aggregate/dawid_skene.h"
#include "aggregate/majority_vote.h"
#include "aggregate/partitioned.h"
#include "common/rng.h"

namespace crowder {
namespace aggregate {
namespace {

TEST(MajorityVoteTest, FractionOfYes) {
  VoteTable votes{{{0, true}, {1, true}, {2, false}}, {{0, false}, {1, false}, {2, false}}};
  const auto p = MajorityVote(votes);
  EXPECT_NEAR(p[0], 2.0 / 3.0, 1e-12);
  EXPECT_EQ(p[1], 0.0);
}

TEST(MajorityVoteTest, EmptyVotesAreZero) {
  VoteTable votes{{}, {{0, true}}};
  const auto p = MajorityVote(votes);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[1], 1.0);
}

TEST(DawidSkeneTest, UnanimousVotesConverge) {
  VoteTable votes;
  for (int i = 0; i < 6; ++i) {
    votes.push_back({{0, i < 3}, {1, i < 3}, {2, i < 3}});
  }
  auto r = RunDawidSkene(votes);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  for (int i = 0; i < 3; ++i) EXPECT_GT(r->match_probability[i], 0.9);
  for (int i = 3; i < 6; ++i) EXPECT_LT(r->match_probability[i], 0.1);
}

TEST(DawidSkeneTest, EmptyTable) {
  auto r = RunDawidSkene({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_TRUE(r->match_probability.empty());
}

TEST(DawidSkeneTest, PairsWithoutVotesStayZero) {
  VoteTable votes{{}, {{0, true}, {1, true}}};
  auto r = RunDawidSkene(votes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->match_probability[0], 0.0);
  EXPECT_GT(r->match_probability[1], 0.5);
}

TEST(DawidSkeneTest, InvalidOptionsRejected) {
  DawidSkeneOptions bad;
  bad.max_iterations = 0;
  EXPECT_FALSE(RunDawidSkene({{{0, true}}}, bad).ok());
  DawidSkeneOptions bad2;
  bad2.smoothing = -1.0;
  EXPECT_FALSE(RunDawidSkene({{{0, true}}}, bad2).ok());
  DawidSkeneOptions bad3;
  bad3.prior_correct = 0.0;
  EXPECT_FALSE(RunDawidSkene({{{0, true}}}, bad3).ok());
}

// The paper adopts EM over simple averaging because it is robust to
// spammers. Synthetic reproduction: 2 reliable workers + 3 aligned spammers
// whose votes are random-but-shared noise. Majority vote is dominated by
// spam; EM should recover by learning worker quality.
TEST(DawidSkeneTest, BeatsMajorityVoteUnderSpam) {
  Rng rng(1234);
  const int num_pairs = 300;
  VoteTable votes(num_pairs);
  std::vector<bool> truth(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    truth[i] = rng.Bernoulli(0.4);
    // Two honest workers (5% error), ids 0 and 1.
    for (uint32_t w = 0; w < 2; ++w) {
      const bool err = rng.Bernoulli(0.05);
      votes[i].push_back({w, err ? !truth[i] : truth[i]});
    }
    // Three spammers (ids 2..4) answering random coin flips.
    for (uint32_t w = 2; w < 5; ++w) {
      votes[i].push_back({w, rng.Bernoulli(0.5)});
    }
  }

  const auto mv = MajorityVote(votes);
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());

  int mv_correct = 0;
  int ds_correct = 0;
  for (int i = 0; i < num_pairs; ++i) {
    mv_correct += ((mv[i] >= 0.5) == truth[i]);
    ds_correct += ((ds->match_probability[i] >= 0.5) == truth[i]);
  }
  EXPECT_GT(ds_correct, mv_correct);
  EXPECT_GT(ds_correct, num_pairs * 0.93);
}

TEST(DawidSkeneTest, LearnsWorkerQuality) {
  Rng rng(77);
  const int num_pairs = 400;
  VoteTable votes(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    const bool truth = rng.Bernoulli(0.5);
    votes[i].push_back({0, rng.Bernoulli(0.02) ? !truth : truth});  // good worker
    votes[i].push_back({1, rng.Bernoulli(0.30) ? !truth : truth});  // sloppy worker
    votes[i].push_back({2, rng.Bernoulli(0.5)});                    // spammer
  }
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  const auto& w0 = ds->workers.at(0);
  const auto& w1 = ds->workers.at(1);
  const auto& w2 = ds->workers.at(2);
  EXPECT_GT(w0.sensitivity, w1.sensitivity);
  EXPECT_GT(w0.specificity, w1.specificity);
  // Spammer quality hovers near chance.
  EXPECT_NEAR(w2.sensitivity, 0.5, 0.12);
  EXPECT_NEAR(w2.specificity, 0.5, 0.12);
  EXPECT_EQ(w0.num_votes, static_cast<uint32_t>(num_pairs));
}

TEST(DawidSkeneTest, ClassPriorTracksBaseRate) {
  Rng rng(5);
  const int num_pairs = 500;
  VoteTable votes(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    const bool truth = i < num_pairs / 5;  // 20% matches
    for (uint32_t w = 0; w < 3; ++w) {
      votes[i].push_back({w, rng.Bernoulli(0.05) ? !truth : truth});
    }
  }
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_NEAR(ds->class_prior, 0.2, 0.05);
}

TEST(DawidSkeneTest, NoLabelFlipOnTinyCleanInput) {
  // Regression test for the degenerate flipped fixed point: a tiny vote
  // table with near-perfect workers must keep unanimous "no" pairs near 0.
  VoteTable votes{
      {{0, true}, {1, true}, {2, true}},    // match
      {{0, false}, {1, false}, {2, false}}, // non-match
      {{3, false}, {4, false}, {5, false}}, // non-match
      {{3, true}, {4, true}, {5, true}},    // match
  };
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(ds->match_probability[0], 0.5);
  EXPECT_LT(ds->match_probability[1], 0.5);
  EXPECT_LT(ds->match_probability[2], 0.5);
  EXPECT_GT(ds->match_probability[3], 0.5);
}

TEST(DawidSkeneTest, DisagreementYieldsIntermediateProbability) {
  VoteTable votes{{{0, true}, {1, false}}};
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(ds->match_probability[0], 0.05);
  EXPECT_LT(ds->match_probability[0], 0.95);
}

// ---------------------------------------------------------------------------
// Partitioned aggregation: sharded == materialized, at any partitioning.
// ---------------------------------------------------------------------------

// A random vote table: `num_pairs` pairs, a random subset voteless, votes
// from a small worker pool with mixed reliability.
VoteTable RandomVoteTable(Rng* rng, size_t num_pairs) {
  VoteTable votes(num_pairs);
  for (auto& pair_votes : votes) {
    if (rng->Bernoulli(0.15)) continue;  // voteless pair
    const uint64_t count = 1 + rng->Uniform(5);
    for (uint64_t v = 0; v < count; ++v) {
      pair_votes.push_back(
          {static_cast<uint32_t>(rng->Uniform(10)), rng->Bernoulli(0.55)});
    }
  }
  return votes;
}

// A random partition of [0, total) into consecutive shard sizes (empty
// shards included on purpose — a partition may legitimately be voteless or
// pairless).
std::vector<size_t> RandomShardSizes(Rng* rng, size_t total) {
  std::vector<size_t> sizes;
  size_t assigned = 0;
  while (assigned < total) {
    const size_t size = std::min<size_t>(total - assigned, rng->Uniform(40));
    sizes.push_back(size);
    assigned += size;
  }
  if (sizes.empty() || rng->Bernoulli(0.3)) sizes.push_back(0);
  return sizes;
}

// The satellite property, strengthened: majority vote read through shard
// views (MajorityMatchProbability per lent pair, as the workflow's ranked
// walk reads it) is bitwise the materialized MajorityVote, and the sharded
// Dawid-Skene *fit* is bitwise the materialized fit (not merely within EM
// tolerance) — the shards tile the pair order, so every floating-point
// accumulation happens in the same order.
TEST(PartitionedAggregationTest, ShardedEqualsMaterializedAtAnyPartitioning) {
  Rng rng(20260731);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_pairs = rng.Uniform(120);
    const VoteTable votes = RandomVoteTable(&rng, num_pairs);
    const auto mv = MajorityVote(votes);
    const auto ds = RunDawidSkene(votes).ValueOrDie();

    for (int split = 0; split < 3; ++split) {
      const std::vector<size_t> sizes = RandomShardSizes(&rng, num_pairs);
      InMemoryVoteShards shards(&votes, sizes);

      // Majority vote: bitwise per lent pair.
      size_t start = 0;
      for (size_t shard = 0; shard < shards.num_shards(); ++shard) {
        const Status mv_status = shards.WithShard(shard, [&](const VoteShardView& view) {
          for (size_t i = 0; i < view.size(); ++i) {
            EXPECT_EQ(MajorityMatchProbability(view[i]), mv[start + i])
                << "trial " << trial << " shard " << shard << " pair " << i;
          }
          start += view.size();
          return Status::OK();
        });
        ASSERT_TRUE(mv_status.ok());
      }
      EXPECT_EQ(start, num_pairs);

      // Dawid-Skene: the fitted model and every posterior, bitwise.
      InMemoryVoteShards refit_shards(&votes, sizes);
      auto fit = FitDawidSkeneSharded(&refit_shards);
      ASSERT_TRUE(fit.ok());
      const DawidSkeneModel& model = *fit;
      EXPECT_EQ(model.class_prior, ds.class_prior) << "trial " << trial;
      EXPECT_EQ(model.iterations, ds.iterations) << "trial " << trial;
      EXPECT_EQ(model.converged, ds.converged) << "trial " << trial;
      ASSERT_EQ(model.workers.size(), ds.workers.size());
      for (const auto& [id, w] : model.workers) {
        const auto& expected = ds.workers.at(id);
        EXPECT_EQ(w.sensitivity, expected.sensitivity) << "worker " << id;
        EXPECT_EQ(w.specificity, expected.specificity) << "worker " << id;
        EXPECT_EQ(w.num_votes, expected.num_votes) << "worker " << id;
      }
      for (size_t i = 0; i < votes.size(); ++i) {
        EXPECT_EQ(PosteriorMatchProbability(votes[i], model), ds.match_probability[i])
            << "trial " << trial << " pair " << i;
      }
    }
  }
}

TEST(PartitionedAggregationTest, VotelessPairsGetTheUnjudgedProbability) {
  // The one documented policy point (votes.h): never asked means never
  // confirmed, in every aggregator.
  VoteTable votes{{}, {{0, true}}};
  EXPECT_EQ(MajorityVote(votes)[0], kUnjudgedMatchProbability);
  const auto ds = RunDawidSkene(votes).ValueOrDie();
  EXPECT_EQ(ds.match_probability[0], kUnjudgedMatchProbability);
  EXPECT_EQ(MajorityMatchProbability({}), kUnjudgedMatchProbability);
}

TEST(PartitionedAggregationTest, ShardedValidatesOptions) {
  VoteTable votes{{{0, true}}};
  InMemoryVoteShards shards(&votes, {1});
  DawidSkeneOptions bad;
  bad.max_iterations = 0;
  EXPECT_FALSE(FitDawidSkeneSharded(&shards, bad).ok());
}

}  // namespace
}  // namespace aggregate
}  // namespace crowder

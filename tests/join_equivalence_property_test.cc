// Randomized property sweep enforcing the exact-equivalence contract of
// similarity_join.h and parallel_join.h: NaiveJoin, AllPairsJoin, token
// blocking + verification (the kBlockingVerify candidate strategy), and the
// parallel/blocked joins must produce identical pair sets over arbitrary
// inputs.
//
//   * NaiveJoin ≡ AllPairsJoin — always (same pairs, same scores).
//   * NaiveJoin ≡ TokenBlocking(max_block_size=0) + VerifyCandidates — for
//     every overlap measure at a positive threshold, since any qualifying
//     pair shares at least one token and therefore co-occurs in a block.
//   * NaiveJoin ≡ ParallelAllPairsJoin ≡ BlockedAllPairsJoin — at every
//     thread count, chunk size, and block size (the parallel dimension of
//     the sweep rotates through {1, 2, 4, 7} threads and tiny-to-large
//     chunks/blocks so scheduling churn can never leak into the output).
//   * The JoinStats work counters are identical at every such split.
//
// Unlike the curated cases in similarity_join_test.cc, every dimension here
// is drawn at random from a master seed: input size, vocabulary size, token
// distribution, record length (including empty sets), self- vs cross-source
// joins, all four set measures, and thresholds across [0, 1]. This is the
// sweep that caught NaiveJoin emitting empty-empty pairs at positive
// thresholds (fixed; see CHANGES.md). A few curated cases at the end aim at
// the probe kernel's own edges: source labels that are many-valued,
// negative and non-dense (the source-grouped prefix index), and last
// matches on the last token of a span (suffix-only verification).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "similarity/blocking.h"
#include "similarity/parallel_join.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {
namespace {

struct RandomCase {
  uint64_t seed = 0;
  size_t n = 0;
  uint32_t vocab = 0;
  size_t max_len = 0;
  bool allow_empty_sets = false;
  bool two_sources = false;
  SetMeasure measure = SetMeasure::kJaccard;
  double threshold = 0.0;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " n=" << n << " vocab=" << vocab << " max_len=" << max_len
       << " empty=" << allow_empty_sets << " two_sources=" << two_sources
       << " measure=" << static_cast<int>(measure) << " threshold=" << threshold;
    return os.str();
  }
};

RandomCase DrawCase(Rng* rng) {
  static const SetMeasure kMeasures[] = {SetMeasure::kJaccard, SetMeasure::kDice,
                                         SetMeasure::kCosine, SetMeasure::kOverlapCoefficient};
  static const double kThresholds[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                       0.9, 0.95, 1.0};
  RandomCase c;
  c.seed = rng->Next64();
  c.n = 8 + rng->Uniform(96);
  c.vocab = 4 + static_cast<uint32_t>(rng->Uniform(120));
  c.max_len = 1 + rng->Uniform(12);
  c.allow_empty_sets = rng->Uniform(4) == 0;
  c.two_sources = rng->Uniform(2) == 0;
  c.measure = kMeasures[rng->Uniform(4)];
  c.threshold = kThresholds[rng->Uniform(sizeof(kThresholds) / sizeof(kThresholds[0]))];
  return c;
}

JoinInput GenerateInput(const RandomCase& c) {
  Rng rng(c.seed);
  JoinInput input;
  input.sets.reserve(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    std::vector<text::TokenId> tokens;
    const size_t min_len = c.allow_empty_sets ? 0 : 1;
    const size_t len = min_len + rng.Uniform(c.max_len + 1 - min_len);
    for (size_t t = 0; t < len; ++t) {
      // Zipf-ish token frequencies, as in real text.
      tokens.push_back(static_cast<text::TokenId>(rng.Zipf(c.vocab, 0.9)));
    }
    input.sets.push_back(MakeTokenSet(std::move(tokens)));
    if (c.two_sources) input.sources.push_back(static_cast<int>(rng.Uniform(2)));
  }
  return input;
}

void ExpectSamePairs(const std::vector<ScoredPair>& expected,
                     const std::vector<ScoredPair>& actual, bool compare_scores,
                     const std::string& what, const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << what << " pair count diverged; " << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].a, actual[i].a) << what << " pair " << i << "; " << context;
    ASSERT_EQ(expected[i].b, actual[i].b) << what << " pair " << i << "; " << context;
    if (compare_scores) {
      ASSERT_NEAR(expected[i].score, actual[i].score, 1e-12)
          << what << " score of (" << expected[i].a << "," << expected[i].b << "); " << context;
    }
  }
}

// Blocking + verification with all blocks kept, as kBlockingVerify configures
// it in core/workflow.cc.
Result<std::vector<ScoredPair>> BlockingVerify(const JoinInput& input,
                                               const JoinOptions& options) {
  BlockingOptions blocking;
  blocking.max_block_size = 0;
  CROWDER_ASSIGN_OR_RETURN(auto candidates, TokenBlocking(input, blocking));
  return VerifyCandidates(input, candidates, options);
}

TEST(JoinEquivalenceProperty, RandomSweep) {
  // One master seed fans out into every random decision, so a failure
  // reproduces from the per-case seed printed in its context string.
  Rng master(20260730);
  constexpr int kCases = 250;
  // The parallel dimension rotates per case: thread counts the issue pins
  // (1 = serial engine path, 2/4 = typical, 7 = odd and oversubscribed on
  // small machines) crossed with chunk/block sizes from degenerate to
  // larger-than-input.
  static const uint32_t kThreads[] = {1, 2, 4, 7};
  static const uint32_t kChunks[] = {1, 3, 16, 1024};
  static const uint32_t kBlocks[] = {1, 5, 32, 4096};
  int blocking_checked = 0;
  for (int i = 0; i < kCases; ++i) {
    const RandomCase c = DrawCase(&master);
    const std::string context = "case " + std::to_string(i) + ": " + c.Describe();
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.measure = c.measure;
    options.threshold = c.threshold;

    auto naive = NaiveJoin(input, options);
    auto all_pairs = AllPairsJoin(input, options);
    ASSERT_TRUE(naive.ok()) << context;
    ASSERT_TRUE(all_pairs.ok()) << context;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSamePairs(*naive, *all_pairs, /*compare_scores=*/true, "AllPairsJoin", context));

    ParallelJoinOptions exec_options;
    exec_options.num_threads = kThreads[i % 4];
    exec_options.chunk_size = kChunks[(i / 4) % 4];
    exec_options.block_records = kBlocks[(i / 16) % 4];
    const std::string par_context = context + " threads=" +
                                    std::to_string(exec_options.num_threads) +
                                    " chunk=" + std::to_string(exec_options.chunk_size) +
                                    " block=" + std::to_string(exec_options.block_records);
    auto parallel = ParallelAllPairsJoin(input, options, exec_options);
    auto blocked_join = BlockedAllPairsJoin(input, options, exec_options);
    ASSERT_TRUE(parallel.ok()) << par_context;
    ASSERT_TRUE(blocked_join.ok()) << par_context;
    ASSERT_NO_FATAL_FAILURE(ExpectSamePairs(*naive, *parallel, /*compare_scores=*/true,
                                            "ParallelAllPairsJoin", par_context));
    ASSERT_NO_FATAL_FAILURE(ExpectSamePairs(*naive, *blocked_join, /*compare_scores=*/true,
                                            "BlockedAllPairsJoin", par_context));

    // Blocking is exact only at positive thresholds (a qualifying pair must
    // share a token); at threshold 0 disjoint pairs qualify without sharing
    // any block, so the equivalence deliberately excludes it.
    if (c.threshold > 0.0) {
      auto blocked = BlockingVerify(input, options);
      ASSERT_TRUE(blocked.ok()) << context;
      ASSERT_NO_FATAL_FAILURE(
          ExpectSamePairs(*naive, *blocked, /*compare_scores=*/true, "BlockingVerify", context));
      ++blocking_checked;
    }
  }
  // The threshold grid draws 0.0 one time in thirteen; the blocking leg of
  // the property must still see substantial coverage.
  EXPECT_GT(blocking_checked, kCases / 2);
}

TEST(JoinEquivalenceProperty, EmptySetsNeverPairAtPositiveThreshold) {
  // Regression for the bug this sweep caught: empty sets score 1.0 under
  // every measure, but must never be emitted at a positive threshold —
  // including by the parallel and blocked joins at several thread counts.
  JoinInput input;
  input.sets = {{}, {}, {}, {0, 1}};
  for (SetMeasure measure : {SetMeasure::kJaccard, SetMeasure::kDice, SetMeasure::kCosine,
                             SetMeasure::kOverlapCoefficient}) {
    JoinOptions options;
    options.measure = measure;
    options.threshold = 0.25;
    auto naive = NaiveJoin(input, options);
    auto all_pairs = AllPairsJoin(input, options);
    auto blocked = BlockingVerify(input, options);
    ASSERT_TRUE(naive.ok() && all_pairs.ok() && blocked.ok());
    EXPECT_TRUE(naive->empty()) << "measure " << static_cast<int>(measure);
    EXPECT_TRUE(all_pairs->empty()) << "measure " << static_cast<int>(measure);
    EXPECT_TRUE(blocked->empty()) << "measure " << static_cast<int>(measure);
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      ParallelJoinOptions exec_options;
      exec_options.num_threads = threads;
      exec_options.chunk_size = 1;
      exec_options.block_records = 2;
      auto parallel = ParallelAllPairsJoin(input, options, exec_options);
      auto blocked_join = BlockedAllPairsJoin(input, options, exec_options);
      ASSERT_TRUE(parallel.ok() && blocked_join.ok());
      EXPECT_TRUE(parallel->empty())
          << "measure " << static_cast<int>(measure) << " threads " << threads;
      EXPECT_TRUE(blocked_join->empty())
          << "measure " << static_cast<int>(measure) << " threads " << threads;
    }
  }
}

TEST(JoinEquivalenceProperty, ParallelJoinsAreByteIdenticalToSerial) {
  // The parallel contract is *byte*-identical output post-SortPairs, not
  // just approximately equal scores: same pairs, bitwise-equal doubles.
  // Exercised on self- and cross-source inputs across the thread grid.
  Rng master(424242);
  for (bool two_sources : {false, true}) {
    RandomCase c = DrawCase(&master);
    c.n = 300;
    c.two_sources = two_sources;
    c.threshold = 0.3;
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.measure = c.measure;
    options.threshold = c.threshold;
    const auto serial = AllPairsJoin(input, options);
    ASSERT_TRUE(serial.ok());
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      for (uint32_t chunk : {1u, 8u, 4096u}) {
        ParallelJoinOptions exec_options;
        exec_options.num_threads = threads;
        exec_options.chunk_size = chunk;
        exec_options.block_records = 64;
        const std::string context = std::string("two_sources=") +
                                    (two_sources ? "1" : "0") + " threads=" +
                                    std::to_string(threads) + " chunk=" + std::to_string(chunk);
        auto parallel = ParallelAllPairsJoin(input, options, exec_options);
        auto blocked = BlockedAllPairsJoin(input, options, exec_options);
        ASSERT_TRUE(parallel.ok() && blocked.ok()) << context;
        for (const auto* variant : {&*parallel, &*blocked}) {
          ASSERT_EQ(serial->size(), variant->size()) << context;
          for (size_t i = 0; i < serial->size(); ++i) {
            ASSERT_EQ((*serial)[i].a, (*variant)[i].a) << context;
            ASSERT_EQ((*serial)[i].b, (*variant)[i].b) << context;
            ASSERT_EQ((*serial)[i].score, (*variant)[i].score) << context;  // bitwise
          }
        }
      }
    }
  }
}

TEST(JoinEquivalenceProperty, BlockedStreamEmitsDisjointBlocksCoveringTheJoin) {
  // The streaming driver's contract: blocks arrive internally sorted, are
  // pairwise disjoint, and their union is exactly the serial join output.
  Rng master(99);
  RandomCase c = DrawCase(&master);
  c.n = 200;
  c.threshold = 0.2;
  const JoinInput input = GenerateInput(c);
  JoinOptions options;
  options.measure = c.measure;
  options.threshold = c.threshold;
  const auto serial = AllPairsJoin(input, options);
  ASSERT_TRUE(serial.ok());

  ParallelJoinOptions exec_options;
  exec_options.num_threads = 4;
  exec_options.chunk_size = 8;
  exec_options.block_records = 16;
  std::vector<ScoredPair> all;
  size_t num_blocks = 0;
  const Status status = BlockedAllPairsJoinStream(
      input, options, exec_options, [&](std::vector<ScoredPair>&& block) {
        ++num_blocks;
        for (size_t i = 1; i < block.size(); ++i) {
          EXPECT_TRUE(block[i - 1].a < block[i].a ||
                      (block[i - 1].a == block[i].a && block[i - 1].b < block[i].b))
              << "block " << num_blocks << " not sorted";
        }
        all.insert(all.end(), block.begin(), block.end());
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(num_blocks, (200 + 15) / 16u);
  SortPairs(&all);
  ASSERT_NO_FATAL_FAILURE(ExpectSamePairs(*serial, all, /*compare_scores=*/true,
                                          "BlockedAllPairsJoinStream", "stream"));
  // Disjointness: after sorting, adjacent duplicates would betray a pair
  // emitted by two blocks.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i - 1].a == all[i].a && all[i - 1].b == all[i].b);
  }
}

TEST(JoinEquivalenceProperty, StreamSinkErrorAbortsJoin) {
  Rng master(5);
  RandomCase c = DrawCase(&master);
  c.n = 64;
  c.threshold = 0.1;
  const JoinInput input = GenerateInput(c);
  JoinOptions options;
  options.threshold = c.threshold;
  ParallelJoinOptions exec_options;
  exec_options.num_threads = 2;
  exec_options.block_records = 8;
  size_t calls = 0;
  const Status status = BlockedAllPairsJoinStream(
      input, options, exec_options, [&calls](std::vector<ScoredPair>&&) {
        ++calls;
        return Status::IOError("sink full");
      });
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(calls, 1u);
}

TEST(JoinEquivalenceProperty, ZeroThresholdStillEquivalentAcrossJoins) {
  // threshold == 0 admits every admissible pair; AllPairsJoin must still
  // agree with the reference even though prefix filtering degenerates.
  Rng master(7);
  for (int i = 0; i < 10; ++i) {
    RandomCase c = DrawCase(&master);
    c.threshold = 0.0;
    const std::string context = c.Describe();
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.measure = c.measure;
    options.threshold = 0.0;
    auto naive = NaiveJoin(input, options);
    auto all_pairs = AllPairsJoin(input, options);
    ASSERT_TRUE(naive.ok() && all_pairs.ok()) << context;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSamePairs(*naive, *all_pairs, /*compare_scores=*/true, "AllPairsJoin", context));
  }
}

// Every join driver (serial, parallel, blocked) against the reference, with
// bitwise scores, for one input and options.
void ExpectAllDriversMatchNaive(const JoinInput& input, const JoinOptions& options,
                                const ParallelJoinOptions& exec_options,
                                const std::string& context) {
  auto naive = NaiveJoin(input, options);
  auto all_pairs = AllPairsJoin(input, options);
  auto parallel = ParallelAllPairsJoin(input, options, exec_options);
  auto blocked = BlockedAllPairsJoin(input, options, exec_options);
  ASSERT_TRUE(naive.ok() && all_pairs.ok() && parallel.ok() && blocked.ok()) << context;
  for (const auto* variant : {&*all_pairs, &*parallel, &*blocked}) {
    ASSERT_EQ(naive->size(), variant->size()) << context;
    for (size_t i = 0; i < naive->size(); ++i) {
      ASSERT_EQ((*naive)[i].a, (*variant)[i].a) << context;
      ASSERT_EQ((*naive)[i].b, (*variant)[i].b) << context;
      ASSERT_EQ((*naive)[i].score, (*variant)[i].score) << context;  // bitwise
    }
  }
}

TEST(JoinEquivalenceProperty, ManyNegativeNonDenseSourceLabels) {
  // The prefix index groups each token's postings by source label, and a
  // probe skips its own label's group. Labels here take four values, two
  // negative, none adjacent, drawn in no particular order — every grouping
  // boundary the index can have.
  static const int kLabels[] = {-7, 1000, 3, -2};
  static const double kThresholds[] = {0.1, 0.3, 0.5, 0.8};
  Rng master(777);
  for (SetMeasure measure : {SetMeasure::kJaccard, SetMeasure::kDice, SetMeasure::kCosine,
                             SetMeasure::kOverlapCoefficient}) {
    for (double threshold : kThresholds) {
      for (uint32_t num_labels : {3u, 4u}) {
        RandomCase c = DrawCase(&master);
        c.n = 150;
        c.vocab = 40;
        c.two_sources = false;
        JoinInput input = GenerateInput(c);
        Rng label_rng(c.seed ^ 0x5eed);
        for (size_t i = 0; i < input.sets.size(); ++i) {
          input.sources.push_back(kLabels[label_rng.Uniform(num_labels)]);
        }
        JoinOptions options;
        options.measure = measure;
        options.threshold = threshold;
        ParallelJoinOptions exec_options;
        exec_options.num_threads = 3;
        exec_options.chunk_size = 5;
        exec_options.block_records = 32;
        const std::string context = c.Describe() + " labels=" + std::to_string(num_labels) +
                                    " measure=" + std::to_string(static_cast<int>(measure)) +
                                    " threshold=" + std::to_string(threshold);
        ASSERT_NO_FATAL_FAILURE(ExpectAllDriversMatchNaive(input, options, exec_options, context));
      }
    }
  }
}

TEST(JoinEquivalenceProperty, WorkCountersAreIndependentOfTheSplit) {
  // pair_verifications, postings_scanned and candidates are functions of
  // (input, options) only: the serial join, every thread count, chunk size
  // and block size must report the same three numbers.
  Rng master(31337);
  for (bool two_sources : {false, true}) {
    RandomCase c = DrawCase(&master);
    c.n = 400;
    c.vocab = 60;
    c.two_sources = two_sources;
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.measure = c.measure;
    options.threshold = 0.3;
    JoinStats serial;
    ASSERT_TRUE(AllPairsJoin(input, options, &serial).ok());
    ASSERT_GT(serial.pair_verifications, 0u) << c.Describe();
    ASSERT_GE(serial.postings_scanned, serial.candidates) << c.Describe();
    ASSERT_GE(serial.candidates, serial.pair_verifications) << c.Describe();
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (uint32_t chunk : {1u, 7u, 256u}) {
        for (uint32_t block : {1u, 16u, 4096u}) {
          ParallelJoinOptions exec_options;
          exec_options.num_threads = threads;
          exec_options.chunk_size = chunk;
          exec_options.block_records = block;
          const std::string context = c.Describe() + " threads=" + std::to_string(threads) +
                                      " chunk=" + std::to_string(chunk) +
                                      " block=" + std::to_string(block);
          JoinStats parallel, blocked;
          ASSERT_TRUE(ParallelAllPairsJoin(input, options, exec_options, &parallel).ok());
          ASSERT_TRUE(BlockedAllPairsJoin(input, options, exec_options, &blocked).ok());
          for (const JoinStats* stats : {&parallel, &blocked}) {
            EXPECT_EQ(stats->pair_verifications, serial.pair_verifications) << context;
            EXPECT_EQ(stats->postings_scanned, serial.postings_scanned) << context;
            EXPECT_EQ(stats->candidates, serial.candidates) << context;
          }
        }
      }
    }
  }
}

TEST(JoinEquivalenceProperty, LastProbeTokenSharedAtTheEndOfTheSpan) {
  // Suffix-only verification intersects what follows the last matched
  // positions. Here every record ends in the same token — the most frequent
  // one, so it ranks last in every span — and the records are short enough
  // that low thresholds probe them whole: the last match sits on the last
  // token of both spans, leaving two empty suffixes (views one past the end
  // of a span, at the arena's end for the largest record). Identical
  // records and records that are a prefix of others cover the rest of the
  // edge: every subset of five tokens, plus the common tail token.
  JoinInput input;
  for (uint32_t mask = 1; mask < 32; ++mask) {
    std::vector<text::TokenId> tokens = {100};
    for (uint32_t bit = 0; bit < 5; ++bit) {
      if (mask & (1u << bit)) tokens.push_back(bit);
    }
    input.sets.push_back(MakeTokenSet(tokens));
    input.sets.push_back(MakeTokenSet(tokens));  // an identical twin
  }
  ParallelJoinOptions exec_options;
  exec_options.num_threads = 2;
  exec_options.chunk_size = 3;
  exec_options.block_records = 8;
  for (SetMeasure measure : {SetMeasure::kJaccard, SetMeasure::kDice, SetMeasure::kCosine,
                             SetMeasure::kOverlapCoefficient}) {
    for (double threshold : {0.05, 0.2, 0.5, 0.75, 1.0}) {
      JoinOptions options;
      options.measure = measure;
      options.threshold = threshold;
      const std::string context = "measure=" + std::to_string(static_cast<int>(measure)) +
                                  " threshold=" + std::to_string(threshold);
      ASSERT_NO_FATAL_FAILURE(ExpectAllDriversMatchNaive(input, options, exec_options, context));
    }
  }
}

}  // namespace
}  // namespace similarity
}  // namespace crowder

// Tests for the cutting-stock solver, including the paper's §5.3 worked
// example and optimality checks against brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "lp/cutting_stock.h"

namespace crowder {
namespace lp {
namespace {

// Independent brute-force min-bins for verification: fills one maximal-ish
// bin at a time over all subsets (sizes expanded into items).
uint32_t BruteForceBins(uint32_t capacity, const std::vector<uint32_t>& demands) {
  std::vector<uint32_t> items;
  for (size_t j = 0; j < demands.size(); ++j) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  if (items.empty()) return 0;
  uint32_t best = static_cast<uint32_t>(items.size());
  std::vector<uint32_t> bins;  // residual capacity per open bin
  std::function<void(size_t)> go = [&](size_t idx) {
    if (bins.size() >= best) return;
    if (idx == items.size()) {
      best = std::min(best, static_cast<uint32_t>(bins.size()));
      return;
    }
    // Symmetry breaking: try distinct residuals only.
    for (size_t b = 0; b < bins.size(); ++b) {
      bool dup = false;
      for (size_t b2 = 0; b2 < b; ++b2) dup |= (bins[b2] == bins[b]);
      if (dup || bins[b] < items[idx]) continue;
      bins[b] -= items[idx];
      go(idx + 1);
      bins[b] += items[idx];
    }
    bins.push_back(capacity - items[idx]);
    go(idx + 1);
    bins.pop_back();
  };
  go(0);
  return best;
}

uint64_t TotalSlots(const CuttingStockResult& r, size_t size_index) {
  uint64_t total = 0;
  for (size_t p = 0; p < r.patterns.size(); ++p) {
    total += static_cast<uint64_t>(r.patterns[p][size_index]) * r.counts[p];
  }
  return total;
}

TEST(CuttingStockTest, PaperExampleSection53) {
  // §5.3: SCCs {4,4,2,2} with k=4: c2=2, c4=2 -> optimal 3 HITs
  // (two [0,0,0,1] bins and one [0,2,0,0] bin).
  std::vector<uint32_t> demands{0, 2, 0, 2};
  auto r = SolveCuttingStock(4, demands);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 3u);
  EXPECT_TRUE(r->proven_optimal);
  EXPECT_GE(TotalSlots(*r, 1), 2u);  // both size-2 SCCs placed
  EXPECT_GE(TotalSlots(*r, 3), 2u);  // both size-4 SCCs placed
}

TEST(CuttingStockTest, EmptyDemands) {
  auto r = SolveCuttingStock(10, {0, 0, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 0u);
  EXPECT_TRUE(r->proven_optimal);
}

TEST(CuttingStockTest, OversizedDemandRejected) {
  auto r = SolveCuttingStock(3, {0, 0, 0, 1});  // size 4 > capacity 3
  EXPECT_FALSE(r.ok());
}

TEST(CuttingStockTest, ZeroCapacityRejected) {
  EXPECT_FALSE(SolveCuttingStock(0, {1}).ok());
}

TEST(CuttingStockTest, PerfectPacking) {
  // 10 items of size 1, capacity 5 -> exactly 2 bins.
  auto r = SolveCuttingStock(5, {10});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 2u);
  EXPECT_NEAR(r->lp_bound, 2.0, 1e-6);
}

TEST(CuttingStockTest, LpBoundIsLowerBound) {
  auto r = SolveCuttingStock(7, {3, 2, 4, 0, 1, 0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->lp_bound, static_cast<double>(r->num_bins) + 1e-6);
}

// A search that completes inside its node budget is complete, even when it
// spends every node of it; only a search the budget cuts off loses the
// proof. eps = 1 widens the LP round-up slack by a whole bin, so on this
// instance the bound cannot close the gap and only the exhausted search
// tree proves that FFD's 6 bins are optimal (k=5: four size-4 parts need a
// bin each, three size-2 parts need two; the LP bound is 5.5).
TEST(CuttingStockTest, SearchUsingItsWholeBudgetIsStillProvenOptimal) {
  const std::vector<uint32_t> demands{0, 3, 0, 4, 0};
  CuttingStockOptions options;
  options.eps = 1.0;
  const auto unlimited = SolveCuttingStock(5, demands, options);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->num_bins, 6u);
  ASSERT_GT(unlimited->bb_nodes, 1u);
  ASSERT_TRUE(unlimited->proven_optimal);
  ASSERT_GT(unlimited->num_bins,
            static_cast<uint32_t>(std::ceil(unlimited->lp_bound - options.eps)));

  options.max_bb_nodes = static_cast<int>(unlimited->bb_nodes);
  const auto exact_budget = SolveCuttingStock(5, demands, options);
  ASSERT_TRUE(exact_budget.ok());
  EXPECT_EQ(exact_budget->num_bins, unlimited->num_bins);
  EXPECT_EQ(exact_budget->patterns, unlimited->patterns);
  EXPECT_EQ(exact_budget->counts, unlimited->counts);
  EXPECT_EQ(exact_budget->bb_nodes, unlimited->bb_nodes);
  EXPECT_TRUE(exact_budget->proven_optimal);

  options.max_bb_nodes -= 1;
  const auto short_budget = SolveCuttingStock(5, demands, options);
  ASSERT_TRUE(short_budget.ok());
  EXPECT_EQ(short_budget->bb_nodes, unlimited->bb_nodes - 1);
  EXPECT_FALSE(short_budget->proven_optimal);
}

TEST(CuttingStockTest, FfdFallbackWhenExactDisabled) {
  CuttingStockOptions options;
  options.exact = false;
  auto r = SolveCuttingStock(10, {5, 3, 2, 1}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->num_bins, 0u);
}

TEST(FirstFitDecreasingTest, RespectsCapacity) {
  auto bins = FirstFitDecreasing(10, {7, 5, 3, 3, 2});
  ASSERT_TRUE(bins.ok());
  for (const auto& bin : *bins) {
    uint32_t used = 0;
    const std::vector<uint32_t> sizes{7, 5, 3, 3, 2};
    for (uint32_t idx : bin) used += sizes[idx];
    EXPECT_LE(used, 10u);
  }
  // All items placed exactly once.
  size_t placed = 0;
  for (const auto& bin : *bins) placed += bin.size();
  EXPECT_EQ(placed, 5u);
}

TEST(FirstFitDecreasingTest, ClassicExample) {
  // 7,5,3,3,2 with capacity 10 -> [7,3], [5,3,2]: two bins.
  auto bins = FirstFitDecreasing(10, {7, 5, 3, 3, 2});
  ASSERT_TRUE(bins.ok());
  EXPECT_EQ(bins->size(), 2u);
  EXPECT_EQ(*bins, (std::vector<std::vector<uint32_t>>{{0, 2}, {1, 3, 4}}));
}

// First fit, checked against its definition: replaying the placements in
// decreasing-size order (stable on ties), every item lands in the first bin
// with room for it at that moment, or opens the next bin when none has.
TEST(FirstFitDecreasingTest, EveryItemTakesTheFirstBinWithRoom) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    // Small capacities crowd the bins; a huge one must not cost memory.
    const uint32_t capacity =
        trial % 10 == 9 ? UINT32_MAX : 1 + static_cast<uint32_t>(rng.Uniform(30));
    std::vector<uint32_t> items(rng.Uniform(200));
    for (uint32_t& s : items) {
      s = 1 + static_cast<uint32_t>(rng.Uniform(std::min<uint32_t>(capacity, 40)));
    }
    if (capacity == UINT32_MAX && !items.empty()) items[0] = capacity;
    auto bins = FirstFitDecreasing(capacity, items);
    ASSERT_TRUE(bins.ok());

    std::vector<size_t> bin_of(items.size(), SIZE_MAX);
    std::vector<size_t> rank(items.size());
    for (size_t b = 0; b < bins->size(); ++b) {
      for (size_t r = 0; r < (*bins)[b].size(); ++r) {
        ASSERT_EQ(bin_of[(*bins)[b][r]], SIZE_MAX) << "item placed twice";
        bin_of[(*bins)[b][r]] = b;
        rank[(*bins)[b][r]] = r;
      }
    }
    std::vector<uint32_t> order(items.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return items[a] > items[b]; });
    std::vector<uint64_t> slack;
    std::vector<size_t> filled;
    for (uint32_t idx : order) {
      ASSERT_NE(bin_of[idx], SIZE_MAX) << "item never placed";
      const size_t b = bin_of[idx];
      for (size_t earlier = 0; earlier < std::min(b, slack.size()); ++earlier) {
        EXPECT_LT(slack[earlier], items[idx]) << "trial " << trial << " item " << idx;
      }
      if (b == slack.size()) {
        slack.push_back(capacity);
        filled.push_back(0);
      }
      ASSERT_LT(b, slack.size()) << "skipped a bin";
      ASSERT_GE(slack[b], items[idx]) << "overfilled a bin";
      EXPECT_EQ(rank[idx], filled[b]) << "bin contents out of placement order";
      slack[b] -= items[idx];
      ++filled[b];
    }
  }
}

TEST(FirstFitDecreasingTest, RejectsOversizedAndZeroItems) {
  EXPECT_FALSE(FirstFitDecreasing(5, {6}).ok());
  EXPECT_FALSE(FirstFitDecreasing(5, {0}).ok());
}

TEST(FirstFitDecreasingTest, EmptyItems) {
  auto bins = FirstFitDecreasing(5, {});
  ASSERT_TRUE(bins.ok());
  EXPECT_TRUE(bins->empty());
}

// Property sweep: ILP solution is valid (covers demand, respects capacity)
// and optimal versus brute force on small random instances.
struct CsCase {
  uint64_t seed;
  uint32_t capacity;
};

class CuttingStockRandom : public ::testing::TestWithParam<CsCase> {};

TEST_P(CuttingStockRandom, ValidAndOptimal) {
  Rng rng(GetParam().seed);
  const uint32_t capacity = GetParam().capacity;
  std::vector<uint32_t> demands(capacity, 0);
  const size_t kinds = 1 + rng.Uniform(std::min<uint32_t>(capacity, 4));
  uint32_t total_items = 0;
  for (size_t k = 0; k < kinds; ++k) {
    const size_t j = rng.Uniform(capacity);
    const uint32_t c = 1 + static_cast<uint32_t>(rng.Uniform(4));
    demands[j] += c;
    total_items += c;
  }
  if (total_items > 10) {  // keep brute force tractable
    demands.assign(capacity, 0);
    demands[0] = 6;
    demands[capacity - 1] = 2;
  }

  auto r = SolveCuttingStock(capacity, demands);
  ASSERT_TRUE(r.ok());

  // Validity: pattern weights within capacity; slots cover demand.
  for (const auto& pattern : r->patterns) {
    EXPECT_LE(PatternWeight(pattern), capacity);
  }
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0) {
      EXPECT_GE(TotalSlots(*r, j), demands[j]);
    }
  }

  // Optimality.
  const uint32_t brute = BruteForceBins(capacity, demands);
  EXPECT_EQ(r->num_bins, brute);
  EXPECT_TRUE(r->proven_optimal);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CuttingStockRandom,
    ::testing::Values(CsCase{1, 4}, CsCase{2, 4}, CsCase{3, 5}, CsCase{4, 5}, CsCase{5, 6},
                      CsCase{6, 6}, CsCase{7, 7}, CsCase{8, 8}, CsCase{9, 8}, CsCase{10, 10},
                      CsCase{11, 10}, CsCase{12, 12}, CsCase{13, 12}, CsCase{14, 15},
                      CsCase{15, 15}, CsCase{16, 20}, CsCase{17, 20}, CsCase{18, 9},
                      CsCase{19, 11}, CsCase{20, 13}));

TEST(CuttingStockTest, IlpNeverWorseThanFfdOnLargerInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t capacity = 10;
    std::vector<uint32_t> demands(capacity, 0);
    for (size_t j = 0; j < capacity; ++j) {
      demands[j] = static_cast<uint32_t>(rng.Uniform(20));
    }
    auto r = SolveCuttingStock(capacity, demands);
    ASSERT_TRUE(r.ok());

    std::vector<uint32_t> items;
    for (size_t j = 0; j < demands.size(); ++j) {
      items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
    }
    auto ffd = FirstFitDecreasing(capacity, items);
    ASSERT_TRUE(ffd.ok());
    EXPECT_LE(r->num_bins, ffd->size());
  }
}

}  // namespace
}  // namespace lp
}  // namespace crowder

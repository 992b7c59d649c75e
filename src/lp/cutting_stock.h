// The cutting-stock / bin-packing solver behind CrowdER's bottom tier (§5.3):
// pack small connected components (items, size = #vertices) into the minimum
// number of cluster-based HITs (bins, capacity = cluster-size threshold k).
//
// Faithful to the paper's solution method: the LP relaxation of the pattern
// formulation is solved by column generation (Gilmore-Gomory [14]) with an
// unbounded-knapsack pricing problem; an integer optimum is then obtained by
// branch-and-bound ([25]), with first-fit-decreasing supplying the initial
// incumbent. In the (overwhelmingly common) case where FFD already meets the
// LP round-up bound, FFD is returned and optimality is proven without search.
#ifndef CROWDER_LP_CUTTING_STOCK_H_
#define CROWDER_LP_CUTTING_STOCK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace crowder {
namespace lp {

/// \brief A HIT pattern in the paper's notation p = [a_1, ..., a_k]:
/// counts[j] = number of items of size j+1 in one bin.
using Pattern = std::vector<uint32_t>;

/// \brief Total size consumed by a pattern.
uint32_t PatternWeight(const Pattern& pattern);

struct CuttingStockOptions {
  /// Column-generation round cap (each round solves one master LP).
  int max_colgen_rounds = 500;
  /// Run exact branch-and-bound when rounding leaves a gap. When false (or
  /// the node budget is exhausted) the best heuristic solution is returned
  /// with proven_optimal = false.
  bool exact = true;
  /// Branch-and-bound node budget. A search that finishes within it (even
  /// using every node) is complete; only one it cuts off loses
  /// proven_optimal.
  int max_bb_nodes = 500000;
  double eps = 1e-6;
};

struct CuttingStockResult {
  /// Distinct patterns used and how many bins take each pattern.
  std::vector<Pattern> patterns;
  std::vector<uint32_t> counts;
  uint32_t num_bins = 0;
  /// Column-generation LP optimum (a valid lower bound on num_bins).
  double lp_bound = 0.0;
  bool proven_optimal = false;
  /// Branch-and-bound nodes expanded (0 when FFD met the LP bound or exact
  /// search was off): a deterministic work counter, a function of
  /// (capacity, demands, options) only.
  uint64_t bb_nodes = 0;
};

/// \brief Solves min-bins for `demands[j]` items of size j+1 and bin capacity
/// `capacity`. demands may be shorter than capacity; any demanded size larger
/// than the capacity is an InvalidArgument.
Result<CuttingStockResult> SolveCuttingStock(uint32_t capacity,
                                             const std::vector<uint32_t>& demands,
                                             const CuttingStockOptions& options = {});

/// \brief First-fit-decreasing bin packing over explicit items.
/// Returns bins as lists of item indices into `item_sizes`. Items larger than
/// the capacity are an InvalidArgument. O(items · log items) time and
/// O(items) memory, whatever the capacity.
Result<std::vector<std::vector<uint32_t>>> FirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes);

}  // namespace lp
}  // namespace crowder

#endif  // CROWDER_LP_CUTTING_STOCK_H_

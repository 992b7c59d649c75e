#include "lp/cutting_stock.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "lp/knapsack.h"
#include "lp/simplex.h"

namespace crowder {
namespace lp {

uint32_t PatternWeight(const Pattern& pattern) {
  uint32_t w = 0;
  for (size_t j = 0; j < pattern.size(); ++j) {
    w += pattern[j] * static_cast<uint32_t>(j + 1);
  }
  return w;
}

Result<std::vector<std::vector<uint32_t>>> FirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes) {
  for (uint32_t s : item_sizes) {
    if (s > capacity) {
      return Status::InvalidArgument("item of size " + std::to_string(s) +
                                     " exceeds capacity " + std::to_string(capacity));
    }
    if (s == 0) return Status::InvalidArgument("zero-size item");
  }
  std::vector<uint32_t> order(item_sizes.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return item_sizes[a] > item_sizes[b]; });

  // First fit through a tournament tree over bin slots: tree[node] is the
  // largest slack in its subtree, and slots past the open bins hold an empty
  // bin's slack (capacity). The leftmost leaf with slack >= s is then the
  // first open bin the item fits, or else the next bin to open — the bin the
  // linear first-fit scan picks, found in O(log items).
  size_t leaves = 1;
  while (leaves < item_sizes.size()) leaves <<= 1;
  std::vector<uint32_t> tree(2 * leaves, capacity);
  std::vector<std::vector<uint32_t>> bins;
  for (uint32_t idx : order) {
    const uint32_t s = item_sizes[idx];
    size_t node = 1;
    while (node < leaves) node = tree[2 * node] >= s ? 2 * node : 2 * node + 1;
    const size_t bin = node - leaves;
    if (bin == bins.size()) bins.emplace_back();
    bins[bin].push_back(idx);
    tree[node] -= s;
    for (node >>= 1; node > 0; node >>= 1) {
      tree[node] = std::max(tree[2 * node], tree[2 * node + 1]);
    }
  }
  return bins;
}

namespace {

struct VectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 1469598103934665603ULL;
    for (uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

// Solves the LP relaxation by column generation. `active` maps master rows
// to size indices (0-based: size = index+1). Returns the LP optimum and the
// generated pattern pool (over all sizes, length = capacity entries trimmed
// to demands.size()).
Result<double> SolveLpByColumnGeneration(uint32_t capacity,
                                         const std::vector<uint32_t>& demands,
                                         const std::vector<size_t>& active,
                                         const CuttingStockOptions& options,
                                         std::vector<Pattern>* pool) {
  // Seed columns: for each active size, a bin packed with copies of it.
  for (size_t j : active) {
    Pattern p(demands.size(), 0);
    p[j] = capacity / static_cast<uint32_t>(j + 1);
    pool->push_back(std::move(p));
  }

  double lp_value = 0.0;
  for (int round = 0; round < options.max_colgen_rounds; ++round) {
    LpProblem master;
    master.objective.assign(pool->size(), 1.0);
    master.constraints.reserve(active.size());
    for (size_t j : active) {
      LpConstraint con;
      con.sense = Sense::kGe;
      con.rhs = static_cast<double>(demands[j]);
      con.coeffs.resize(pool->size());
      for (size_t i = 0; i < pool->size(); ++i) {
        con.coeffs[i] = static_cast<double>((*pool)[i][j]);
      }
      master.constraints.push_back(std::move(con));
    }
    CROWDER_ASSIGN_OR_RETURN(LpSolution sol, SolveLp(master));
    lp_value = sol.objective;

    // Pricing: most violated pattern under the duals.
    std::vector<double> values(capacity, 0.0);
    for (size_t row = 0; row < active.size(); ++row) {
      values[active[row]] = sol.duals[row];
    }
    CROWDER_ASSIGN_OR_RETURN(KnapsackSolution priced, SolveUnboundedKnapsack(capacity, values));
    if (priced.value <= 1.0 + options.eps) {
      return lp_value;  // no improving column: LP optimal
    }
    Pattern p(demands.size(), 0);
    for (size_t j = 0; j < priced.counts.size() && j < p.size(); ++j) p[j] = priced.counts[j];
    pool->push_back(std::move(p));
  }
  CROWDER_LOG(Warning) << "column generation hit round cap; bound may be loose";
  return lp_value;
}

// Depth-first branch-and-bound: fill one (maximal) bin at a time, fullest
// candidate bins first. A node is one remaining-demand vector; its moves are
// the maximal patterns over that demand (no further item with remaining
// demand fits the residual capacity).
//
// The search state lives in flat per-depth buffers reused across nodes
// (depth d holds the demand, the enumerated moves and their fill order of
// the node currently open at d), so a node allocates nothing once the
// buffers have grown to their working size. Levels are sized once per Solve
// to the deepest possible node — a child is entered only while
// used_bins + 1 < best <= upper_bound — so no level is ever moved while a
// shallower one is iterating.
class BinPackSearch {
 public:
  BinPackSearch(uint32_t capacity, int node_budget)
      : capacity_(capacity), node_budget_(node_budget) {}

  // Returns the optimal bin count for `demand`, or the incumbent if the node
  // budget cut the search off (sets cut_off()). Fills `solution` with one
  // pattern per bin of the best packing found, or leaves it empty when
  // nothing beat `upper_bound`.
  uint32_t Solve(const std::vector<uint32_t>& demand, uint32_t upper_bound,
                 std::vector<Pattern>* solution) {
    sizes_ = demand.size();
    best_ = upper_bound;
    best_chain_.clear();
    levels_.assign(static_cast<size_t>(upper_bound) + 1, Level{});
    pattern_.assign(sizes_, 0);
    levels_[0].demand = demand;
    uint64_t weight = 0;
    for (size_t j = 0; j < sizes_; ++j) weight += static_cast<uint64_t>(demand[j]) * (j + 1);
    Dfs(0, weight);
    solution->clear();
    for (size_t i = 0; i < best_chain_.size(); i += sizes_) {
      solution->emplace_back(best_chain_.begin() + static_cast<ptrdiff_t>(i),
                             best_chain_.begin() + static_cast<ptrdiff_t>(i + sizes_));
    }
    return best_;
  }

  // True when the node budget left part of the tree unexplored, so the
  // returned count is not proven optimal.
  bool cut_off() const { return cut_off_; }
  // Nodes expanded: the search's deterministic work counter.
  uint64_t nodes() const { return static_cast<uint64_t>(nodes_); }

 private:
  struct Level {
    std::vector<uint32_t> demand;   // remaining demand, one entry per size
    std::vector<uint32_t> moves;    // maximal patterns, sizes_ entries each
    std::vector<uint32_t> weights;  // PatternWeight of each move
    std::vector<uint32_t> order;    // move indices, fullest first
    size_t current = 0;             // move whose subtree is being explored
  };

  // `remaining_weight` is the total size of levels_[depth].demand; the
  // depth is the number of bins already filled.
  void Dfs(size_t depth, uint64_t remaining_weight) {
    if (nodes_ >= node_budget_) {
      cut_off_ = true;
      return;
    }
    ++nodes_;

    const uint32_t used_bins = static_cast<uint32_t>(depth);
    const auto lb = static_cast<uint32_t>((remaining_weight + capacity_ - 1) / capacity_);
    if (lb == 0) {  // everything packed
      if (used_bins < best_) {
        best_ = used_bins;
        best_chain_.clear();
        for (size_t d = 0; d < depth; ++d) {
          const uint32_t* mv = &levels_[d].moves[levels_[d].current * sizes_];
          best_chain_.insert(best_chain_.end(), mv, mv + sizes_);
        }
      }
      return;
    }
    if (used_bins + lb >= best_) return;  // cannot improve

    Level& level = levels_[depth];
    level.moves.clear();
    level.weights.clear();
    Enumerate(level, sizes_ - 1, 0);
    // Prefer fuller bins first: they reach the lower bound fastest. Sorting
    // the indices by weight makes exactly the comparisons sorting the
    // patterns themselves would, so the fill order is the same permutation.
    level.order.resize(level.weights.size());
    for (uint32_t i = 0; i < level.order.size(); ++i) level.order[i] = i;
    std::sort(level.order.begin(), level.order.end(), [&level](uint32_t a, uint32_t b) {
      return level.weights[a] > level.weights[b];
    });
    std::vector<uint32_t>& next = levels_[depth + 1].demand;
    next.resize(sizes_);
    for (size_t r = 0; r < level.order.size(); ++r) {
      const uint32_t mv = level.order[r];
      const uint32_t* counts = &level.moves[static_cast<size_t>(mv) * sizes_];
      for (size_t j = 0; j < sizes_; ++j) next[j] = level.demand[j] - counts[j];
      level.current = mv;
      Dfs(depth + 1, remaining_weight - level.weights[mv]);
      if (used_bins + lb >= best_) return;  // incumbent now matches bound
      if (nodes_ >= node_budget_) {
        cut_off_ = cut_off_ || r + 1 < level.order.size();
        return;
      }
    }
  }

  // Appends to level.moves every maximal pattern over level.demand, sizes
  // descending from `size_index` and larger counts first (the greedy-ish
  // order that finds good incumbents early). pattern_[j] is fixed for every
  // j > size_index and zero below it; `used` is its weight. Moves never
  // exceed the demand, so the child's demand is a plain subtraction.
  void Enumerate(Level& level, size_t size_index, uint32_t used) {
    const uint32_t item = static_cast<uint32_t>(size_index + 1);
    const uint32_t max_count =
        std::min<uint32_t>(level.demand[size_index], (capacity_ - used) / item);
    for (uint32_t c = max_count;; --c) {
      pattern_[size_index] = c;
      if (size_index > 0) {
        Enumerate(level, size_index - 1, used + c * item);
      } else {
        EmitIfMaximal(level, used + c);
      }
      if (c == 0) break;
    }
    pattern_[size_index] = 0;
  }

  void EmitIfMaximal(Level& level, uint32_t used) {
    // Extendable if some size with demand left still fits the residual.
    for (size_t j = 0; j < sizes_ && used + j + 1 <= capacity_; ++j) {
      if (level.demand[j] > pattern_[j]) return;
    }
    if (used == 0) return;
    level.moves.insert(level.moves.end(), pattern_.begin(), pattern_.end());
    level.weights.push_back(used);
  }

  const uint32_t capacity_;
  const int node_budget_;
  size_t sizes_ = 0;
  int nodes_ = 0;
  bool cut_off_ = false;
  uint32_t best_ = UINT32_MAX;
  std::vector<Level> levels_;
  std::vector<uint32_t> pattern_;     // the pattern Enumerate is building
  std::vector<uint32_t> best_chain_;  // best packing, sizes_ entries per bin
};

// Aggregates a list of per-bin patterns into (distinct pattern, count) pairs.
void AggregatePatterns(const std::vector<Pattern>& bins, CuttingStockResult* result) {
  std::unordered_map<std::vector<uint32_t>, uint32_t, VectorHash> tally;
  for (const Pattern& p : bins) ++tally[p];
  for (auto& [pattern, count] : tally) {
    result->patterns.push_back(pattern);
    result->counts.push_back(count);
  }
}

}  // namespace

Result<CuttingStockResult> SolveCuttingStock(uint32_t capacity,
                                             const std::vector<uint32_t>& demands,
                                             const CuttingStockOptions& options) {
  if (capacity == 0) return Status::InvalidArgument("capacity must be positive");
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0 && j + 1 > capacity) {
      return Status::InvalidArgument("demanded size " + std::to_string(j + 1) +
                                     " exceeds capacity " + std::to_string(capacity));
    }
  }

  CuttingStockResult result;
  std::vector<size_t> active;
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0) active.push_back(j);
  }
  if (active.empty()) {
    result.proven_optimal = true;
    return result;
  }

  // 1. LP lower bound via column generation.
  std::vector<Pattern> pool;
  CROWDER_ASSIGN_OR_RETURN(result.lp_bound, SolveLpByColumnGeneration(capacity, demands, active,
                                                                      options, &pool));
  const uint32_t round_up =
      static_cast<uint32_t>(std::ceil(result.lp_bound - options.eps));

  // 2. Incumbent via first-fit-decreasing.
  std::vector<uint32_t> items;
  for (size_t j : active) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  CROWDER_ASSIGN_OR_RETURN(auto ffd_bins, FirstFitDecreasing(capacity, items));
  std::vector<Pattern> ffd_patterns;
  ffd_patterns.reserve(ffd_bins.size());
  for (const auto& bin : ffd_bins) {
    Pattern p(demands.size(), 0);
    for (uint32_t idx : bin) ++p[items[idx] - 1];
    ffd_patterns.push_back(std::move(p));
  }

  if (static_cast<uint32_t>(ffd_bins.size()) <= round_up || !options.exact) {
    result.num_bins = static_cast<uint32_t>(ffd_bins.size());
    result.proven_optimal = static_cast<uint32_t>(ffd_bins.size()) <= round_up;
    AggregatePatterns(ffd_patterns, &result);
    return result;
  }

  // 3. Branch-and-bound closes the gap.
  BinPackSearch search(capacity, options.max_bb_nodes);
  std::vector<Pattern> bb_bins;
  const uint32_t bb_best =
      search.Solve(demands, static_cast<uint32_t>(ffd_bins.size()), &bb_bins);
  result.bb_nodes = search.nodes();

  if (bb_bins.empty() || bb_best >= ffd_bins.size()) {
    result.num_bins = static_cast<uint32_t>(ffd_bins.size());
    result.proven_optimal = !search.cut_off();
    AggregatePatterns(ffd_patterns, &result);
  } else {
    result.num_bins = bb_best;
    result.proven_optimal = !search.cut_off() || bb_best <= round_up;
    AggregatePatterns(bb_bins, &result);
  }
  return result;
}

}  // namespace lp
}  // namespace crowder

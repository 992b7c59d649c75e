// Oracle property tests for the kernels of the crowd back half: the top
// tier's seed selection (hitgen/two_tiered_generator.cc), the bottom tier's
// branch-and-bound (lp/cutting_stock.cc), Dawid-Skene EM
// (aggregate/partitioned.cc) over the spilled vote store's lent shard views
// (core/partition.cc), and the adaptive loop's answer closure
// (graph/answer_closure.cc). Each kernel is compared against a verbatim copy
// of the straightforward implementation it replaced, kept here as the
// oracle, on seeded random inputs: the outputs must be equal — bitwise for
// the floating-point ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "aggregate/agreement.h"
#include "aggregate/dawid_skene.h"
#include "aggregate/partitioned.h"
#include "common/rng.h"
#include "core/partition.h"
#include "graph/answer_closure.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "graph/union_find.h"
#include "hitgen/two_tiered_generator.h"
#include "lp/cutting_stock.h"

namespace crowder {
namespace {

// ---------------------------------------------------------------------------
// Oracle 1: Algorithm 2 with the per-part O(|LCC|) seed scan.
// ---------------------------------------------------------------------------

int64_t OraclePickSeed(const graph::PairGraph& graph, const std::vector<uint32_t>& lcc,
                       hitgen::PartitionOptions::SeedRule rule) {
  int64_t best = -1;
  uint32_t best_degree = 0;
  for (uint32_t v : lcc) {
    const uint32_t d = graph.AliveDegree(v);
    if (d == 0) continue;
    switch (rule) {
      case hitgen::PartitionOptions::SeedRule::kMaxDegree:
        if (d > best_degree || (d == best_degree && best >= 0 && v < best)) {
          best_degree = d;
          best = v;
        } else if (best < 0) {
          best_degree = d;
          best = v;
        }
        break;
      case hitgen::PartitionOptions::SeedRule::kFirst:
        return v;
    }
  }
  return best;
}

std::vector<std::vector<uint32_t>> OraclePartitionLcc(graph::PairGraph* graph,
                                                      const std::vector<uint32_t>& lcc, uint32_t k,
                                                      const hitgen::PartitionOptions& options) {
  std::vector<std::vector<uint32_t>> parts;
  std::vector<char> in_scc(graph->num_vertices(), 0);
  std::vector<char> in_conn(graph->num_vertices(), 0);
  std::vector<uint32_t> indegree(graph->num_vertices(), 0);
  for (;;) {
    const int64_t seed = OraclePickSeed(*graph, lcc, options.seed_rule);
    if (seed < 0) break;
    std::vector<uint32_t> scc{static_cast<uint32_t>(seed)};
    in_scc[seed] = 1;
    std::vector<uint32_t> conn;
    graph->ForEachAliveNeighbor(static_cast<uint32_t>(seed), [&](uint32_t u) {
      if (!in_conn[u]) {
        in_conn[u] = 1;
        indegree[u] = 1;
        conn.push_back(u);
      }
    });
    while (scc.size() < k && !conn.empty()) {
      size_t best_pos = 0;
      uint32_t best_in = 0;
      uint32_t best_out = UINT32_MAX;
      for (size_t pos = 0; pos < conn.size(); ++pos) {
        const uint32_t r = conn[pos];
        const uint32_t indeg = indegree[r];
        const uint32_t outdeg = graph->AliveDegree(r) - indeg;
        bool better = false;
        if (indeg > best_in) {
          better = true;
        } else if (indeg == best_in) {
          if (options.outdegree_tiebreak && outdeg != best_out) {
            better = outdeg < best_out;
          } else {
            better = r < conn[best_pos];
          }
        }
        if (better) {
          best_pos = pos;
          best_in = indeg;
          best_out = outdeg;
        }
      }
      const uint32_t chosen = conn[best_pos];
      conn[best_pos] = conn.back();
      conn.pop_back();
      in_conn[chosen] = 0;
      in_scc[chosen] = 1;
      scc.push_back(chosen);
      graph->ForEachAliveNeighbor(chosen, [&](uint32_t u) {
        if (in_scc[u]) return;
        if (!in_conn[u]) {
          in_conn[u] = 1;
          indegree[u] = 0;
          conn.push_back(u);
        }
        ++indegree[u];
      });
    }
    std::sort(scc.begin(), scc.end());
    graph->RemoveEdgesCoveredBy(scc);
    for (uint32_t v : scc) in_scc[v] = 0;
    for (uint32_t v : conn) {
      in_conn[v] = 0;
      indegree[v] = 0;
    }
    parts.push_back(std::move(scc));
  }
  return parts;
}

// A random graph with a few dense clusters joined by sparse bridges, so
// LCCs are large, degrees are skewed, and degree ties are common.
graph::PairGraph RandomClusteredGraph(Rng* rng, uint32_t n) {
  std::vector<graph::Edge> edges;
  const uint32_t cluster = 4 + static_cast<uint32_t>(rng->Uniform(12));
  const double dense = rng->UniformDouble(0.2, 0.9);
  const double sparse = rng->UniformDouble(0.0, 0.05);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(i / cluster == j / cluster ? dense : sparse)) edges.push_back({i, j});
    }
  }
  return graph::PairGraph::Create(n, edges).ValueOrDie();
}

TEST(PartitionOracleTest, HeapSeedsMatchTheScanOnRandomGraphs) {
  Rng rng(20261017);
  size_t lccs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t n = 20 + static_cast<uint32_t>(rng.Uniform(140));
    const graph::PairGraph original = RandomClusteredGraph(&rng, n);
    const uint32_t k = 2 + static_cast<uint32_t>(rng.Uniform(12));
    const auto split = graph::SplitBySize(graph::ConnectedComponents(original), k);
    for (const auto rule : {hitgen::PartitionOptions::SeedRule::kMaxDegree,
                            hitgen::PartitionOptions::SeedRule::kFirst}) {
      for (const bool tiebreak : {true, false}) {
        hitgen::PartitionOptions options;
        options.seed_rule = rule;
        options.outdegree_tiebreak = tiebreak;
        graph::PairGraph fast = original;
        graph::PairGraph oracle = original;
        for (const auto& lcc : split.large) {
          ++lccs;
          EXPECT_EQ(hitgen::PartitionLcc(&fast, lcc, k, options),
                    OraclePartitionLcc(&oracle, lcc, k, options))
              << "trial " << trial << " k " << k << " tiebreak " << tiebreak;
        }
        EXPECT_EQ(fast.AliveEdges(), oracle.AliveEdges()) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(lccs, 100u);  // the sweep exercised the top tier
}

TEST(PartitionOracleTest, RemoveEdgesCoveredByTakesUnsortedAndRepeatedVertices) {
  auto g = graph::PairGraph::Create(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 5}}).ValueOrDie();
  EXPECT_EQ(g.RemoveEdgesCoveredBy({2, 0, 2, 1}), 3u);
  EXPECT_EQ(g.num_alive_edges(), 2u);
  // The membership marks were cleared: a disjoint set sees only its edges.
  EXPECT_EQ(g.RemoveEdgesCoveredBy({3, 5}), 0u);
  EXPECT_EQ(g.RemoveEdgesCoveredBy({5, 4}), 1u);
  EXPECT_TRUE(g.HasAliveEdge(2, 3));
}

// ---------------------------------------------------------------------------
// Oracle 2: the allocating branch-and-bound (one vector per node and per
// pattern), plus first-fit-decreasing by linear scan.
// ---------------------------------------------------------------------------

using lp::Pattern;

void OracleEnumerateMaximalPatterns(uint32_t capacity, const std::vector<uint32_t>& remaining,
                                    size_t size_index, Pattern* current,
                                    std::vector<Pattern>* out) {
  if (size_index == static_cast<size_t>(-1) || size_index >= remaining.size()) {
    const uint32_t used = lp::PatternWeight(*current);
    for (size_t j = 0; j < remaining.size(); ++j) {
      const uint32_t item = static_cast<uint32_t>(j + 1);
      if (remaining[j] > (*current)[j] && used + item <= capacity) return;
    }
    if (used > 0) out->push_back(*current);
    return;
  }
  const uint32_t item = static_cast<uint32_t>(size_index + 1);
  const uint32_t used = lp::PatternWeight(*current);
  const uint32_t fit = (capacity - used) / item;
  const uint32_t max_count = std::min<uint32_t>(remaining[size_index], fit);
  for (uint32_t c = max_count;; --c) {
    (*current)[size_index] = c;
    OracleEnumerateMaximalPatterns(capacity, remaining,
                                   size_index == 0 ? static_cast<size_t>(-1) : size_index - 1,
                                   current, out);
    if (c == 0) break;
  }
  (*current)[size_index] = 0;
}

uint32_t OracleSimpleLowerBound(uint32_t capacity, const std::vector<uint32_t>& remaining) {
  uint64_t total = 0;
  for (size_t j = 0; j < remaining.size(); ++j) {
    total += static_cast<uint64_t>(remaining[j]) * (j + 1);
  }
  return static_cast<uint32_t>((total + capacity - 1) / capacity);
}

class OracleBinPackSearch {
 public:
  OracleBinPackSearch(uint32_t capacity, int node_budget)
      : capacity_(capacity), node_budget_(node_budget) {}

  uint32_t Solve(const std::vector<uint32_t>& demand, uint32_t upper_bound,
                 std::vector<Pattern>* solution) {
    best_ = upper_bound;
    Dfs(demand, 0);
    *solution = best_chain_;
    return best_;
  }
  int nodes() const { return nodes_; }

 private:
  void Dfs(const std::vector<uint32_t>& demand, uint32_t used_bins) {
    if (nodes_ >= node_budget_) return;
    ++nodes_;
    const uint32_t lb = OracleSimpleLowerBound(capacity_, demand);
    if (lb == 0) {
      if (used_bins < best_) {
        best_ = used_bins;
        best_chain_ = chain_;
      }
      return;
    }
    if (used_bins + lb >= best_) return;
    std::vector<Pattern> moves;
    Pattern scratch(demand.size(), 0);
    OracleEnumerateMaximalPatterns(capacity_, demand, demand.size() - 1, &scratch, &moves);
    std::sort(moves.begin(), moves.end(), [](const Pattern& a, const Pattern& b) {
      return lp::PatternWeight(a) > lp::PatternWeight(b);
    });
    for (const Pattern& mv : moves) {
      std::vector<uint32_t> next = demand;
      for (size_t j = 0; j < next.size(); ++j) next[j] -= std::min(next[j], mv[j]);
      chain_.push_back(mv);
      Dfs(next, used_bins + 1);
      chain_.pop_back();
      if (used_bins + lb >= best_) return;
      if (nodes_ >= node_budget_) return;
    }
  }

  uint32_t capacity_;
  int node_budget_;
  int nodes_ = 0;
  uint32_t best_ = UINT32_MAX;
  std::vector<Pattern> chain_;
  std::vector<Pattern> best_chain_;
};

std::vector<std::vector<uint32_t>> OracleFirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes) {
  std::vector<uint32_t> order(item_sizes.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return item_sizes[a] > item_sizes[b]; });
  std::vector<std::vector<uint32_t>> bins;
  std::vector<uint32_t> slack;
  for (uint32_t idx : order) {
    const uint32_t s = item_sizes[idx];
    bool placed = false;
    for (size_t b = 0; b < bins.size(); ++b) {
      if (slack[b] >= s) {
        bins[b].push_back(idx);
        slack[b] -= s;
        placed = true;
        break;
      }
    }
    if (!placed) {
      bins.push_back({idx});
      slack.push_back(capacity - s);
    }
  }
  return bins;
}

// (pattern, count) pairs in a canonical order, for comparing results whose
// pattern lists come out of a hash-map tally.
std::map<Pattern, uint32_t> Tally(const std::vector<Pattern>& patterns,
                                  const std::vector<uint32_t>& counts) {
  std::map<Pattern, uint32_t> out;
  for (size_t i = 0; i < patterns.size(); ++i) out[patterns[i]] += counts[i];
  return out;
}
std::map<Pattern, uint32_t> Tally(const std::vector<Pattern>& bins) {
  return Tally(bins, std::vector<uint32_t>(bins.size(), 1));
}

struct OracleOutcome {
  uint32_t num_bins = 0;
  std::map<Pattern, uint32_t> tally;
  bool proven_optimal = false;
  uint64_t bb_nodes = 0;
};

// SolveCuttingStock's decision flow over the oracle search. The LP bound
// comes from the kernel under test (column generation is unchanged). A
// search is complete when it used fewer nodes than its budget, or when one
// more node of budget would have gone unused.
OracleOutcome OracleSolve(uint32_t capacity, const std::vector<uint32_t>& demands,
                          const lp::CuttingStockOptions& options, double lp_bound) {
  const auto round_up = static_cast<uint32_t>(std::ceil(lp_bound - options.eps));
  std::vector<uint32_t> items;
  for (size_t j = 0; j < demands.size(); ++j) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  std::vector<Pattern> ffd;
  for (const auto& bin : OracleFirstFitDecreasing(capacity, items)) {
    Pattern p(demands.size(), 0);
    for (uint32_t idx : bin) ++p[items[idx] - 1];
    ffd.push_back(std::move(p));
  }
  const auto ffd_bins = static_cast<uint32_t>(ffd.size());
  OracleOutcome out;
  if (ffd_bins <= round_up || !options.exact) {
    out.num_bins = ffd_bins;
    out.proven_optimal = ffd_bins <= round_up;
    out.tally = Tally(ffd);
    return out;
  }
  OracleBinPackSearch search(capacity, options.max_bb_nodes);
  std::vector<Pattern> bb;
  const uint32_t bb_best = search.Solve(demands, ffd_bins, &bb);
  out.bb_nodes = static_cast<uint64_t>(search.nodes());
  bool complete = true;
  if (out.bb_nodes == static_cast<uint64_t>(options.max_bb_nodes)) {
    OracleBinPackSearch longer(capacity, options.max_bb_nodes + 1);
    std::vector<Pattern> ignored;
    longer.Solve(demands, ffd_bins, &ignored);
    complete = longer.nodes() <= options.max_bb_nodes;
  }
  if (bb.empty() || bb_best >= ffd_bins) {
    out.num_bins = ffd_bins;
    out.proven_optimal = complete;
    out.tally = Tally(ffd);
  } else {
    out.num_bins = bb_best;
    out.proven_optimal = complete || bb_best <= round_up;
    out.tally = Tally(bb);
  }
  return out;
}

// A few part sizes with a few parts each: the shape on which
// first-fit-decreasing most often misses the LP bound, so the search runs.
std::vector<uint32_t> RandomDemands(Rng* rng, uint32_t capacity) {
  std::vector<uint32_t> demands(capacity, 0);
  const size_t kinds = 1 + rng->Uniform(4);
  for (size_t i = 0; i < kinds; ++i) {
    demands[rng->Uniform(capacity)] += 1 + static_cast<uint32_t>(rng->Uniform(8));
  }
  return demands;
}

// The top tier's part-size multisets on the paper's datasets at k = 10
// (bench_ablation_packing: Restaurant at threshold 0.3, Product at 0.4 and
// 0.3). Their nodes have dozens of maximal patterns, many of equal weight,
// so the fill order of ties is std::sort's own; the last one runs the
// search into the default 500,000-node budget.
TEST(CuttingStockOracleTest, FlatSearchMatchesTheAllocatingSearchOnPaperDatasets) {
  const std::vector<std::vector<uint32_t>> instances{
      {0, 29, 14, 2, 4, 8, 3, 0, 0, 304},
      {0, 545, 16, 2, 0, 0, 0, 0, 0, 0},
      {0, 731, 25, 24, 9, 3, 0, 2, 1, 1}};
  for (size_t i = 0; i < instances.size(); ++i) {
    for (const int budget : {7, 500, 500000}) {
      lp::CuttingStockOptions options;
      options.max_bb_nodes = budget;
      const auto got = lp::SolveCuttingStock(10, instances[i], options).ValueOrDie();
      const OracleOutcome want = OracleSolve(10, instances[i], options, got.lp_bound);
      ASSERT_GT(got.bb_nodes, 0u) << "instance " << i;
      EXPECT_EQ(got.num_bins, want.num_bins) << "instance " << i << " budget " << budget;
      EXPECT_EQ(Tally(got.patterns, got.counts), want.tally)
          << "instance " << i << " budget " << budget;
      EXPECT_EQ(got.proven_optimal, want.proven_optimal)
          << "instance " << i << " budget " << budget;
      EXPECT_EQ(got.bb_nodes, want.bb_nodes) << "instance " << i << " budget " << budget;
    }
  }
}

TEST(CuttingStockOracleTest, FlatSearchMatchesTheAllocatingSearchAtEveryBudget) {
  Rng rng(5301);
  size_t searched = 0;
  size_t cut = 0;
  size_t proven_by_search = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t capacity = 3 + static_cast<uint32_t>(rng.Uniform(10));
    const std::vector<uint32_t> demands = RandomDemands(&rng, capacity);
    for (const int budget : {1, 7, 500, 500000}) {
      lp::CuttingStockOptions options;
      options.max_bb_nodes = budget;
      // eps = 1 widens the LP round-up slack by a whole bin: the bound then
      // rarely closes the gap, and the search must prove optimality itself.
      if (trial % 2 == 1) options.eps = 1.0;
      const auto got = lp::SolveCuttingStock(capacity, demands, options).ValueOrDie();
      const OracleOutcome want = OracleSolve(capacity, demands, options, got.lp_bound);
      const std::string where = "trial " + std::to_string(trial) + " budget " +
                                std::to_string(budget);
      EXPECT_EQ(got.num_bins, want.num_bins) << where;
      EXPECT_EQ(Tally(got.patterns, got.counts), want.tally) << where;
      EXPECT_EQ(got.proven_optimal, want.proven_optimal) << where;
      EXPECT_EQ(got.bb_nodes, want.bb_nodes) << where;
      if (got.bb_nodes == 0) continue;
      ++searched;
      if (!got.proven_optimal) ++cut;
      if (got.proven_optimal &&
          got.num_bins > static_cast<uint32_t>(std::ceil(got.lp_bound - options.eps))) {
        ++proven_by_search;
      }
    }
  }
  // The sweep reached branch-and-bound, ran searches into their budgets,
  // and completed searches whose optimality only the search could prove.
  EXPECT_GT(searched, 100u);
  EXPECT_GT(cut, 20u);
  EXPECT_GT(proven_by_search, 50u);
}

TEST(CuttingStockOracleTest, FirstFitDecreasingMatchesTheLinearScan) {
  Rng rng(881);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t capacity = 1 + static_cast<uint32_t>(rng.Uniform(40));
    std::vector<uint32_t> items(rng.Uniform(300));
    for (uint32_t& s : items) s = 1 + static_cast<uint32_t>(rng.Uniform(capacity));
    EXPECT_EQ(lp::FirstFitDecreasing(capacity, items).ValueOrDie(),
              OracleFirstFitDecreasing(capacity, items))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Oracle 3: map-based Dawid-Skene EM, four logs and five map updates per
// vote per pass.
// ---------------------------------------------------------------------------

using aggregate::DawidSkeneOptions;
using aggregate::Vote;
using aggregate::VoteShardSource;
using aggregate::VoteTable;
using aggregate::WorkerQuality;

struct OracleModel {
  std::unordered_map<uint32_t, WorkerQuality> workers;
  double class_prior = 0.5;
  int iterations = 0;
  bool converged = false;
};

double OraclePosterior(const std::vector<Vote>& pair_votes, const OracleModel& model) {
  if (pair_votes.empty()) return aggregate::kUnjudgedMatchProbability;
  if (model.workers.empty()) return aggregate::MajorityMatchProbability(pair_votes);
  double log_pos = std::log(model.class_prior);
  double log_neg = std::log(1.0 - model.class_prior);
  for (const Vote& v : pair_votes) {
    const WorkerQuality& w = model.workers.at(v.worker_id);
    if (v.says_match) {
      log_pos += std::log(w.sensitivity);
      log_neg += std::log(1.0 - w.specificity);
    } else {
      log_pos += std::log(1.0 - w.sensitivity);
      log_neg += std::log(w.specificity);
    }
  }
  const double m = std::max(log_pos, log_neg);
  const double pos = std::exp(log_pos - m);
  const double neg = std::exp(log_neg - m);
  return pos / (pos + neg);
}

OracleModel OracleFit(VoteShardSource* shards, const DawidSkeneOptions& options) {
  const double s = options.smoothing;
  const double good = options.prior_correct;
  const double bad = options.prior_incorrect;
  OracleModel prev;
  OracleModel older;
  for (int t = 0;; ++t) {
    std::unordered_map<uint32_t, double> sens_sum;
    std::unordered_map<uint32_t, double> spec_sum;
    std::unordered_map<uint32_t, double> pos_mass;
    std::unordered_map<uint32_t, double> neg_mass;
    std::unordered_map<uint32_t, uint32_t> vote_count;
    double prior_num = 0.0;
    size_t judged = 0;
    double max_delta = 0.0;
    for (size_t shard = 0; shard < shards->num_shards(); ++shard) {
      const VoteTable table = shards->LoadShard(shard).ValueOrDie();
      for (const auto& pair_votes : table) {
        if (pair_votes.empty()) continue;
        const double p = t == 0 ? aggregate::MajorityMatchProbability(pair_votes)
                                : OraclePosterior(pair_votes, prev);
        if (t >= 1) {
          const double p_old = t == 1 ? aggregate::MajorityMatchProbability(pair_votes)
                                      : OraclePosterior(pair_votes, older);
          max_delta = std::max(max_delta, std::fabs(p - p_old));
        }
        ++judged;
        prior_num += p;
        for (const Vote& v : pair_votes) {
          ++vote_count[v.worker_id];
          pos_mass[v.worker_id] += p;
          neg_mass[v.worker_id] += 1.0 - p;
          if (v.says_match) {
            sens_sum[v.worker_id] += p;
          } else {
            spec_sum[v.worker_id] += 1.0 - p;
          }
        }
      }
    }
    if (judged == 0) {
      OracleModel model;
      model.converged = true;
      return model;
    }
    if (t >= 1 && max_delta < options.tolerance) {
      prev.converged = true;
      return prev;
    }
    if (t == options.max_iterations) return prev;
    OracleModel next;
    next.class_prior =
        std::clamp((prior_num + s) / (static_cast<double>(judged) + 2.0 * s), 0.01, 0.99);
    for (const auto& [id, count] : vote_count) {
      WorkerQuality w;
      w.num_votes = count;
      w.sensitivity = (sens_sum[id] + good) / (pos_mass[id] + good + bad);
      w.specificity = (spec_sum[id] + good) / (neg_mass[id] + good + bad);
      w.sensitivity = std::clamp(w.sensitivity, 1e-4, 1.0 - 1e-4);
      w.specificity = std::clamp(w.specificity, 1e-4, 1.0 - 1e-4);
      next.workers.emplace(id, w);
    }
    next.iterations = t + 1;
    older = std::move(prev);
    prev = std::move(next);
  }
}

// A vote table over a worker pool whose ids come from `id_space`: honest,
// noisy and spamming workers, some pairs voteless.
VoteTable RandomVotes(Rng* rng, size_t num_pairs, const std::vector<uint32_t>& id_space) {
  std::vector<double> error(id_space.size());
  for (double& e : error) e = rng->Bernoulli(0.3) ? 0.5 : rng->UniformDouble(0.0, 0.3);
  VoteTable votes(num_pairs);
  for (auto& pair_votes : votes) {
    const bool truth = rng->Bernoulli(0.4);
    const size_t n = rng->Bernoulli(0.1) ? 0 : 1 + rng->Uniform(5);
    for (size_t i = 0; i < n; ++i) {
      const size_t w = rng->Uniform(id_space.size());
      pair_votes.push_back({id_space[w], rng->Bernoulli(error[w]) ? !truth : truth});
    }
  }
  return votes;
}

std::vector<size_t> RandomSplit(Rng* rng, size_t total) {
  std::vector<size_t> sizes;
  while (total > 0) {
    const size_t take = std::min<size_t>(total, 1 + rng->Uniform(40));
    sizes.push_back(take);
    total -= take;
  }
  if (sizes.empty()) sizes.push_back(0);
  return sizes;
}

aggregate::DawidSkeneModel Fit(VoteShardSource* shards, const DawidSkeneOptions& options) {
  auto fit = aggregate::FitDawidSkeneSharded(shards, options);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  return fit.ok() ? std::move(*fit) : aggregate::DawidSkeneModel{};
}

void ExpectSameFit(const aggregate::DawidSkeneModel& got, const OracleModel& want,
                   const std::string& where) {
  EXPECT_EQ(got.class_prior, want.class_prior) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  ASSERT_EQ(got.workers.size(), want.workers.size()) << where;
  for (const auto& [id, w] : want.workers) {
    const auto it = got.workers.find(id);
    ASSERT_NE(it, got.workers.end()) << where << " worker " << id;
    EXPECT_EQ(it->second.sensitivity, w.sensitivity) << where << " worker " << id;
    EXPECT_EQ(it->second.specificity, w.specificity) << where << " worker " << id;
    EXPECT_EQ(it->second.num_votes, w.num_votes) << where << " worker " << id;
  }
}

TEST(DawidSkeneOracleTest, DenseEmMatchesTheMapBasedEm) {
  Rng rng(6177);
  for (int trial = 0; trial < 40; ++trial) {
    // Worker ids: a compact pool, a sparse one, or one hugging UINT32_MAX.
    std::vector<uint32_t> ids(2 + rng.Uniform(30));
    const int space = trial % 3;
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = space == 0   ? static_cast<uint32_t>(i)
               : space == 1 ? static_cast<uint32_t>(rng.Uniform(UINT32_MAX))
                            : UINT32_MAX - static_cast<uint32_t>(rng.Uniform(64));
    }
    if (space == 2) ids[0] = UINT32_MAX;
    const VoteTable votes = RandomVotes(&rng, rng.Uniform(200), ids);
    DawidSkeneOptions options;
    if (trial % 4 == 3) options.max_iterations = 1 + static_cast<int>(rng.Uniform(6));
    const std::string where = "trial " + std::to_string(trial);

    // Single table vs the oracle, posteriors included.
    aggregate::InMemoryVoteShards whole(&votes, {votes.size()});
    aggregate::InMemoryVoteShards whole_oracle(&votes, {votes.size()});
    const OracleModel want = OracleFit(&whole_oracle, options);
    const auto ds = aggregate::RunDawidSkene(votes, options).ValueOrDie();
    const auto fit = Fit(&whole, options);
    ExpectSameFit(fit, want, where);
    for (size_t i = 0; i < votes.size(); ++i) {
      const double p = OraclePosterior(votes[i], want);
      EXPECT_EQ(aggregate::PosteriorMatchProbability(votes[i], fit), p) << where << " pair " << i;
      EXPECT_EQ(ds.match_probability[i], p) << where << " pair " << i;
    }

    // Sharded, and with a banned set filtered at the shard boundary.
    aggregate::InMemoryVoteShards sharded(&votes, RandomSplit(&rng, votes.size()));
    ExpectSameFit(Fit(&sharded, options), want,
                  where + " sharded");
    std::unordered_set<uint32_t> banned;
    for (uint32_t id : ids) {
      if (rng.Bernoulli(0.3)) banned.insert(id);
    }
    aggregate::FilteredVoteShardSource filtered(&sharded, banned);
    aggregate::FilteredVoteShardSource filtered_oracle(&sharded, banned);
    const OracleModel want_filtered = OracleFit(&filtered_oracle, options);
    const auto got_filtered = Fit(&filtered, options);
    ExpectSameFit(got_filtered, want_filtered, where + " filtered");
    for (size_t shard = 0; shard < filtered.num_shards(); ++shard) {
      const VoteTable table = filtered.LoadShard(shard).ValueOrDie();
      for (const auto& pair_votes : table) {
        EXPECT_EQ(aggregate::PosteriorMatchProbability(pair_votes, got_filtered),
                  OraclePosterior(pair_votes, want_filtered))
            << where << " filtered shard " << shard;
      }
    }
  }
}

TEST(DawidSkeneOracleTest, SpilledStoreBehindBanFilterMatchesMaterializedTable) {
  // The streaming aggregation path end to end: votes filed into a spilling
  // VoteShardStore in an interleaved cast order, lent shard by shard as flat
  // views through a ban filter, must fit the model, iteration count and
  // posteriors that RunDawidSkene fits on the materialized filtered table.
  Rng rng(9241);
  for (int trial = 0; trial < 12; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    std::vector<uint32_t> ids(4 + rng.Uniform(24));
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(10 * i + 1);
    const uint64_t capacity = 16 + rng.Uniform(24);
    const size_t num_pairs = 8 * capacity + rng.Uniform(300);  // 8+ shards
    VoteTable votes = RandomVotes(&rng, num_pairs, ids);       // ~10% voteless
    const std::vector<uint64_t> counts = core::TileShardCounts(num_pairs, capacity);
    ASSERT_GE(counts.size(), 8u) << where;
    // A worker first seen in the last shard: EM assigns it a slot on the
    // last load of pass 0.
    const uint32_t latecomer = 7;
    for (size_t i = num_pairs - counts.back(); i < num_pairs; i += 3) {
      votes[i].push_back({latecomer, rng.Bernoulli(0.5)});
    }

    // File the votes in a global cast order that interleaves pairs across
    // shards while keeping each pair's own votes in order.
    core::VoteShardStore store(/*memory_budget_bytes=*/512, counts);
    std::vector<size_t> next(num_pairs, 0);
    std::vector<size_t> open;
    for (size_t i = 0; i < num_pairs; ++i) {
      if (!votes[i].empty()) open.push_back(i);
    }
    while (!open.empty()) {
      const size_t k = rng.Uniform(open.size());
      const size_t pair = open[k];
      ASSERT_TRUE(store.Append(pair, votes[pair][next[pair]++]).ok());
      if (next[pair] == votes[pair].size()) {
        open[k] = open.back();
        open.pop_back();
      }
    }
    ASSERT_TRUE(store.Finish().ok());
    ASSERT_GT(store.spilled_bytes(), 0u) << where;

    // Every lent view holds each pair's votes in cast order, as does the
    // copy LoadShard makes.
    const auto same_votes = [](aggregate::VoteSpan got, const std::vector<Vote>& want) {
      if (got.size() != want.size()) return false;
      for (size_t v = 0; v < want.size(); ++v) {
        if (got[v].worker_id != want[v].worker_id || got[v].says_match != want[v].says_match) {
          return false;
        }
      }
      return true;
    };
    for (size_t shard = 0; shard < store.num_shards(); ++shard) {
      const uint64_t start = store.shard_start(shard);
      const VoteTable loaded = store.LoadShard(shard).ValueOrDie();
      ASSERT_EQ(loaded.size(), counts[shard]);
      const Status lent = store.WithShard(shard, [&](const aggregate::VoteShardView& view) {
        EXPECT_EQ(view.size(), counts[shard]);
        for (size_t i = 0; i < view.size(); ++i) {
          EXPECT_TRUE(same_votes(view[i], votes[start + i])) << where << " pair " << start + i;
          EXPECT_TRUE(same_votes(loaded[i], votes[start + i])) << where << " pair " << start + i;
        }
        return Status::OK();
      });
      ASSERT_TRUE(lent.ok()) << lent.ToString();
    }

    std::unordered_set<uint32_t> banned;
    for (uint32_t id : ids) {
      if (rng.Bernoulli(0.3)) banned.insert(id);
    }
    VoteTable surviving = votes;
    aggregate::RemoveVotesFrom(&surviving, banned);
    const auto want = aggregate::RunDawidSkene(surviving).ValueOrDie();

    aggregate::FilteredVoteShardSource filtered(&store, banned);
    const auto got = Fit(&filtered, {});
    EXPECT_EQ(got.class_prior, want.class_prior) << where;
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_EQ(got.converged, want.converged) << where;
    EXPECT_EQ(got.workers.count(latecomer), 1u) << where;
    ASSERT_EQ(got.workers.size(), want.workers.size()) << where;
    for (const auto& [id, w] : want.workers) {
      const auto it = got.workers.find(id);
      ASSERT_NE(it, got.workers.end()) << where << " worker " << id;
      EXPECT_EQ(it->second.sensitivity, w.sensitivity) << where << " worker " << id;
      EXPECT_EQ(it->second.specificity, w.specificity) << where << " worker " << id;
      EXPECT_EQ(it->second.num_votes, w.num_votes) << where << " worker " << id;
    }
    for (size_t shard = 0; shard < filtered.num_shards(); ++shard) {
      const uint64_t start = store.shard_start(shard);
      const Status lent = filtered.WithShard(shard, [&](const aggregate::VoteShardView& view) {
        for (size_t i = 0; i < view.size(); ++i) {
          EXPECT_TRUE(same_votes(view[i], surviving[start + i])) << where << " pair " << start + i;
          EXPECT_EQ(aggregate::PosteriorMatchProbability(view[i], got),
                    want.match_probability[start + i])
              << where << " pair " << start + i;
        }
        return Status::OK();
      });
      ASSERT_TRUE(lent.ok()) << lent.ToString();
    }
  }
}

TEST(WorkerSlotsTest, FirstSeenOrderOverAnyIdSpace) {
  aggregate::WorkerSlots slots;
  const std::vector<uint32_t> ids{7, UINT32_MAX, 0, 4000000000u, 3, UINT32_MAX - 1, 1500, 7};
  std::vector<uint32_t> got;
  for (uint32_t id : ids) got.push_back(slots.Insert(id));
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 0}));
  EXPECT_EQ(slots.size(), 7u);
  for (uint32_t slot = 0; slot < slots.size(); ++slot) {
    EXPECT_EQ(slots.Find(slots.id(slot)), slot);
  }
  EXPECT_EQ(slots.Find(8), aggregate::WorkerSlots::kNone);
  EXPECT_EQ(slots.Find(UINT32_MAX - 2), aggregate::WorkerSlots::kNone);
}

// ---------------------------------------------------------------------------
// Oracle 4: the answer closure with hash-set enemy constraints.
// ---------------------------------------------------------------------------

class OracleAnswerClosure {
 public:
  explicit OracleAnswerClosure(uint32_t num_records)
      : num_records_(num_records), dsu_(num_records) {}

  void AddAnswer(uint32_t a, uint32_t b, bool is_match) {
    if (a == b || a >= num_records_ || b >= num_records_) return;
    ++num_answers_;
    uint32_t ra = dsu_.Find(a);
    uint32_t rb = dsu_.Find(b);

    if (!is_match) {
      if (ra == rb) {
        ++num_contradictions_;
        return;
      }
      enemies_[ra].insert(rb);
      enemies_[rb].insert(ra);
      return;
    }

    if (ra == rb) return;
    auto between = enemies_.find(ra);
    if (between != enemies_.end() && between->second.count(rb) != 0) {
      ++num_contradictions_;
      between->second.erase(rb);
      enemies_[rb].erase(ra);
    }
    dsu_.Union(ra, rb);
    const uint32_t winner = dsu_.Find(ra);
    const uint32_t loser = winner == ra ? rb : ra;

    auto retired = enemies_.find(loser);
    if (retired != enemies_.end()) {
      for (const uint32_t enemy : retired->second) {
        enemies_[enemy].erase(loser);
        enemies_[enemy].insert(winner);
        enemies_[winner].insert(enemy);
      }
      enemies_.erase(retired);
    }
  }

  std::optional<bool> Infer(uint32_t a, uint32_t b) {
    if (a >= num_records_ || b >= num_records_) return std::nullopt;
    if (a == b) return true;
    const uint32_t ra = dsu_.Find(a);
    const uint32_t rb = dsu_.Find(b);
    if (ra == rb) return true;
    const auto it = enemies_.find(ra);
    if (it != enemies_.end() && it->second.count(rb) != 0) return false;
    return std::nullopt;
  }

  uint64_t num_answers() const { return num_answers_; }
  uint64_t num_contradictions() const { return num_contradictions_; }

  void Reset() {
    dsu_ = graph::UnionFind(num_records_);
    enemies_.clear();
    num_answers_ = 0;
    num_contradictions_ = 0;
  }

 private:
  uint32_t num_records_;
  graph::UnionFind dsu_;
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> enemies_;
  uint64_t num_answers_ = 0;
  uint64_t num_contradictions_ = 0;
};

struct Answer {
  uint32_t a;
  uint32_t b;
  bool is_match;
};

// A random answer stream over `n` records with the shapes that stress the
// enemy re-keying: a hub voted apart from 50+ records (its root is then
// retired into a larger cluster), constraints both merging sides carry, and
// noisy answers that contradict the closure in both directions.
std::vector<Answer> RandomAnswers(Rng* rng, uint32_t n) {
  std::vector<Answer> answers;
  const auto record = [&] { return static_cast<uint32_t>(rng->Uniform(n)); };
  // The hub: 0 against 60 distinct records, while 1..4 form a cluster.
  for (uint32_t e = 10; e < 70; ++e) answers.push_back({0, e, false});
  for (uint32_t r = 2; r <= 4; ++r) answers.push_back({1, r, true});
  // Constraints both sides carry before they merge.
  for (uint32_t e = 20; e < 30; ++e) answers.push_back({1, e, false});
  answers.push_back({0, 1, true});  // the hub's root retires into 1's cluster
  const size_t random = 200 + rng->Uniform(400);
  for (size_t i = 0; i < random; ++i) {
    answers.push_back({record(), record(), rng->Bernoulli(0.35)});
  }
  // More hubs, retired one after another.
  for (uint32_t hub = 100; hub < 103; ++hub) {
    for (size_t k = 0; k < 55; ++k) answers.push_back({hub, record(), false});
    answers.push_back({hub, record(), true});
  }
  return answers;
}

void ExpectSameClosure(graph::AnswerClosure* got, OracleAnswerClosure* want, uint32_t n,
                       const std::string& where) {
  EXPECT_EQ(got->num_answers(), want->num_answers()) << where;
  EXPECT_EQ(got->num_contradictions(), want->num_contradictions()) << where;
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      ASSERT_EQ(got->Infer(a, b), want->Infer(a, b)) << where << " pair " << a << "," << b;
    }
  }
}

TEST(AnswerClosureOracleTest, EnemyListsMatchTheHashSetClosure) {
  Rng rng(4404);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = 120 + static_cast<uint32_t>(rng.Uniform(120));
    const std::vector<Answer> answers = RandomAnswers(&rng, n);
    graph::AnswerClosure got(n);
    OracleAnswerClosure want(n);
    const std::string where = "trial " + std::to_string(trial);
    for (size_t i = 0; i < answers.size(); ++i) {
      got.AddAnswer(answers[i].a, answers[i].b, answers[i].is_match);
      want.AddAnswer(answers[i].a, answers[i].b, answers[i].is_match);
      EXPECT_EQ(got.num_contradictions(), want.num_contradictions()) << where << " answer " << i;
      if (i % 97 == 0) ExpectSameClosure(&got, &want, n, where + " answer " + std::to_string(i));
    }
    ExpectSameClosure(&got, &want, n, where + " end");

    // Reset, then replay a prefix: the retraction contract's rebuild.
    got.Reset();
    want.Reset();
    ExpectSameClosure(&got, &want, n, where + " reset");
    const size_t replay = answers.size() / 2 + rng.Uniform(answers.size() / 2);
    for (size_t i = 0; i < replay; ++i) {
      got.AddAnswer(answers[i].a, answers[i].b, answers[i].is_match);
      want.AddAnswer(answers[i].a, answers[i].b, answers[i].is_match);
    }
    ExpectSameClosure(&got, &want, n, where + " replay");
  }
}

}  // namespace
}  // namespace crowder

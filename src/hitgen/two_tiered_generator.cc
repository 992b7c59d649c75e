#include "hitgen/two_tiered_generator.h"

#include <algorithm>
#include <unordered_set>

namespace crowder {
namespace hitgen {

namespace {

// Picks the seed vertex of each new part within one LCC: the alive vertex
// of maximum alive degree (smallest id on ties), or with SeedRule::kFirst
// the smallest-id alive vertex; -1 once the component has no alive edge.
//
// Inside PartitionLcc degrees only ever fall (edges are removed, never
// revived), which makes both rules incremental. kMaxDegree keeps a lazy
// max-heap of (degree, id) entries, one per vertex, each recording a degree
// at least the vertex's current one: a top entry whose degree is still
// current beats every other vertex's current degree, and a stale one is
// re-pushed at its current degree (or dropped at zero). kFirst walks a
// cursor forward over the ascending LCC, since a vertex that reached degree
// zero stays there.
class SeedPicker {
 public:
  SeedPicker(const graph::PairGraph& graph, const std::vector<uint32_t>& lcc,
             PartitionOptions::SeedRule rule)
      : graph_(graph), lcc_(lcc), rule_(rule) {
    if (rule_ != PartitionOptions::SeedRule::kMaxDegree) return;
    heap_.reserve(lcc.size());
    for (uint32_t v : lcc) {
      const uint32_t d = graph.AliveDegree(v);
      if (d > 0) heap_.push_back(Entry(d, v));
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  int64_t Next() {
    if (rule_ == PartitionOptions::SeedRule::kFirst) {
      while (cursor_ < lcc_.size() && graph_.AliveDegree(lcc_[cursor_]) == 0) ++cursor_;
      return cursor_ < lcc_.size() ? static_cast<int64_t>(lcc_[cursor_]) : -1;
    }
    while (!heap_.empty()) {
      const uint32_t v = Vertex(heap_.front());
      const uint32_t d = graph_.AliveDegree(v);
      if (d == Degree(heap_.front())) return v;
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      if (d > 0) {
        heap_.push_back(Entry(d, v));
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
    return -1;
  }

 private:
  // Degree in the high half, inverted id in the low half: the largest key
  // is the largest degree, then the smallest id.
  static uint64_t Entry(uint32_t degree, uint32_t v) {
    return (static_cast<uint64_t>(degree) << 32) | (UINT32_MAX - v);
  }
  static uint32_t Degree(uint64_t entry) { return static_cast<uint32_t>(entry >> 32); }
  static uint32_t Vertex(uint64_t entry) {
    return UINT32_MAX - static_cast<uint32_t>(entry & UINT32_MAX);
  }

  const graph::PairGraph& graph_;
  const std::vector<uint32_t>& lcc_;
  const PartitionOptions::SeedRule rule_;
  std::vector<uint64_t> heap_;
  size_t cursor_ = 0;
};

}  // namespace

std::vector<std::vector<uint32_t>> PartitionLcc(graph::PairGraph* graph,
                                                const std::vector<uint32_t>& lcc, uint32_t k,
                                                const PartitionOptions& options) {
  std::vector<std::vector<uint32_t>> parts;
  std::vector<char> in_scc(graph->num_vertices(), 0);
  std::vector<char> in_conn(graph->num_vertices(), 0);
  // indegree[r] = alive edges from r into the part under construction,
  // maintained incrementally as vertices join, so candidates are ranked
  // without rescanning adjacency. Per part: O(log |lcc|) for the seed plus
  // one heap re-push per stale entry met (at most one per degree drop),
  // O(k · |conn|) for the candidate scans, and O(sum degree) of the part's
  // vertices for growing conn and for RemoveEdgesCoveredBy.
  std::vector<uint32_t> indegree(graph->num_vertices(), 0);
  SeedPicker seeds(*graph, lcc, options.seed_rule);

  // Outer loop of Algorithm 2: one highly-connected part per iteration.
  for (;;) {
    const int64_t seed = seeds.Next();
    if (seed < 0) break;  // no alive edges remain in this component

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
      // Candidate with maximum indegree; ties by minimum outdegree (if
      // enabled), then smallest id for determinism.
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

    // Emit the part and remove the edges it covers (Algorithm 2 lines 13-14).
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

Result<std::vector<ClusterBasedHit>> TwoTieredGenerator::Generate(graph::PairGraph* graph,
                                                                  uint32_t k) {
  CROWDER_RETURN_NOT_OK(ValidateGenerateArgs(graph, k));

  // Initial step (Algorithm 1 lines 2-4): split components by size.
  std::vector<graph::Component> components = graph::ConnectedComponents(*graph);
  graph::SplitComponents split = graph::SplitBySize(std::move(components), k);

  // Top tier (line 5): partition every LCC into small components.
  std::vector<std::vector<uint32_t>> sccs = std::move(split.small);
  for (const auto& lcc : split.large) {
    auto parts = PartitionLcc(graph, lcc, k, options_.partition);
    for (auto& part : parts) sccs.push_back(std::move(part));
  }

  // Bottom tier (line 6): pack all small components into HITs.
  CROWDER_ASSIGN_OR_RETURN(auto hits, PackSccs(sccs, k, options_.packing));

  // Natural small components were packed whole; mark their edges consumed so
  // the post-condition (no alive edges) matches the other generators.
  for (const auto& hit : hits) {
    graph->RemoveEdgesCoveredBy(hit.records);
  }
  CROWDER_DCHECK(!graph->HasAliveEdges());
  return hits;
}

}  // namespace hitgen
}  // namespace crowder

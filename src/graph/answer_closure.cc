#include "graph/answer_closure.h"

#include <algorithm>
#include <iterator>

namespace crowder {
namespace graph {

AnswerClosure::AnswerClosure(uint32_t num_records)
    : num_records_(num_records), dsu_(num_records), enemies_(num_records) {}

void AnswerClosure::AddEnemy(uint32_t root, uint32_t enemy) {
  std::vector<uint32_t>& list = enemies_[root];
  const auto it = std::lower_bound(list.begin(), list.end(), enemy);
  if (it == list.end() || *it != enemy) list.insert(it, enemy);
}

void AnswerClosure::RemoveEnemy(uint32_t root, uint32_t enemy) {
  std::vector<uint32_t>& list = enemies_[root];
  const auto it = std::lower_bound(list.begin(), list.end(), enemy);
  if (it != list.end() && *it == enemy) list.erase(it);
}

bool AnswerClosure::AreEnemies(uint32_t ra, uint32_t rb) const {
  // The relation is stored symmetrically; search the shorter list.
  const std::vector<uint32_t>& a = enemies_[ra];
  const std::vector<uint32_t>& b = enemies_[rb];
  return a.size() <= b.size() ? std::binary_search(a.begin(), a.end(), rb)
                              : std::binary_search(b.begin(), b.end(), ra);
}

void AnswerClosure::AddAnswer(uint32_t a, uint32_t b, bool is_match) {
  if (a == b || a >= num_records_ || b >= num_records_) return;
  ++num_answers_;
  uint32_t ra = dsu_.Find(a);
  uint32_t rb = dsu_.Find(b);

  if (!is_match) {
    if (ra == rb) {
      // Connected but voted apart: match evidence dominates (file comment).
      ++num_contradictions_;
      return;
    }
    AddEnemy(ra, rb);
    AddEnemy(rb, ra);
    return;
  }

  if (ra == rb) return;  // already implied; nothing to fold
  if (AreEnemies(ra, rb)) {
    // The clusters were enemy-constrained and are now voted together: the
    // union wins, the constraint dies.
    ++num_contradictions_;
    RemoveEnemy(ra, rb);
    RemoveEnemy(rb, ra);
  }
  dsu_.Union(ra, rb);
  const uint32_t winner = dsu_.Find(ra);
  const uint32_t loser = winner == ra ? rb : ra;

  // Re-key the retired root's enemy constraints under the surviving root so
  // every stored endpoint remains a current root: each enemy swaps the
  // loser for the winner, and the winner's list becomes the sorted union of
  // both. A constraint both sides carried is deduplicated by the union; a
  // constraint that would now point at the winner itself cannot exist (it
  // was erased above).
  std::vector<uint32_t>& retired = enemies_[loser];
  if (retired.empty()) return;
  for (const uint32_t enemy : retired) {
    RemoveEnemy(enemy, loser);
    AddEnemy(enemy, winner);
  }
  std::vector<uint32_t>& kept = enemies_[winner];
  merged_.clear();
  std::set_union(kept.begin(), kept.end(), retired.begin(), retired.end(),
                 std::back_inserter(merged_));
  kept.swap(merged_);
  std::vector<uint32_t>().swap(retired);  // a retired root never returns
}

std::optional<bool> AnswerClosure::Infer(uint32_t a, uint32_t b) {
  if (a >= num_records_ || b >= num_records_) return std::nullopt;
  if (a == b) return true;
  const uint32_t ra = dsu_.Find(a);
  const uint32_t rb = dsu_.Find(b);
  if (ra == rb) return true;
  if (AreEnemies(ra, rb)) return false;
  return std::nullopt;
}

void AnswerClosure::Reset() {
  dsu_ = UnionFind(num_records_);
  for (std::vector<uint32_t>& list : enemies_) list.clear();
  num_answers_ = 0;
  num_contradictions_ = 0;
}

}  // namespace graph
}  // namespace crowder

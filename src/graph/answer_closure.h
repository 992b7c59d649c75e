/// \file
/// \brief `AnswerClosure`: the transitive closure of crowd answers — the
/// inference substrate of adaptive question selection (core/question_policy.h).
///
/// Entity resolution answers are not independent facts: "same entity" is an
/// equivalence relation, so answered pairs *imply* unanswered ones.
/// AnswerClosure maintains both halves of that implication over answers as
/// they arrive:
///
///  * **positive closure** — match answers union their records' clusters
///    (a disjoint-set forest), so any pair within one cluster is an implied
///    match;
///  * **negative closure** — a non-match answer records a symmetric *enemy*
///    constraint between the two clusters, so any pair spanning an
///    enemy-constrained cluster boundary is an implied non-match.
///
/// `Infer(a, b)` answers from the closure when it can — the pairs the
/// adaptive policy never sends to the crowd ("Select Your Questions Wisely",
/// Yalavarthi et al.; query-complexity bounds in Mazumdar-Saha, PAPERS.md).
///
/// **Contradiction policy (match dominance).** Noisy crowds produce answer
/// sets no equivalence relation satisfies. The closure resolves every
/// conflict in favor of the match evidence: a match answer always unions
/// (an enemy constraint between the two clusters is dropped and counted in
/// num_contradictions()), and a non-match answer on an already-connected
/// pair is recorded as a contradiction but changes nothing. Under this
/// policy `Infer` is **order-invariant**: the final clustering is the
/// connectivity closure of all match answers (unions commute), and an enemy
/// constraint survives if and only if its two sides end in different final
/// clusters — both facts independent of arrival order. The property test in
/// tests/question_policy_test.cc pins order-invariance and, for answer sets
/// drawn from a ground-truth partition, soundness (every inferred verdict
/// equals the oracle's).
///
/// **Retraction.** The closure cannot un-union (no DSU can, cheaply).
/// When answers are revised — a banned worker's votes flip a pair's
/// majority — the owner rebuilds from the surviving answers: `Reset()` and
/// replay (the driver keeps the asked-pair log; see the retraction contract
/// in docs/ARCHITECTURE.md).
#ifndef CROWDER_GRAPH_ANSWER_CLOSURE_H_
#define CROWDER_GRAPH_ANSWER_CLOSURE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/union_find.h"

namespace crowder {
namespace graph {

/// \brief Positive (union-find) + negative (cross-cluster constraint)
/// transitive closure over answered record pairs. See the file comment for
/// the inference semantics and the contradiction policy.
///
/// Not thread-safe. Find/Infer path-compress, so even reads are non-const.
class AnswerClosure {
 public:
  /// \brief An empty closure over record ids [0, num_records).
  explicit AnswerClosure(uint32_t num_records);

  /// \brief Folds one answered pair in: `is_match` unions a's and b's
  /// clusters (dropping any enemy constraint between them — a counted
  /// contradiction); `!is_match` adds an enemy constraint between the
  /// clusters (ignored, as a counted contradiction, when they are already
  /// connected). a == b is ignored.
  void AddAnswer(uint32_t a, uint32_t b, bool is_match);

  /// \brief What the answers so far imply about (a, b): true when the
  /// records share a cluster, false when their clusters are
  /// enemy-constrained, nullopt when the closure cannot tell.
  std::optional<bool> Infer(uint32_t a, uint32_t b);

  /// \brief Records in `record`'s cluster (>= 1) — the component-size
  /// half of the policy's information-gain heuristic.
  uint32_t ClusterSize(uint32_t record) { return dsu_.SetSize(record); }

  /// \brief Answers folded in since construction / the last Reset.
  uint64_t num_answers() const { return num_answers_; }

  /// \brief Answers that conflicted with the closure's prior state (see the
  /// contradiction policy). Diagnostic only — unlike Infer's results, this
  /// count can depend on arrival order.
  uint64_t num_contradictions() const { return num_contradictions_; }

  /// \brief Forgets every answer — the rebuild entry point of the
  /// retraction contract (replay the surviving answers after a revision).
  void Reset();

 private:
  /// Adds `enemy` to root `root`'s sorted enemy list (no-op if present).
  void AddEnemy(uint32_t root, uint32_t enemy);
  /// Removes `enemy` from root `root`'s sorted enemy list (no-op if absent).
  void RemoveEnemy(uint32_t root, uint32_t enemy);
  /// Whether roots `ra` and `rb` carry an enemy constraint.
  bool AreEnemies(uint32_t ra, uint32_t rb) const;

  uint32_t num_records_;
  UnionFind dsu_;
  /// Symmetric enemy constraints between *current* cluster roots:
  /// enemies_[r] is the ascending, duplicate-free list of every root with a
  /// non-match answer across to r (empty for non-roots). Both directions are
  /// stored; AddAnswer re-keys entries whenever a union retires a root, so
  /// lookups never see a stale root.
  std::vector<std::vector<uint32_t>> enemies_;
  /// Scratch for merging a retired root's list into the winner's.
  std::vector<uint32_t> merged_;
  uint64_t num_answers_ = 0;
  uint64_t num_contradictions_ = 0;
};

}  // namespace graph
}  // namespace crowder

#endif  // CROWDER_GRAPH_ANSWER_CLOSURE_H_

// Similarity join: find all record pairs whose token-set similarity is at or
// above a threshold. This is CrowdER's machine pass ("simjoin", §7.1); the
// paper's footnote 1 and refs [2,5,26] note that indexing avoids the
// all-pairs comparison, which the AllPairs prefix-filtering join implements.
#ifndef CROWDER_SIMILARITY_SIMILARITY_JOIN_H_
#define CROWDER_SIMILARITY_SIMILARITY_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "similarity/set_similarity.h"

namespace crowder {
namespace similarity {

/// \brief A candidate record pair with its machine likelihood.
/// Invariant: a < b (record indices into the join input).
struct ScoredPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double score = 0.0;

  friend bool operator==(const ScoredPair& x, const ScoredPair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// \brief Sorts by (a, b); used to canonicalize join outputs for comparison.
void SortPairs(std::vector<ScoredPair>* pairs);

/// \brief Input to a join: one token set per record, plus optional source
/// labels. When `sources` is non-empty (same length as `sets`), only pairs
/// with *different* labels are emitted — the Abt-Buy Product dataset joins
/// records across two web sources and never within one source. When empty,
/// the join is a self-join over all records.
struct JoinInput {
  std::vector<TokenSet> sets;
  std::vector<int> sources;
};

/// \brief Join configuration.
struct JoinOptions {
  SetMeasure measure = SetMeasure::kJaccard;
  double threshold = 0.3;
};

/// \brief Observability counters a join fills when handed one (purely
/// additive — never part of the result or the byte-identity contract). Each
/// is a pure function of (input, options): identical at every thread count,
/// chunk size and block size. The join benches report them so kernel-level
/// regressions show up without an end-to-end run.
struct JoinStats {
  /// Candidate pairs that reached the verify step (an intersection was
  /// computed, fully or until the threshold-aware early exit).
  uint64_t pair_verifications = 0;
  /// Prefix-index postings the probes read (after the size filter).
  uint64_t postings_scanned = 0;
  /// Distinct pairs the probes touched, before the positional filter.
  uint64_t candidates = 0;

  JoinStats& operator+=(const JoinStats& other) {
    pair_verifications += other.pair_verifications;
    postings_scanned += other.postings_scanned;
    candidates += other.candidates;
    return *this;
  }
};

/// \brief Reference implementation: compares every admissible pair.
/// O(n^2) — used for small inputs, tests, and the ablation baseline.
/// Contract shared with AllPairsJoin: at a positive threshold a pair of two
/// empty token sets is never emitted (no matching evidence), even though
/// every measure scores it 1.0.
Result<std::vector<ScoredPair>> NaiveJoin(const JoinInput& input, const JoinOptions& options,
                                          JoinStats* stats = nullptr);

/// \brief Prefix-filtering join (PPJoin: an inverted index over rare-token
/// prefixes with size, positional and suffix-only verification filters).
/// Produces exactly the same pairs and scores as NaiveJoin
/// (property-tested), typically orders of magnitude faster at realistic
/// thresholds.
Result<std::vector<ScoredPair>> AllPairsJoin(const JoinInput& input, const JoinOptions& options,
                                             JoinStats* stats = nullptr);

/// \brief Validates a JoinInput/JoinOptions combination (threshold in [0,1],
/// source labels consistent). Shared by both join implementations.
Status ValidateJoin(const JoinInput& input, const JoinOptions& options);

}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_SIMILARITY_JOIN_H_

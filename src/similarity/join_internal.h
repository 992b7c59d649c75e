// Internal prefix-filtering machinery behind every batch join: the serial
// AllPairsJoin (similarity_join.cc), the parallel and blocked joins
// (parallel_join.cc) and the shard worker (shard/worker.cc). Not part of the
// public similarity API — include only from similarity/*.cc, shard/*.cc and
// tests.
//
// All of them are thin drivers of ONE probe kernel, ProbePositions, over ONE
// prefix index that BuildJoinPlan builds up front. A driver only chooses
// which size-ordered positions probe (all of them, a chunk, a block, or a
// shard's owned records); each probe accepts partners at earlier positions
// only, so every unordered pair is probed exactly once, by its later
// endpoint, whatever the split. The kernel is PPJoin (Xiao et al., WWW 2008)
// with three exact filters — see docs/ARCHITECTURE.md, "One probe kernel",
// and the comments on JoinPlan and ProbePositions.
#ifndef CROWDER_SIMILARITY_JOIN_INTERNAL_H_
#define CROWDER_SIMILARITY_JOIN_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {
namespace internal {

/// \brief One prefix-index entry: the indexed record's by_size position and
/// the offset of the indexed token within its rank-sorted list.
struct Posting {
  uint32_t pos = 0;
  uint32_t offset = 0;
};

/// \brief A run of postings under one token rank that all carry the same
/// source label. Its postings are postings[begin, next segment's begin),
/// ascending by position.
struct Segment {
  size_t begin = 0;
  int source = 0;
};

/// \brief Everything the join precomputes before pairing, as a pure function
/// of (input, options): rare-first re-ranked token lists in one flat arena,
/// laid out in the canonical size order, and the prefix index over them.
///
/// Positions: record by_size[p] sits at position p; sizes are non-decreasing
/// in p (stable, so equal sizes keep id order). Every array below is indexed
/// by position, so the kernel never chases a record id until it emits a pair.
///
/// The prefix index is a flat CSR layout keyed by token rank. Rank r owns
/// segments[rank_segments[r], rank_segments[r + 1]); each segment is the
/// rank's postings of one source label, ascending by position. A
/// cross-source probe skips its own label's segment without reading it. The
/// segment table has at most one entry per posting (plus a sentinel), so it
/// grows with the number of postings, never with num_ranks × num_sources.
///
/// A record y indexes only |y| − RequiredOverlapExact(|y|, |y|) + 1 tokens:
/// every probe of y comes from a later position, whose size |x| ≥ |y|, and
/// the required overlap never falls as one side grows (for all four
/// measures), so the prefix-filtering lemma at (|x|, |y|) needs no more of
/// y than this.
struct JoinPlan {
  SetMeasure measure = SetMeasure::kJaccard;
  double threshold = 0.0;
  /// Record ids in canonical processing order: by_size[p] is at position p.
  std::vector<uint32_t> by_size;
  /// All records' tokens re-expressed as global rare-first ranks; position p
  /// occupies arena[offset[p], offset[p + 1]), sorted ascending.
  std::vector<uint32_t> arena;
  /// n + 1 offsets into `arena` (offset[n] == arena.size()).
  std::vector<size_t> offset;
  /// Per position: the record's source label (empty for a self-join).
  std::vector<int> source;
  /// The prefix index (see above): postings grouped into segments, and
  /// num_ranks + 1 offsets into `segments`. segments.back() is a sentinel
  /// whose begin == postings.size().
  std::vector<Posting> postings;
  std::vector<Segment> segments;
  std::vector<size_t> rank_segments;

  size_t num_positions() const { return by_size.size(); }

  /// \brief The rank-sorted token list at position `pos` as an arena span.
  TokenSpan ranked(size_t pos) const {
    return TokenSpan(arena.data() + offset[pos], offset[pos + 1] - offset[pos]);
  }

  /// \brief Size of the record at position `pos` (== its token-set size).
  size_t size(size_t pos) const { return offset[pos + 1] - offset[pos]; }
};

/// \brief Builds the plan and its prefix index. Requires options.threshold >
/// 0 (the zero-threshold case degenerates to the exhaustive join in every
/// caller) and a validated input (ValidateJoin).
JoinPlan BuildJoinPlan(const JoinInput& input, const JoinOptions& options);

/// \brief The probe kernel. Probes the records at positions [begin, end)
/// against the prefix index, accepting partners at earlier positions only,
/// and appends every qualifying pair — record ids (min, max) and the exact
/// score — to `out`. Adds its work to `stats` (never null). Thread-safe on a
/// shared plan: scratch is per thread.
///
/// Exact, i.e. bitwise the pairs and scores of NaiveJoin, because each of its
/// filters only drops pairs that cannot qualify:
///  * Size and prefix filter: a probe x scans its ComputePrefixBounds
///    prefix, and only postings of partners with |y| ≥ min_partner(|x|).
///  * Positional filter: with `count` the matches seen so far on a
///    candidate, a match at x offset i and y offset j bounds the total
///    overlap by count + 1 + min(|x|−i−1, |y|−j−1); below the pair's
///    RequiredOverlapExact the candidate is dropped for good.
///  * Suffix-only verification: every common token up to the last match is
///    a match the probe counted (x's tokens there are all probed, y's all
///    indexed), and tokens are sorted, so the full overlap is count plus
///    the overlap of the two suffixes after the last match. The suffixes
///    are intersected by OverlapSizeAtLeast against the required overlap
///    less count, and the score is SimilarityFromOverlap of the full
///    overlap — the measure's own double arithmetic on the same integers.
void ProbePositions(const JoinPlan& plan, size_t begin, size_t end,
                    std::vector<ScoredPair>* out, JoinStats* stats);

/// \brief The per-record bounds of the probe side, shared with the shard
/// planner (its replica bands) and the incremental index
/// (serve/incremental_index.h, which probes and indexes the same prefix in
/// arrival order). Pure function of (measure, threshold, size); threshold
/// must be > 0.
///
/// The bounds are order-symmetric: the prefix-filtering lemma they encode
/// ("two qualifying records must share a token within their first
/// size - alpha + 1 tokens under any one total token order") does not
/// depend on which record is probing and which is indexed, only on both
/// sides using prefixes at least this long under the *same* token order.
struct PrefixBounds {
  /// Tokens of the record's rank-sorted list that it probes with (0 for an
  /// empty record, which never pairs at a positive threshold).
  size_t prefix_len = 0;
  /// Minimum ranked-size an admissible partner can have.
  size_t min_partner = 1;
};

/// \brief Computes the bounds for one record of `size` tokens. See
/// PrefixBounds for the contract.
PrefixBounds ComputePrefixBounds(SetMeasure measure, double threshold, size_t size);

/// \brief The shared threshold-aware verify step: decides `sim(a, b) >=
/// threshold` and, when it holds, leaves the score in `*sim` — while
/// allowing the intersection to exit early on unpromising pairs.
///
/// Bitwise equal to "intersect fully, compute the measure, compare":
///  * RequiredOverlapExact makes `overlap >= required ⟺ sim >= threshold`
///    exact in the measure's own double arithmetic, so the early exit can
///    only fire on pairs the full computation would reject;
///  * when the pair qualifies, OverlapSizeAtLeast has returned the exact
///    overlap, and SimilarityFromOverlap replays the measure's exact double
///    operations on it.
inline bool VerifyPair(SetMeasure measure, double threshold, TokenSpan a, TokenSpan b,
                       double* sim) {
  const size_t required = RequiredOverlapExact(measure, a.size(), b.size(), threshold);
  const size_t overlap = OverlapSizeAtLeast(a, b, required);
  if (overlap < required) return false;
  *sim = SimilarityFromOverlap(measure, a.size(), b.size(), overlap);
  return true;
}

}  // namespace internal
}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_JOIN_INTERNAL_H_

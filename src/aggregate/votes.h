/// \file
/// \brief The vote data model shared between the crowd simulator (producer)
/// and the answer aggregators (consumers): per candidate pair, the yes/no
/// verdicts of the individual workers who judged it.
///
/// **The pair-indexing contract.** A VoteTable carries no pair identities:
/// `votes[i]` is "every vote on pair *i*", where the index space is defined
/// by the producer — the workflow uses the position of each pair in the
/// (a, b)-sorted surviving pair list P. Every aggregator output
/// (`MajorityVote`, `DawidSkeneResult::match_probability`) is aligned to the
/// same index space. This implicit alignment is what made the vote table
/// hard to shard: slicing P into partitions re-bases the indices, so a
/// partitioned table must remember, per shard, which contiguous index range
/// it covers (see `VoteShardSource` in aggregate/partitioned.h and the
/// spill-backed store in core/partition.h).
#ifndef CROWDER_AGGREGATE_VOTES_H_
#define CROWDER_AGGREGATE_VOTES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \brief Root namespace of the CrowdER reproduction.
namespace crowder {
/// \brief Answer aggregation: the vote data model, majority voting, and
/// Dawid-Skene EM — materialized and partition-aware.
namespace aggregate {

/// \brief One worker's verdict on one candidate pair.
struct Vote {
  /// Pool id of the worker who cast the vote (answer provenance; feeds the
  /// per-worker confusion estimates of Dawid-Skene).
  uint32_t worker_id = 0;
  /// The verdict: true = "these two records are the same entity".
  bool says_match = false;
};

/// \brief `votes[i]` holds every vote cast on pair *i*, in cast order (pair
/// indexing is defined by the caller; the workflow uses the order of the
/// surviving pair list — see the file comment for the contract).
using VoteTable = std::vector<std::vector<Vote>>;

/// \brief A read-only run of one pair's votes, in cast order: a row of a
/// VoteTable or a slice of a flat vote array (aggregate::VoteShardView).
/// Does not own the votes.
class VoteSpan {
 public:
  /// \brief The empty span.
  VoteSpan() = default;
  /// \brief The votes `[begin, end)`.
  VoteSpan(const Vote* begin, const Vote* end) : begin_(begin), end_(end) {}
  /// \brief One VoteTable row (implicit, so every row-taking caller works).
  VoteSpan(const std::vector<Vote>& row)  // NOLINT(runtime/explicit)
      : begin_(row.data()), end_(row.data() + row.size()) {}

  const Vote* begin() const { return begin_; }  ///< first vote
  const Vote* end() const { return end_; }      ///< one past the last vote
  /// \brief Number of votes.
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  /// \brief Whether the pair has no votes.
  bool empty() const { return begin_ == end_; }
  /// \brief The `i`-th vote in cast order.
  const Vote& operator[](std::size_t i) const { return begin_[i]; }

 private:
  const Vote* begin_ = nullptr;
  const Vote* end_ = nullptr;
};

/// \brief The match probability assigned to a pair no worker ever judged:
/// never asked means never confirmed, so the pair ranks below every judged
/// pair rather than defaulting to "maybe".
///
/// This single constant is the one place that policy lives; both aggregators
/// (majority vote and Dawid-Skene, materialized and sharded) route their
/// voteless-pair handling through it / `MajorityMatchProbability`, which
/// previously existed as duplicated skip logic in each aggregator.
inline constexpr double kUnjudgedMatchProbability = 0.0;

/// \brief Fraction of yes votes on one pair — the majority-vote probability
/// and the Dawid-Skene E-step initialization. Voteless pairs get
/// `kUnjudgedMatchProbability`.
inline double MajorityMatchProbability(VoteSpan pair_votes) {
  if (pair_votes.empty()) return kUnjudgedMatchProbability;
  std::size_t yes = 0;
  for (const Vote& v : pair_votes) yes += v.says_match ? 1 : 0;
  return static_cast<double>(yes) / static_cast<double>(pair_votes.size());
}

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_VOTES_H_

/// \file
/// \brief Partition-aware answer aggregation: majority vote and Dawid-Skene
/// EM over a *sharded* vote table, so the full table never has to be
/// resident.
///
/// The vote table's pair-indexing contract (aggregate/votes.h) aligns
/// `votes[i]` with pair *i* of the surviving pair list. A sharded table
/// slices that index space into contiguous ranges — shard *s* covers global
/// pair indices `[start_s, start_s + size_s)` — and exposes them through
/// `VoteShardSource`, which lends one shard at a time (typically from a
/// spill file; see `VoteShardStore` in core/partition.h). Aggregation then
/// runs with only **one resident shard plus O(#workers) model state**:
///
///  * Majority vote needs no fit: `MajorityMatchProbability` scores each
///    lent pair independently, so reading it shard by shard is
///    bitwise-identical to `MajorityVote` on the concatenated table at any
///    partitioning.
///  * `FitDawidSkeneSharded` runs the EM of `RunDawidSkene` as repeated
///    passes over the shard sequence. The trick that removes the O(|P|)
///    posterior vector entirely: the E-step posterior of a pair is a pure
///    function of (its votes, the previous iteration's worker model), so
///    each M-step pass *recomputes* the posteriors shard-by-shard from the
///    previous model instead of storing them. Because shards partition the
///    index space in order, every floating-point accumulation (worker
///    confusion masses, the class prior) happens in exactly the order the
///    materialized loop uses — the fitted model, iteration count, and
///    convergence flag are bitwise-identical, and `RunDawidSkene` itself is
///    now a thin single-shard wrapper over this implementation.
///
/// `PosteriorMatchProbability` exposes the E-step arithmetic so consumers
/// (the wrapper, the workflow's final ranked pass) can materialize
/// posteriors for any shard from the fitted model on demand.
#ifndef CROWDER_AGGREGATE_PARTITIONED_H_
#define CROWDER_AGGREGATE_PARTITIONED_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aggregate/dawid_skene.h"
#include "aggregate/votes.h"
#include "common/result.h"

namespace crowder {
namespace aggregate {

/// \brief One shard's votes as a VoteShardSource lends them: pair `i`
/// (local index; 0 is the shard's first global pair) has the votes
/// `view[i]`, in cast order. Two layouts behind one reader: rows of a
/// VoteTable read in place (InMemoryVoteShards), or one flat vote array cut
/// by per-pair offsets (VoteShardStore, FilteredVoteShardSource). Borrows
/// its storage; valid only inside the WithShard call that lends it.
class VoteShardView {
 public:
  /// \brief `num_pairs` VoteTable rows starting at `rows`, read in place.
  VoteShardView(const std::vector<Vote>* rows, size_t num_pairs)
      : rows_(rows), size_(num_pairs) {}
  /// \brief Pair `i`'s votes are `votes[offsets[i], offsets[i + 1])`;
  /// `offsets` holds `num_pairs + 1` entries.
  VoteShardView(const uint64_t* offsets, const Vote* votes, size_t num_pairs)
      : offsets_(offsets), votes_(votes), size_(num_pairs) {}

  /// \brief Pairs the shard covers.
  size_t size() const { return size_; }
  /// \brief The votes of local pair `i`, in cast order.
  VoteSpan operator[](size_t i) const {
    if (rows_ != nullptr) return rows_[i];
    return {votes_ + offsets_[i], votes_ + offsets_[i + 1]};
  }

 private:
  const std::vector<Vote>* rows_ = nullptr;
  const uint64_t* offsets_ = nullptr;
  const Vote* votes_ = nullptr;
  size_t size_ = 0;
};

/// \brief Reusable backing storage for a flat VoteShardView. Filling it for
/// the next shard keeps the vectors' capacity, so once the largest shard has
/// been seen, lending a shard allocates nothing.
struct FlatShardVotes {
  /// `offsets[i]` is where local pair `i`'s votes start; one extra entry
  /// holds the total.
  std::vector<uint64_t> offsets;
  /// Every vote of the shard, grouped by pair in local-index order.
  std::vector<Vote> votes;

  /// \brief The view over the current contents.
  VoteShardView View() const {
    return VoteShardView(offsets.data(), votes.data(), offsets.size() - 1);
  }
};

/// \brief Read interface over a vote table sharded into contiguous pair
/// ranges, in global pair order. Loads are repeatable (EM scans the shard
/// sequence once per iteration) and may perform disk I/O.
class VoteShardSource {
 public:
  virtual ~VoteShardSource() = default;  ///< virtual for interface use

  /// \brief Number of shards; shard ids are `[0, num_shards())` in global
  /// pair order.
  virtual size_t num_shards() const = 0;

  /// \brief Runs `fn` over shard `shard`, lent as a view whose local index
  /// 0 is the shard's first global pair. Per-pair vote order must be cast
  /// order (the order the materialized table would hold). The view lives
  /// until `fn` returns; a source may reuse its storage for the next shard,
  /// which is what keeps the EM's per-iteration shard sweep free of
  /// per-pair allocations. A shard id out of range is OutOfRange.
  virtual Status WithShard(size_t shard,
                           const std::function<Status(const VoteShardView&)>& fn) = 0;

  /// \brief Copies shard `shard` out as a VoteTable (inspection and tests;
  /// the aggregators read lent views).
  Result<VoteTable> LoadShard(size_t shard);
};

/// \brief In-memory shard view over one VoteTable, split into the given
/// consecutive range sizes. Lends every shard as rows of the table itself,
/// never a copy: the adapter behind the materialized `RunDawidSkene`, and a
/// reference source for tests.
class InMemoryVoteShards : public VoteShardSource {
 public:
  /// \brief Splits `table` (not owned; must outlive the view) into
  /// consecutive ranges of `shard_sizes` elements. The sizes must sum to
  /// `table.size()` (checked).
  InMemoryVoteShards(const VoteTable* table, std::vector<size_t> shard_sizes);

  size_t num_shards() const override { return shard_sizes_.size(); }
  Status WithShard(size_t shard,
                   const std::function<Status(const VoteShardView&)>& fn) override;

 private:
  const VoteTable* table_;
  std::vector<size_t> shard_sizes_;
  std::vector<size_t> shard_starts_;
};

/// \brief A shard view with the votes of banned workers removed at load
/// time. The aggregation-side half of the worker-filter defense: the
/// underlying store keeps every vote (audit truth), while everything the
/// aggregators see — majority tallies, Dawid-Skene confusion masses — is
/// re-derived from the surviving votes only. Filtering at the shard
/// boundary keeps the bounded-memory property: one shard plus the O(#banned)
/// set resident, exactly as without the filter. The surviving votes are
/// copied, in order, into a FlatShardVotes reused across shards.
///
/// With an empty ban set, WithShard lends the inner shard through untouched,
/// so the unfiltered path (every golden) pays nothing.
class FilteredVoteShardSource : public VoteShardSource {
 public:
  /// \brief Wraps `inner` (not owned; must outlive the view). `banned` is
  /// copied.
  FilteredVoteShardSource(VoteShardSource* inner, std::unordered_set<uint32_t> banned);

  size_t num_shards() const override { return inner_->num_shards(); }
  Status WithShard(size_t shard,
                   const std::function<Status(const VoteShardView&)>& fn) override;

 private:
  VoteShardSource* inner_;
  std::unordered_set<uint32_t> banned_;
  FlatShardVotes surviving_;
};

/// \brief Worker ids mapped to dense slots `[0, size())` in first-seen
/// order: how the EM indexes its per-worker state. A hash map keyed by id,
/// so a sparse or hostile id space (ids near UINT32_MAX from a replayed vote
/// log) costs O(#workers) memory, never O(max id).
class WorkerSlots {
 public:
  /// \brief What Find returns for an id that has no slot.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// \brief The slot of `id`, or kNone.
  uint32_t Find(uint32_t id) const {
    const auto it = slot_of_.find(id);
    return it == slot_of_.end() ? kNone : it->second;
  }

  /// \brief The slot of `id`, assigning the next free one on first sight.
  uint32_t Insert(uint32_t id);

  /// \brief Number of slots assigned.
  size_t size() const { return ids_.size(); }
  /// \brief The worker id holding `slot`.
  uint32_t id(uint32_t slot) const { return ids_[slot]; }

 private:
  std::unordered_map<uint32_t, uint32_t> slot_of_;  // id -> slot
  std::vector<uint32_t> ids_;                        // slot -> id
};

/// \brief The four log-probabilities one worker's vote can add to a pair's
/// E-step, computed once per fitted model instead of once per vote.
struct WorkerLogTerms {
  double yes_if_match = 0.0;      ///< log(sensitivity)
  double yes_if_non_match = 0.0;  ///< log(1 - specificity)
  double no_if_match = 0.0;       ///< log(1 - sensitivity)
  double no_if_non_match = 0.0;   ///< log(specificity)
};

/// \brief A fitted Dawid-Skene model: everything EM learns except the
/// per-pair posteriors (recover those with `PosteriorMatchProbability`).
struct DawidSkeneModel {
  /// Per-worker confusion estimates, keyed by worker id.
  std::unordered_map<uint32_t, WorkerQuality> workers;
  /// Estimated P(match) over judged pairs.
  double class_prior = 0.5;
  /// EM iterations executed.
  int iterations = 0;
  /// Whether the posterior change fell below the tolerance.
  bool converged = false;

  /// What the E-step reads, derived from the estimates above when EM
  /// finalizes them: each worker's log terms at its slot in `slots`, and
  /// the logs of the class prior. Empty when no EM iteration ran.
  WorkerSlots slots;
  /// Indexed by worker slot.
  std::vector<WorkerLogTerms> log_terms;
  double log_prior_match = 0.0;      ///< log(class_prior)
  double log_prior_non_match = 0.0;  ///< log(1 - class_prior)
};

/// \brief Fits Dawid-Skene by EM over the shard sequence, holding one shard
/// plus the O(#workers) model resident. One pass over all shards per
/// iteration. Bitwise-identical to the model `RunDawidSkene` fits on the
/// concatenated table (same iteration count, convergence flag, worker
/// estimates, and class prior).
///
/// The deliberate trade of the recompute formulation: each pass evaluates
/// the E-step arithmetic up to twice per voted pair (current and previous
/// model, for the convergence delta) where a stored-posterior loop would
/// evaluate once — roughly doubling E-step compute to eliminate the O(|P|)
/// posterior vector and keep ONE implementation for both execution modes.
/// EM is not a negligible slice of a crowd-heavy run (it rivals HIT
/// generation), so the per-vote work is kept to table reads and adds: worker
/// ids are resolved to dense slots once per vote and pass, the four logs per
/// worker are taken once per model, and the M-step accumulates into flat
/// per-slot arrays — the same doubles summed in the same order as a
/// per-vote map-and-log loop, so every estimate is bitwise unchanged.
Result<DawidSkeneModel> FitDawidSkeneSharded(VoteShardSource* shards,
                                             const DawidSkeneOptions& options = {});

/// \brief The E-step posterior of one pair under a fitted model — the same
/// E-step the EM loop runs, exposed so posteriors can be re-materialized
/// shard-by-shard. Voteless pairs get `kUnjudgedMatchProbability`. The model
/// must hold every worker appearing in `pair_votes` (checked); an empty
/// model (no EM iteration ran) falls back to `MajorityMatchProbability`.
double PosteriorMatchProbability(VoteSpan pair_votes, const DawidSkeneModel& model);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_PARTITIONED_H_

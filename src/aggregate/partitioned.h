/// \file
/// \brief Partition-aware answer aggregation: majority vote and Dawid-Skene
/// EM over a *sharded* vote table, so the full table never has to be
/// resident.
///
/// The vote table's pair-indexing contract (aggregate/votes.h) aligns
/// `votes[i]` with pair *i* of the surviving pair list. A sharded table
/// slices that index space into contiguous ranges — shard *s* covers global
/// pair indices `[start_s, start_s + size_s)` — and exposes them through
/// `VoteShardSource`, which loads one shard at a time (typically from a
/// spill file; see `VoteShardStore` in core/partition.h). Aggregation then
/// runs with only **one resident shard plus O(#workers) model state**:
///
///  * `MajorityVoteSharded` scores each shard independently — pairs are
///    independent under majority vote, so the sharded result is
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

/// \brief Read interface over a vote table sharded into contiguous pair
/// ranges, in global pair order. Loads are repeatable (EM scans the shard
/// sequence once per iteration) and may perform disk I/O.
class VoteShardSource {
 public:
  virtual ~VoteShardSource() = default;  ///< virtual for interface use

  /// \brief Number of shards; shard ids are `[0, num_shards())` in global
  /// pair order.
  virtual size_t num_shards() const = 0;

  /// \brief Loads shard `shard` as a local VoteTable whose index 0 is the
  /// shard's first global pair. Per-pair vote order must be cast order (the
  /// order the materialized table would hold).
  virtual Result<VoteTable> LoadShard(size_t shard) = 0;

  /// \brief Runs `fn` over the shard's table without transferring
  /// ownership. The default loads a copy via LoadShard; sources that can
  /// lend a view override it — the EM loop reads every shard once per
  /// iteration, so a borrowing source (InMemoryVoteShards over one whole
  /// table, i.e. the materialized RunDawidSkene) pays no per-iteration
  /// copies.
  virtual Status WithShard(size_t shard, const std::function<Status(const VoteTable&)>& fn) {
    CROWDER_ASSIGN_OR_RETURN(const VoteTable table, LoadShard(shard));
    return fn(table);
  }
};

/// \brief In-memory shard view over one VoteTable, split into the given
/// consecutive range sizes. Reference adapter for tests and for the
/// single-shard wrapper (`RunDawidSkene`).
class InMemoryVoteShards : public VoteShardSource {
 public:
  /// \brief Splits `table` (not owned; must outlive the view) into
  /// consecutive ranges of `shard_sizes` elements. The sizes must sum to
  /// `table.size()` (checked).
  InMemoryVoteShards(const VoteTable* table, std::vector<size_t> shard_sizes);

  size_t num_shards() const override { return shard_sizes_.size(); }
  Result<VoteTable> LoadShard(size_t shard) override;
  /// \brief Lends the underlying table directly when one shard covers it
  /// whole (the materialized RunDawidSkene shape); otherwise copies.
  Status WithShard(size_t shard,
                   const std::function<Status(const VoteTable&)>& fn) override;

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
/// set resident, exactly as without the filter.
///
/// With an empty ban set, WithShard lends the inner shard through untouched,
/// so the unfiltered path (every golden) pays nothing.
class FilteredVoteShardSource : public VoteShardSource {
 public:
  /// \brief Wraps `inner` (not owned; must outlive the view). `banned` is
  /// copied.
  FilteredVoteShardSource(VoteShardSource* inner, std::unordered_set<uint32_t> banned);

  size_t num_shards() const override { return inner_->num_shards(); }
  Result<VoteTable> LoadShard(size_t shard) override;
  Status WithShard(size_t shard,
                   const std::function<Status(const VoteTable&)>& fn) override;

 private:
  VoteShardSource* inner_;
  std::unordered_set<uint32_t> banned_;
};

/// \brief Majority vote, one shard at a time: for each shard in order,
/// `emit(shard, probabilities)` receives the per-pair probabilities of that
/// shard (aligned to the shard's local indices). Bitwise-identical to
/// `MajorityVote` over the concatenated table.
Status MajorityVoteSharded(
    VoteShardSource* shards,
    const std::function<Status(size_t shard, const std::vector<double>&)>& emit);

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
double PosteriorMatchProbability(const std::vector<Vote>& pair_votes,
                                 const DawidSkeneModel& model);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_PARTITIONED_H_

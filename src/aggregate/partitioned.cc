#include "aggregate/partitioned.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"

namespace crowder {
namespace aggregate {

namespace {

Status ShardOutOfRange(size_t shard, size_t num_shards) {
  return Status::OutOfRange("shard " + std::to_string(shard) + " of " +
                            std::to_string(num_shards));
}

}  // namespace

Result<VoteTable> VoteShardSource::LoadShard(size_t shard) {
  VoteTable table;
  CROWDER_RETURN_NOT_OK(WithShard(shard, [&](const VoteShardView& view) {
    table.resize(view.size());
    for (size_t i = 0; i < view.size(); ++i) {
      table[i].assign(view[i].begin(), view[i].end());
    }
    return Status::OK();
  }));
  return table;
}

InMemoryVoteShards::InMemoryVoteShards(const VoteTable* table, std::vector<size_t> shard_sizes)
    : table_(table), shard_sizes_(std::move(shard_sizes)) {
  size_t start = 0;
  shard_starts_.reserve(shard_sizes_.size());
  for (size_t size : shard_sizes_) {
    shard_starts_.push_back(start);
    start += size;
  }
  CROWDER_CHECK(start == table_->size()) << "shard sizes must sum to the table size";
}

Status InMemoryVoteShards::WithShard(size_t shard,
                                     const std::function<Status(const VoteShardView&)>& fn) {
  if (shard >= shard_sizes_.size()) return ShardOutOfRange(shard, shard_sizes_.size());
  return fn(VoteShardView(table_->data() + shard_starts_[shard], shard_sizes_[shard]));
}

FilteredVoteShardSource::FilteredVoteShardSource(VoteShardSource* inner,
                                                 std::unordered_set<uint32_t> banned)
    : inner_(inner), banned_(std::move(banned)) {}

Status FilteredVoteShardSource::WithShard(size_t shard,
                                          const std::function<Status(const VoteShardView&)>& fn) {
  if (banned_.empty()) return inner_->WithShard(shard, fn);  // lend through
  return inner_->WithShard(shard, [&](const VoteShardView& view) {
    // Keep each pair's surviving votes in cast order, pairs in local order.
    surviving_.offsets.resize(view.size() + 1);
    surviving_.offsets[0] = 0;
    surviving_.votes.clear();
    for (size_t i = 0; i < view.size(); ++i) {
      for (const Vote& v : view[i]) {
        if (banned_.count(v.worker_id) == 0) surviving_.votes.push_back(v);
      }
      surviving_.offsets[i + 1] = surviving_.votes.size();
    }
    return fn(surviving_.View());
  });
}

uint32_t WorkerSlots::Insert(uint32_t id) {
  const auto [it, inserted] = slot_of_.emplace(id, static_cast<uint32_t>(ids_.size()));
  if (inserted) ids_.push_back(id);
  return it->second;
}

namespace {

// The E-step: the posterior of one voted pair under `model`, where vote i
// was cast by the worker at slot slot_of(i). The log terms are the ones a
// per-vote loop would take (log(sensitivity), ...), precomputed per worker,
// and they are summed in vote order, so the result is bitwise that loop's.
template <typename SlotOf>
double EStep(VoteSpan pair_votes, const DawidSkeneModel& model, SlotOf slot_of) {
  double log_pos = model.log_prior_match;
  double log_neg = model.log_prior_non_match;
  for (size_t i = 0; i < pair_votes.size(); ++i) {
    const WorkerLogTerms& w = model.log_terms[slot_of(i)];
    if (pair_votes[i].says_match) {
      log_pos += w.yes_if_match;
      log_neg += w.yes_if_non_match;
    } else {
      log_pos += w.no_if_match;
      log_neg += w.no_if_non_match;
    }
  }
  const double m = std::max(log_pos, log_neg);
  const double pos = std::exp(log_pos - m);
  const double neg = std::exp(log_neg - m);
  return pos / (pos + neg);
}

// One worker's M-step statistics over one pass.
struct WorkerSums {
  double sens = 0.0;  // posterior mass of its yes votes
  double spec = 0.0;  // non-match mass of its no votes
  double pos = 0.0;   // posterior mass of all its votes
  double neg = 0.0;   // non-match mass of all its votes
  uint32_t votes = 0;
};

// Turns a loop model (dense estimates only) into the published one: the
// id-keyed estimates and the slot map the E-step resolves ids through.
DawidSkeneModel Publish(DawidSkeneModel model, const std::vector<WorkerQuality>& quality,
                        WorkerSlots slots) {
  model.workers.reserve(quality.size());
  for (uint32_t slot = 0; slot < quality.size(); ++slot) {
    model.workers.emplace(slots.id(slot), quality[slot]);
  }
  model.slots = std::move(slots);
  return model;
}

}  // namespace

double PosteriorMatchProbability(VoteSpan pair_votes, const DawidSkeneModel& model) {
  if (pair_votes.empty()) return kUnjudgedMatchProbability;
  // No EM iteration ran (no votes anywhere): the posterior is the
  // initialization, i.e. the majority fraction.
  if (model.log_terms.empty()) return MajorityMatchProbability(pair_votes);
  return EStep(pair_votes, model, [&](size_t i) {
    const uint32_t slot = model.slots.Find(pair_votes[i].worker_id);
    CROWDER_CHECK(slot != WorkerSlots::kNone)
        << "worker " << pair_votes[i].worker_id << " is not in the model";
    return slot;
  });
}

Result<DawidSkeneModel> FitDawidSkeneSharded(VoteShardSource* shards,
                                             const DawidSkeneOptions& options) {
  CROWDER_CHECK(shards != nullptr);
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (options.smoothing < 0.0) {
    return Status::InvalidArgument("smoothing must be non-negative");
  }
  if (options.prior_correct <= 0.0 || options.prior_incorrect <= 0.0) {
    return Status::InvalidArgument("worker-quality pseudo-counts must be positive");
  }

  const double s = options.smoothing;
  const double good = options.prior_correct;
  const double bad = options.prior_incorrect;

  // The EM loop, restructured around one shard pass per iteration. The
  // posterior of a pair is a pure function of (its votes, the model of the
  // previous iteration), so pass t recomputes every posterior from `prev`
  // (= params_{t-1}; the majority initialization when t == 0) while
  // accumulating the M-step statistics that finalize params_t. Convergence
  // is the materialized loop's criterion, recovered one model late: the
  // E-step delta of iteration t-1 is max |E(params_{t-1}) - E(params_{t-2})|,
  // both recomputable during pass t from `prev` and `older`.
  //
  // Workers get dense slots in first-seen order during pass 0; every later
  // pass sees the same votes, so it only looks the slots up.
  WorkerSlots slots;
  DawidSkeneModel prev;   // params_{t-1}; meaningful from t >= 1
  DawidSkeneModel older;  // params_{t-2}; meaningful from t >= 2
  std::vector<WorkerQuality> prev_quality;  // params_{t-1} per slot
  std::vector<WorkerSums> sums;  // per slot
  std::vector<uint32_t> vote_slots;  // slot of each vote of the current pair

  for (int t = 0;; ++t) {
    sums.assign(slots.size(), WorkerSums{});
    double prior_num = 0.0;
    size_t judged = 0;
    double max_delta = 0.0;

    for (size_t shard = 0; shard < shards->num_shards(); ++shard) {
      CROWDER_RETURN_NOT_OK(shards->WithShard(shard, [&](const VoteShardView& view) {
        for (size_t pair = 0; pair < view.size(); ++pair) {
          const VoteSpan pair_votes = view[pair];
          if (pair_votes.empty()) continue;
          vote_slots.resize(pair_votes.size());
          for (size_t i = 0; i < pair_votes.size(); ++i) {
            const uint32_t id = pair_votes[i].worker_id;
            if (t == 0) {
              vote_slots[i] = slots.Insert(id);
              if (vote_slots[i] == sums.size()) sums.emplace_back();
            } else {
              vote_slots[i] = slots.Find(id);
              if (vote_slots[i] == WorkerSlots::kNone) {
                return Status::Internal("worker " + std::to_string(id) +
                                        " appeared after the first EM pass; vote shards "
                                        "must be identical on every load");
              }
            }
          }
          const auto slot_of = [&](size_t i) { return vote_slots[i]; };
          const double p = t == 0 ? MajorityMatchProbability(pair_votes)
                                  : EStep(pair_votes, prev, slot_of);
          if (t >= 1) {
            const double p_old = t == 1 ? MajorityMatchProbability(pair_votes)
                                        : EStep(pair_votes, older, slot_of);
            max_delta = std::max(max_delta, std::fabs(p - p_old));
          }
          ++judged;
          prior_num += p;
          for (size_t i = 0; i < pair_votes.size(); ++i) {
            WorkerSums& w = sums[vote_slots[i]];
            ++w.votes;
            w.pos += p;
            w.neg += 1.0 - p;
            if (pair_votes[i].says_match) {
              w.sens += p;
            } else {
              w.spec += 1.0 - p;
            }
          }
        }
        return Status::OK();
      }));
    }

    if (judged == 0) {
      // No votes anywhere: EM has nothing to fit (only reachable at t == 0).
      DawidSkeneModel model;
      model.converged = true;
      return model;
    }
    if (t >= 1 && max_delta < options.tolerance) {
      prev.converged = true;  // prev.iterations == t already
      return Publish(std::move(prev), prev_quality, std::move(slots));
    }
    if (t == options.max_iterations) {
      // params_{max-1}, iterations == max, converged == false
      return Publish(std::move(prev), prev_quality, std::move(slots));
    }

    // Finalize params_t (the materialized loop's M-step normalization) and
    // take the E-step's logs once per worker.
    DawidSkeneModel next;
    next.class_prior =
        std::clamp((prior_num + s) / (static_cast<double>(judged) + 2.0 * s), 0.01, 0.99);
    next.log_prior_match = std::log(next.class_prior);
    next.log_prior_non_match = std::log(1.0 - next.class_prior);
    next.log_terms.resize(slots.size());
    prev_quality.resize(slots.size());
    for (uint32_t w = 0; w < slots.size(); ++w) {
      WorkerQuality& q = prev_quality[w];
      q.num_votes = sums[w].votes;
      q.sensitivity = (sums[w].sens + good) / (sums[w].pos + good + bad);
      q.specificity = (sums[w].spec + good) / (sums[w].neg + good + bad);
      q.sensitivity = std::clamp(q.sensitivity, 1e-4, 1.0 - 1e-4);
      q.specificity = std::clamp(q.specificity, 1e-4, 1.0 - 1e-4);
      WorkerLogTerms& terms = next.log_terms[w];
      terms.yes_if_match = std::log(q.sensitivity);
      terms.yes_if_non_match = std::log(1.0 - q.specificity);
      terms.no_if_match = std::log(1.0 - q.sensitivity);
      terms.no_if_non_match = std::log(q.specificity);
    }
    next.iterations = t + 1;
    older = std::move(prev);
    prev = std::move(next);
  }
}

}  // namespace aggregate
}  // namespace crowder

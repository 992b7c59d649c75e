#include "similarity/similarity_join.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "similarity/join_internal.h"

namespace crowder {
namespace similarity {

void SortPairs(std::vector<ScoredPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(), [](const ScoredPair& x, const ScoredPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
}

Status ValidateJoin(const JoinInput& input, const JoinOptions& options) {
  if (options.threshold < 0.0 || options.threshold > 1.0) {
    return Status::InvalidArgument("join threshold must be in [0,1], got " +
                                   std::to_string(options.threshold));
  }
  if (!input.sources.empty() && input.sources.size() != input.sets.size()) {
    return Status::InvalidArgument("sources size (" + std::to_string(input.sources.size()) +
                                   ") must match sets size (" +
                                   std::to_string(input.sets.size()) + ")");
  }
  for (const auto& set : input.sets) {
    if (!std::is_sorted(set.begin(), set.end())) {
      return Status::InvalidArgument("token sets must be sorted (use MakeTokenSet)");
    }
    if (std::adjacent_find(set.begin(), set.end()) != set.end()) {
      return Status::InvalidArgument("token sets must be deduplicated (use MakeTokenSet)");
    }
  }
  return Status::OK();
}

Result<std::vector<ScoredPair>> NaiveJoin(const JoinInput& input, const JoinOptions& options,
                                          JoinStats* stats) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  std::vector<ScoredPair> out;
  const uint32_t n = static_cast<uint32_t>(input.sets.size());
  uint64_t verifications = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!input.sources.empty() && input.sources[i] == input.sources[j]) continue;
      // Two empty sets score 1.0 under every measure, but an empty record
      // carries no matching evidence: at a positive threshold such pairs are
      // not emitted (AllPairsJoin and blocking agree on this contract).
      if (options.threshold > 0.0 && input.sets[i].empty() && input.sets[j].empty()) continue;
      ++verifications;
      const double sim = SetSimilarity(options.measure, input.sets[i], input.sets[j]);
      if (sim >= options.threshold) out.push_back({i, j, sim});
    }
  }
  if (stats != nullptr) {
    stats->pair_verifications += verifications;
    stats->candidates += verifications;
  }
  SortPairs(&out);
  return out;
}

namespace internal {

PrefixBounds ComputePrefixBounds(SetMeasure measure, double threshold, size_t size) {
  PrefixBounds bounds;
  if (size == 0) return bounds;  // empty records never pair at threshold > 0
  // Overlap lower bound against the *worst-case* admissible partner: any y
  // with sim(x,y) >= t has |y| >= MinCompatibleSize, and the required overlap
  // is monotone in |y|, so evaluating it at the minimum partner size is a
  // valid bound for all partners. A pair meeting the bound must share a token
  // within the first size - alpha + 1 tokens of each side (prefix-filtering
  // lemma).
  bounds.min_partner = std::max<size_t>(1, MinCompatibleSize(measure, size, threshold));
  const size_t alpha =
      std::max<size_t>(1, MinRequiredOverlap(measure, size, bounds.min_partner, threshold));
  bounds.prefix_len = std::min(size, size >= alpha ? size - alpha + 1 : size);
  return bounds;
}

JoinPlan BuildJoinPlan(const JoinInput& input, const JoinOptions& options) {
  const uint32_t n = static_cast<uint32_t>(input.sets.size());
  JoinPlan plan;
  plan.measure = options.measure;
  plan.threshold = options.threshold;

  // 1. Compute per-token frequency within this input, then rank tokens
  //    rarest-first (ties by id). Rare-first prefixes produce the fewest
  //    candidates.
  text::TokenId max_token = 0;
  for (const auto& set : input.sets) {
    for (text::TokenId tok : set) max_token = std::max(max_token, tok);
  }
  std::vector<uint32_t> rank(static_cast<size_t>(max_token) + 1, 0);
  {
    std::vector<uint32_t> freq(rank.size(), 0);
    for (const auto& set : input.sets) {
      for (text::TokenId tok : set) ++freq[tok];
    }
    std::vector<text::TokenId> order(freq.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](text::TokenId x, text::TokenId y) {
      return freq[x] != freq[y] ? freq[x] < freq[y] : x < y;
    });
    for (uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  }
  const size_t num_ranks = rank.size();

  // 2. The canonical processing order: non-decreasing size, so that every
  //    partner a probe accepts (an earlier position) is no larger than it.
  plan.by_size.resize(n);
  std::iota(plan.by_size.begin(), plan.by_size.end(), 0);
  std::stable_sort(plan.by_size.begin(), plan.by_size.end(), [&](uint32_t x, uint32_t y) {
    return input.sets[x].size() < input.sets[y].size();
  });

  // 3. One flat arena in position order: prefix-sum the offsets, fill each
  //    span with ranks, and sort it in place.
  plan.offset.resize(n + 1, 0);
  for (uint32_t p = 0; p < n; ++p) {
    plan.offset[p + 1] = plan.offset[p] + input.sets[plan.by_size[p]].size();
  }
  plan.arena.resize(plan.offset[n]);
  for (uint32_t p = 0; p < n; ++p) {
    uint32_t* span = plan.arena.data() + plan.offset[p];
    size_t k = 0;
    for (text::TokenId tok : input.sets[plan.by_size[p]]) span[k++] = rank[tok];
    std::sort(span, span + k);
  }
  rank = std::vector<uint32_t>();  // released before the index is built
  if (!input.sources.empty()) {
    plan.source.resize(n);
    for (uint32_t p = 0; p < n; ++p) plan.source[p] = input.sources[plan.by_size[p]];
  }

  // 4. Index prefix length by record size (see JoinPlan); empty records
  //    never pair at threshold > 0 and index nothing.
  const size_t max_size = n == 0 ? 0 : plan.size(n - 1);
  std::vector<uint32_t> index_len(max_size + 1, 0);
  for (size_t size = 1; size <= max_size; ++size) {
    index_len[size] = static_cast<uint32_t>(
        size - RequiredOverlapExact(plan.measure, size, size, plan.threshold) + 1);
  }

  // 5. The CSR index: a counting sort by rank, filled in position order, so
  //    each rank's postings ascend by position; a stable sort by label then
  //    groups them into one run per label.
  std::vector<size_t> rank_begin(num_ranks + 1, 0);
  for (uint32_t p = 0; p < n; ++p) {
    const TokenSpan tokens = plan.ranked(p);
    for (uint32_t j = 0; j < index_len[tokens.size()]; ++j) ++rank_begin[tokens[j] + 1];
  }
  for (size_t r = 0; r < num_ranks; ++r) rank_begin[r + 1] += rank_begin[r];
  plan.postings.resize(rank_begin[num_ranks]);
  for (uint32_t p = 0; p < n; ++p) {
    const TokenSpan tokens = plan.ranked(p);
    // rank_begin[r] serves as rank r's fill cursor, and ends as its end.
    for (uint32_t j = 0; j < index_len[tokens.size()]; ++j) {
      plan.postings[rank_begin[tokens[j]]++] = {p, j};
    }
  }
  const auto label = [&](const Posting& posting) {
    return plan.source.empty() ? 0 : plan.source[posting.pos];
  };
  // rank_begin becomes rank_segments in place: entry r is read (rank r's
  // end) before it is overwritten (rank r's first segment).
  Posting* first = plan.postings.data();
  for (size_t r = 0; r < num_ranks; ++r) {
    Posting* const last = plan.postings.data() + rank_begin[r];
    rank_begin[r] = plan.segments.size();
    std::stable_sort(first, last,
                     [&](const Posting& x, const Posting& y) { return label(x) < label(y); });
    for (const Posting* it = first; it != last; ++it) {
      if (it == first || label(*it) != label(it[-1])) {
        plan.segments.push_back({static_cast<size_t>(it - plan.postings.data()), label(*it)});
      }
    }
    first = last;
  }
  rank_begin[num_ranks] = plan.segments.size();
  plan.rank_segments = std::move(rank_begin);
  plan.segments.push_back({plan.postings.size(), 0});
  return plan;
}

namespace {

// A partner surfaced by the current probe: matches counted so far and the
// offsets of the last one (x side, y side). count == kPruned marks a
// candidate the positional filter dropped.
struct Candidate {
  uint32_t pos;
  uint32_t count;
  uint32_t last_x;
  uint32_t last_y;
  uint32_t required;
};
constexpr uint32_t kPruned = UINT32_MAX;

}  // namespace

void ProbePositions(const JoinPlan& plan, size_t begin, size_t end,
                    std::vector<ScoredPair>* out, JoinStats* stats) {
  // Per-thread scratch, reused across calls instead of reallocated-and-
  // zeroed — with small chunks on large inputs the memset would dominate.
  // Invariant: every entry of slot is 0 between probes, because each probe
  // resets exactly the entries it set; resize only appends zeros.
  thread_local std::vector<uint32_t> slot;  // position -> candidates index + 1
  thread_local std::vector<Candidate> candidates;
  thread_local std::vector<uint32_t> required;  // by partner size - min_partner
  if (slot.size() < plan.num_positions()) slot.resize(plan.num_positions(), 0);

  const bool cross_source = !plan.source.empty();
  JoinStats work;
  // The bounds depend on the probe's size only; sizes are non-decreasing
  // along positions, so they are recomputed once per distinct size.
  size_t x_size = 0;
  PrefixBounds bounds;
  size_t first_partner = 0;  // first position of size >= bounds.min_partner
  for (size_t pos = begin; pos < end; ++pos) {
    const TokenSpan x = plan.ranked(pos);
    if (x.empty()) continue;
    if (x.size() != x_size) {
      x_size = x.size();
      bounds = ComputePrefixBounds(plan.measure, plan.threshold, x_size);
      const size_t min_partner = bounds.min_partner;
      // Binary search: sizes are non-decreasing along the positions.
      size_t lo = 0;
      size_t hi = pos;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (plan.size(mid) < min_partner) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      first_partner = lo;
      required.resize(x_size - min_partner + 1);
      for (size_t y_size = min_partner; y_size <= x_size; ++y_size) {
        required[y_size - min_partner] = static_cast<uint32_t>(
            RequiredOverlapExact(plan.measure, x_size, y_size, plan.threshold));
      }
    }
    const int x_source = cross_source ? plan.source[pos] : 0;

    for (uint32_t i = 0; i < bounds.prefix_len; ++i) {
      const uint32_t x_rest = static_cast<uint32_t>(x_size - i - 1);
      const uint32_t r = x[i];
      for (size_t s = plan.rank_segments[r]; s < plan.rank_segments[r + 1]; ++s) {
        if (cross_source && plan.segments[s].source == x_source) continue;
        const Posting* it = plan.postings.data() + plan.segments[s].begin;
        const Posting* const seg_end = plan.postings.data() + plan.segments[s + 1].begin;
        // Postings are ascending by position: skip the partners too small
        // for the size filter, stop at the first one not earlier than pos.
        it = std::lower_bound(it, seg_end, first_partner,
                              [](const Posting& e, size_t p) { return e.pos < p; });
        for (; it != seg_end && it->pos < pos; ++it) {
          ++work.postings_scanned;
          const size_t y_size = plan.size(it->pos);
          const uint32_t bound =
              1 + std::min(x_rest, static_cast<uint32_t>(y_size - it->offset - 1));
          uint32_t& seen = slot[it->pos];
          if (seen == 0) {
            const uint32_t need = required[y_size - bounds.min_partner];
            candidates.push_back({it->pos, bound < need ? kPruned : 1u, i, it->offset, need});
            seen = static_cast<uint32_t>(candidates.size());
            continue;
          }
          Candidate& c = candidates[seen - 1];
          if (c.count == kPruned) continue;
          if (c.count + bound < c.required) {
            c.count = kPruned;
            continue;
          }
          ++c.count;
          c.last_x = i;
          c.last_y = it->offset;
        }
      }
    }

    work.candidates += candidates.size();
    const uint32_t x_rec = plan.by_size[pos];
    for (const Candidate& c : candidates) {
      slot[c.pos] = 0;
      if (c.count == kPruned) continue;
      ++work.pair_verifications;
      const TokenSpan y = plan.ranked(c.pos);
      const TokenSpan x_suffix(x.data() + c.last_x + 1, x.size() - c.last_x - 1);
      const TokenSpan y_suffix(y.data() + c.last_y + 1, y.size() - c.last_y - 1);
      const size_t still = c.required > c.count ? c.required - c.count : 0;
      const size_t overlap = c.count + OverlapSizeAtLeast(x_suffix, y_suffix, still);
      if (overlap < c.required) continue;
      const uint32_t y_rec = plan.by_size[c.pos];
      out->push_back({std::min(x_rec, y_rec), std::max(x_rec, y_rec),
                      SimilarityFromOverlap(plan.measure, x.size(), y.size(), overlap)});
    }
    candidates.clear();
  }
  stats->pair_verifications += work.pair_verifications;
  stats->postings_scanned += work.postings_scanned;
  stats->candidates += work.candidates;
}

}  // namespace internal

Result<std::vector<ScoredPair>> AllPairsJoin(const JoinInput& input, const JoinOptions& options,
                                             JoinStats* stats) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  // A zero threshold admits every pair; prefix filtering degenerates, so
  // fall through to the exhaustive join.
  if (options.threshold <= 0.0) return NaiveJoin(input, options, stats);

  const internal::JoinPlan plan = internal::BuildJoinPlan(input, options);
  std::vector<ScoredPair> out;
  JoinStats work;
  internal::ProbePositions(plan, 0, plan.num_positions(), &out, &work);
  if (stats != nullptr) *stats += work;
  SortPairs(&out);
  return out;
}

}  // namespace similarity
}  // namespace crowder

// The growing counterpart of core::StreamingResolver: a union-find whose
// record universe expands as records are ingested and whose canonical
// partition can be read at any time (not just terminally). The
// canonicalization is core::CanonicalClusters, the one StreamingResolver::
// Finish uses — dense cluster ids in smallest-member order, members
// ascending — so a partition
// taken after the last verdict equals the batch resolver's output exactly
// (the identity serve_test pins).
#ifndef CROWDER_SERVE_ONLINE_RESOLVER_H_
#define CROWDER_SERVE_ONLINE_RESOLVER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/resolution.h"

namespace crowder {
namespace serve {

/// \brief Grow-only union-find with repeatable canonical reads.
///
/// Pure transitive closure over the applied matches — the one clustering
/// semantics that is insensitive to the order verdicts arrive in, which is
/// what makes the service's final partition deterministic even though the
/// crowd loop applies verdicts from a background thread. Not thread-safe;
/// the service serializes mutations with its state lock.
class OnlineResolver {
 public:
  /// \brief Adds the next record as its own singleton cluster; returns its
  /// id (= num_records() before the call).
  uint32_t AddRecord();

  /// \brief Merges the clusters of `a` and `b`. Fails on out-of-range
  /// records or self-pairs (mirroring StreamingResolver's validation).
  Status AddMatch(uint32_t a, uint32_t b);

  /// \brief Records added so far.
  uint32_t num_records() const { return static_cast<uint32_t>(parent_.size()); }

  /// \brief Canonicalizes the current partition (see file comment). Safe to
  /// call repeatedly; does not mutate logical state.
  core::EntityClusters CurrentClusters() const;

 private:
  uint32_t Find(uint32_t x) const;

  /// Path-halving find with union by size; parent_ is mutable-free — Find
  /// is const (no compression) so CurrentClusters can run on a const ref.
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace serve
}  // namespace crowder

#endif  // CROWDER_SERVE_ONLINE_RESOLVER_H_

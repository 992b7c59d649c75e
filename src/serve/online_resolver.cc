#include "serve/online_resolver.h"

#include <utility>

namespace crowder {
namespace serve {

uint32_t OnlineResolver::AddRecord() {
  const uint32_t id = num_records();
  parent_.push_back(id);
  size_.push_back(1);
  return id;
}

uint32_t OnlineResolver::Find(uint32_t x) const {
  while (parent_[x] != x) x = parent_[x];
  return x;
}

Status OnlineResolver::AddMatch(uint32_t a, uint32_t b) {
  if (a >= parent_.size() || b >= parent_.size()) {
    return Status::OutOfRange("pair references record beyond num_records");
  }
  if (a == b) return Status::InvalidArgument("self-pair in input");
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return Status::OK();
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  return Status::OK();
}

core::EntityClusters OnlineResolver::CurrentClusters() const {
  return core::CanonicalClusters(num_records(), [this](uint32_t r) { return Find(r); });
}

}  // namespace serve
}  // namespace crowder

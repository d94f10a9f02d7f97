#include "src/shard/partitioner.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/relational/sketches.h"

namespace fpgadp::shard {

Partitioner Partitioner::Hash(uint32_t num_shards) {
  FPGADP_CHECK(num_shards > 0);
  return Partitioner(PartitionScheme::kHash, num_shards, {});
}

Partitioner Partitioner::Range(std::vector<uint64_t> upper_bounds) {
  FPGADP_CHECK(!upper_bounds.empty());
  for (size_t i = 1; i < upper_bounds.size(); ++i) {
    FPGADP_CHECK(upper_bounds[i - 1] < upper_bounds[i]);
  }
  const uint32_t n = static_cast<uint32_t>(upper_bounds.size());
  return Partitioner(PartitionScheme::kRange, n, std::move(upper_bounds));
}

uint32_t Partitioner::ShardOf(uint64_t key) const {
  switch (scheme_) {
    case PartitionScheme::kHash:
      return static_cast<uint32_t>(rel::Hash64(key) % num_shards_);
    case PartitionScheme::kRange: {
      const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), key);
      const size_t idx = it == bounds_.end()
                             ? bounds_.size() - 1
                             : static_cast<size_t>(it - bounds_.begin());
      if (owners_.empty()) return static_cast<uint32_t>(idx);
      return owners_[idx];
    }
  }
  return 0;
}

void Partitioner::MaterializeSegments() {
  if (!owners_.empty()) return;
  owners_.resize(bounds_.size());
  for (size_t i = 0; i < bounds_.size(); ++i) {
    owners_[i] = static_cast<uint32_t>(i);
  }
  // The historical table leaves keys above the last bound with the last
  // shard; make that segment explicit so splits below never change it.
  if (bounds_.back() != UINT64_MAX) {
    bounds_.push_back(UINT64_MAX);
    owners_.push_back(static_cast<uint32_t>(num_shards_ - 1));
  }
}

void Partitioner::MoveRange(uint64_t lo, uint64_t hi, uint32_t to) {
  FPGADP_CHECK(scheme_ == PartitionScheme::kRange);
  FPGADP_CHECK(lo <= hi);
  FPGADP_CHECK(to < num_shards_);
  MaterializeSegments();
  std::vector<uint64_t> nb;
  std::vector<uint32_t> no;
  // Coalesces adjacent same-owner segments as they are emitted.
  const auto emit = [&](uint64_t up, uint32_t owner) {
    if (!no.empty() && no.back() == owner) {
      nb.back() = up;
    } else {
      nb.push_back(up);
      no.push_back(owner);
    }
  };
  uint64_t seg_lo = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    const uint64_t seg_hi = bounds_[i];
    const uint32_t owner = owners_[i];
    uint64_t cur = seg_lo;
    seg_lo = seg_hi + 1;  // may wrap on the final MAX segment; unused then
    // Part of this segment below `lo` keeps its owner.
    if (cur < lo) {
      emit(std::min(seg_hi, lo - 1), owner);
      if (seg_hi < lo) continue;
      cur = lo;
    }
    // Part inside [lo, hi] moves to `to`.
    if (cur <= hi) {
      emit(std::min(seg_hi, hi), to);
      if (seg_hi <= hi) continue;
    }
    // Part above `hi` keeps its owner.
    emit(seg_hi, owner);
  }
  bounds_ = std::move(nb);
  owners_ = std::move(no);
  FPGADP_CHECK(bounds_.back() == UINT64_MAX);
}

bool Partitioner::RangeOwnedBy(uint64_t lo, uint64_t hi,
                               uint32_t shard) const {
  FPGADP_CHECK(scheme_ == PartitionScheme::kRange);
  FPGADP_CHECK(lo <= hi);
  uint64_t seg_lo = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    const uint64_t seg_hi = bounds_[i];
    if (seg_hi >= lo && seg_lo <= hi) {
      const uint32_t owner =
          owners_.empty() ? static_cast<uint32_t>(i) : owners_[i];
      if (owner != shard) return false;
    }
    if (seg_hi == UINT64_MAX) break;
    seg_lo = seg_hi + 1;
  }
  // Keys above the last bound belong to the last shard in the unmaterialized
  // table; include them when the probe range reaches past it.
  if (owners_.empty() && hi > bounds_.back() &&
      shard != num_shards_ - 1) {
    return false;
  }
  return true;
}

}  // namespace fpgadp::shard

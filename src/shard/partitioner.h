#ifndef FPGADP_SHARD_PARTITIONER_H_
#define FPGADP_SHARD_PARTITIONER_H_

#include <cstdint>
#include <vector>

namespace fpgadp::shard {

/// How a Partitioner maps keys to shards.
enum class PartitionScheme : uint8_t {
  kHash = 0,   ///< Hash64(key) % n — balanced for arbitrary key sets.
  kRange = 1,  ///< Upper-bound table — ordered key ranges per shard.
};

/// Maps a 64-bit key (a KV key, a join key, an IVF list id) to one of N
/// shards — the split a scale-out deployment applies before any packet
/// leaves the coordinator. Both schemes are deterministic functions of the
/// key and the routing table, so the coordinator, the shard servers, and a
/// test oracle all agree on ownership without exchanging metadata.
class Partitioner {
 public:
  /// Hash partitioning over Hash64(key); the default for KVS keys and join
  /// keys, where the key distribution is arbitrary.
  static Partitioner Hash(uint32_t num_shards);

  /// Range partitioning: shard i owns keys <= upper_bounds[i] (and shard
  /// n-1 additionally owns everything above the last bound). Bounds must be
  /// strictly increasing and non-empty.
  static Partitioner Range(std::vector<uint64_t> upper_bounds);

  /// The shard that owns `key` under the current routing table.
  uint32_t ShardOf(uint64_t key) const;

  /// kRange only: reassigns every key in [lo, hi] (inclusive) to `to`.
  /// Splits the segment table at the range edges, so repeated migrations
  /// can carve arbitrary ownership maps out of the initial contiguous
  /// ranges. The original bounds are untouched until the first move, which
  /// keeps an unmigrated partitioner bit-identical to the historical one.
  void MoveRange(uint64_t lo, uint64_t hi, uint32_t to);

  /// kRange only: true when every key in [lo, hi] is currently owned by
  /// `shard` — the precondition a MigrationPlan must satisfy (state can
  /// only stream out of the shard that actually holds it).
  bool RangeOwnedBy(uint64_t lo, uint64_t hi, uint32_t shard) const;

  uint32_t num_shards() const { return num_shards_; }
  PartitionScheme scheme() const { return scheme_; }

 private:
  Partitioner(PartitionScheme scheme, uint32_t num_shards,
              std::vector<uint64_t> bounds)
      : scheme_(scheme), num_shards_(num_shards), bounds_(std::move(bounds)) {}

  /// kRange: expands the implicit bound->index ownership into explicit
  /// segments (owners_ parallel to bounds_, final bound UINT64_MAX) the
  /// first time a range moves.
  void MaterializeSegments();

  PartitionScheme scheme_;
  uint32_t num_shards_;
  std::vector<uint64_t> bounds_;  ///< kRange: inclusive segment upper bounds.
  std::vector<uint32_t> owners_;  ///< kRange: segment owners; empty until the
                                  ///< first MoveRange (identity mapping).
};

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_PARTITIONER_H_

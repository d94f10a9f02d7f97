#ifndef FPGADP_SHARD_WORKLOADS_H_
#define FPGADP_SHARD_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/anns/ivf.h"
#include "src/kvs/smart_kvs.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/table.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"

namespace fpgadp::shard {

/// Sharded ANNS top-k over one IvfPqIndex (the FANNS scale-out story): the
/// coordinator runs coarse probe selection, the partitioner splits the
/// probed list ids across shards, each shard scans only its lists
/// (IvfPqIndex::SearchLists), and the gather merges the per-shard top-k by
/// (distance, id) — exactly the single-node Search result, because every
/// candidate's ADC distance depends only on its own list's LUT.
///
/// A degraded gather merges the slices that completed: recall drops, the
/// query still answers.
///
/// Serve returns a slice's cost from its list lengths alone and leaves the
/// scan itself to the process-wide worker pool (src/common/parallel.h); Merge
/// waits for the scans it reads. The index must outlive the workload, whose
/// destructor waits for every scan it started.
class AnnsTopKWorkload : public Workload {
 public:
  struct Config {
    size_t nprobe = 8;
    size_t k = 10;
    /// PQ codes the shard's scan pipeline retires per cycle (FANNS scan
    /// lanes).
    uint32_t scan_lanes = 8;
    /// Cycles to build one probed list's residual LUT.
    uint32_t lut_cycles_per_list = 32;
    /// Assign probed lists to shards by modeled scan cost (greedy
    /// longest-processing-time with cumulative per-shard load carried
    /// across requests) instead of the partitioner's static list->shard
    /// map. The paper's disaggregation argument: once lists live in
    /// network-attached memory, any shard can scan any list, so placement
    /// can chase load balance. Merged results are bit-identical either way
    /// (top-k of the same candidate set); only per-shard occupancy moves.
    /// Incompatible with range partitioning (live resharding re-routes by
    /// the partitioner's ownership map, which balancing ignores).
    bool balance_scatter = false;
  };

  AnnsTopKWorkload(const anns::IvfPqIndex* index, Partitioner partitioner,
                   const Config& config);
  AnnsTopKWorkload(const AnnsTopKWorkload&) = delete;
  AnnsTopKWorkload& operator=(const AnnsTopKWorkload&) = delete;
  ~AnnsTopKWorkload() override;

  /// Registers a query (copies dim floats) and returns its request id.
  uint64_t AddQuery(const float* query);

  /// Merged neighbors of a finalized request, closest first.
  const std::vector<anns::Neighbor>& result(uint64_t request_id) const;

  std::vector<SubRequest> Scatter(uint64_t request_id) override;
  /// Charges one LUT build per probed list plus the scan at scan_lanes codes
  /// per cycle, and min(k, codes scanned) neighbours of response, then
  /// queues the scan on the worker pool.
  Service Serve(uint32_t shard, uint64_t request_id) override;
  /// Waits for the scan of each kDone slice, in slice order, and merges.
  void Merge(uint64_t request_id, const PartialOutcome& outcome) override;
  /// Top-k is a shrinking merge: however many shard partials fold together,
  /// the merged response never carries more than k neighbors — hierarchical
  /// gather shrinks ANNS bytes at every interior node.
  uint64_t MergedBytes(uint64_t request_id, uint64_t done_mask,
                       uint64_t concat_bytes) override;
  /// Every slice carries the same query vector (dim floats); only the
  /// probed list ids differ per shard. That vector is what a scatter-tree
  /// bundle ships once per subtree instead of once per shard.
  uint64_t ScatterSharedBytes(uint64_t request_id) override;
  /// Range-partitioned list ids support live resharding: a slice whose
  /// probed lists all moved reports the new owner; mixed or non-range
  /// slices stay put.
  uint32_t SliceOwner(uint32_t shard, uint64_t request_id) override;
  /// Re-homes [range_lo, range_hi] of the list-id space (range scheme
  /// only). The index itself is immutable and shared; only the routing
  /// table flips.
  void CommitMigration(const MigrationPlan& plan) override;

 private:
  /// One served slice's IvfPqIndex::SearchLists, run on the worker pool
  /// over its own copy of the query and the list ids.
  class SliceScan;

  const float* Query(uint64_t request_id) const;
  /// Keeps a scan nobody will read until it finishes (it reads index_).
  void Drop(std::shared_ptr<SliceScan> scan);

  const anns::IvfPqIndex* index_;
  Partitioner partitioner_;
  Config config_;
  std::vector<float> queries_;  ///< Flat, dim floats per request.
  /// balance_scatter: cumulative modeled scan cycles assigned to each
  /// shard so far — the LPT ledger that later requests balance against.
  std::vector<uint64_t> shard_load_;
  /// Probed list ids per (request, shard), fixed at Scatter.
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint32_t>> plan_;
  /// The latest scan per served (request, shard); Merge reads and erases it.
  std::map<std::pair<uint64_t, uint32_t>, std::shared_ptr<SliceScan>> scans_;
  /// Unfinished scans of slices Merge dropped or a replayed serve replaced,
  /// for the destructor to wait for.
  std::vector<std::shared_ptr<SliceScan>> dropped_;
  std::map<uint64_t, std::vector<anns::Neighbor>> results_;
};

/// Sharded smart-KVS multi-get (the KV-Direct model scaled out): keys are
/// hash-partitioned across shards, each shard serves its batch from its own
/// store at the NIC DRAM pipeline's cost (SmartNicKvs timing statics), and
/// the gather reassembles values in request key order. Keys of a slice that
/// failed or timed out come back with served = false — the union merge
/// degrades per shard, never all-or-nothing.
class KvsMultiGetWorkload : public Workload {
 public:
  struct Config {
    /// Timing source: the NIC pipeline each shard runs.
    kvs::SmartNicKvs::Config nic;
    /// Wire bytes per key in a multi-get request.
    uint32_t key_bytes = 16;
  };

  struct GetResult {
    uint64_t key = 0;
    bool served = false;  ///< False when the owning slice did not resolve.
    bool hit = false;
    uint64_t value = 0;
  };

  KvsMultiGetWorkload(Partitioner partitioner, const Config& config);

  /// Preloads a key into its owning shard's store (no simulated time, like
  /// farview::MemoryNode::LoadTable).
  void Load(uint64_t key, uint64_t value);

  /// Registers a multi-get and returns its request id.
  uint64_t AddMultiGet(std::vector<uint64_t> keys);

  /// Per-key results of a finalized request, in the submitted key order.
  const std::vector<GetResult>& result(uint64_t request_id) const;

  size_t store_size(uint32_t shard) const { return stores_[shard].size(); }

  std::vector<SubRequest> Scatter(uint64_t request_id) override;
  Service Serve(uint32_t shard, uint64_t request_id) override;
  void Merge(uint64_t request_id, const PartialOutcome& outcome) override;
  /// Range-partitioned keys support live resharding (see AnnsTopKWorkload).
  uint32_t SliceOwner(uint32_t shard, uint64_t request_id) override;
  /// Moves the stored entries of [range_lo, range_hi] from the source
  /// store to the target store and flips the routing table — the commit
  /// half of a migration whose state already streamed over the fabric.
  void CommitMigration(const MigrationPlan& plan) override;

 private:
  Partitioner partitioner_;
  Config config_;
  std::vector<std::unordered_map<uint64_t, uint64_t>> stores_;  ///< Per shard.
  std::vector<std::vector<uint64_t>> requests_;  ///< Request id -> keys.
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint64_t>> plan_;
  std::map<std::pair<uint64_t, uint32_t>,
           std::unordered_map<uint64_t, uint64_t>>
      partials_;  ///< Hits per (request, shard).
  std::map<uint64_t, std::vector<GetResult>> results_;
};

/// Partitioned hash join (the classic scale-out build+probe): both sides
/// are hash-partitioned on their join keys, each shard runs its partition
/// pair through the repo's pipelined HashJoinFpga — as nested simulations
/// at Scatter time, outside any engine tick — and the gather unions the
/// per-shard match sets. Co-partitioning makes the union exactly the
/// single-node join. One workload instance models one join request.
class HashJoinWorkload : public Workload {
 public:
  struct Config {
    rel::FpgaOptions fpga;
  };

  HashJoinWorkload(const rel::Table* build, const rel::Table* probe,
                   const rel::JoinSpec& spec, Partitioner partitioner,
                   const Config& config);

  /// The single request this workload serves; pass to ShardCluster::Submit.
  uint64_t request_id() const { return 0; }

  /// The unioned join output (populated by Merge; partial under
  /// degradation). Row order is shard-major and deterministic.
  const rel::Table& result() const { return result_; }

  /// Build/probe rows routed to `shard`.
  size_t build_rows(uint32_t shard) const {
    return build_parts_[shard].num_rows();
  }
  size_t probe_rows(uint32_t shard) const {
    return probe_parts_[shard].num_rows();
  }

  std::vector<SubRequest> Scatter(uint64_t request_id) override;
  Service Serve(uint32_t shard, uint64_t request_id) override;
  void Merge(uint64_t request_id, const PartialOutcome& outcome) override;

 private:
  const rel::Table* build_;
  const rel::Table* probe_;
  rel::JoinSpec spec_;
  Partitioner partitioner_;
  Config config_;
  std::vector<rel::Table> build_parts_;
  std::vector<rel::Table> probe_parts_;
  std::vector<rel::Table> outputs_;   ///< Per-shard local join results.
  std::vector<Service> services_;     ///< Per-shard precomputed costs.
  rel::Table result_;
};

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_WORKLOADS_H_

#ifndef FPGADP_SHARD_TOPOLOGY_PLANNER_H_
#define FPGADP_SHARD_TOPOLOGY_PLANNER_H_

#include <cstdint>
#include <string>

#include "src/shard/gather.h"

namespace fpgadp::shard {

class ShardCoordinator;
class Workload;

/// Everything the topology picker knows about one request class, all
/// harvestable from a short probe run (coordinator estimators + fabric
/// gauges) or from the workload's own descriptors. Integer-only so the
/// decision is bit-identical across hosts and engines.
struct PlannerInputs {
  uint32_t num_shards = 1;
  /// Coordinator ports the deployment can spend (flat-N / switch / tree
  /// all fan the shards over min(max_ports, num_shards) ports).
  uint32_t max_ports = 4;
  /// Whether a net::AggregatingSwitch is available on this fabric.
  bool switch_available = true;
  /// Average request-slice wire bytes (coordinator's observed mean).
  uint64_t request_bytes = 0;
  /// Portion of every slice that is identical across shards
  /// (Workload::ScatterSharedBytes) — what a scatter-tree bundle ships
  /// once per subtree instead of once per shard.
  uint64_t shared_request_bytes = 0;
  /// Average per-slice response wire bytes.
  uint64_t response_bytes = 0;
  /// Merged-over-concatenated response size, in percent (from
  /// Workload::MergedBytes). 100 = merging never shrinks (KVS multi-get);
  /// ANNS top-k at 8 shards sits near 13.
  uint32_t shrink_pct = 100;
  /// Slowest shard's EWMA service estimate (coordinator estimator) — the
  /// serve term every topology is stuck behind.
  uint64_t service_estimate_cycles = 0;
  /// Mean of the per-shard EWMA service estimates. A wide max/mean gap on
  /// a compute-bound cluster means the partitioner, not the fabric, is the
  /// bottleneck — the picker then recommends balanced scatter placement.
  uint64_t service_estimate_mean_cycles = 0;
  /// Observed minimum request->response wire time (coordinator estimator).
  /// Constant across candidates; folded into the reported cost.
  uint64_t wire_estimate_cycles = 0;
  /// Port-0 receive occupancy over the probe window, in percent
  /// (fabric rx_busy_cycles / elapsed). Below kComputeBoundPct the
  /// cluster is compute-bound and topology cannot matter.
  uint32_t root_uplink_occupancy_pct = 100;
  /// Fabric facts (net::Fabric defaults: 64 B header, 62.5 B/cycle).
  uint64_t header_bytes = 64;
  uint64_t bytes_per_cycle_x16 = 1000;
  /// Tree / switch engine costs (GatherConfig defaults).
  uint64_t merge_cycles_per_input = 4;
  uint64_t switch_combine_cycles = 8;
  uint32_t fanout = 2;
};

/// One picked topology plus the evidence: the modeled bottleneck cost per
/// request and a one-line human-readable rationale (surfaced in bench
/// metrics and FrontDoor logs).
struct TopologyDecision {
  GatherConfig gather;
  uint64_t cost_cycles = 0;
  /// Compute-bound and service-imbalanced: the picker recommends cost-
  /// balanced scatter placement (workloads that can re-home slices apply
  /// it, e.g. AnnsTopKWorkload::Config::balance_scatter).
  bool balance_scatter = false;
  std::string rationale;
};

/// The cost-model topology picker behind --gather=auto: ranks flat,
/// flat-N, switch and tree gather by a per-request bottleneck model and
/// returns the cheapest as a ready-to-use GatherConfig.
///
/// The model scores each candidate as the max of its serialization terms
/// (slowest-shard service, per-port response ingress, per-port request
/// egress) plus any additive latency the shape introduces (tree depth).
/// Ties break toward the simpler shape: flat < flat-N < switch < tree.
/// When the probe shows the root uplink mostly idle the cluster is
/// compute-bound and the picker short-circuits to single-port flat —
/// no response topology can buy back cycles the shards spend scanning.
///
/// A tree pick also rides the request path down the same tree
/// (ScatterMode::kTree) whenever the request slices share bytes worth
/// multicasting.
class TopologyPlanner {
 public:
  /// Root-uplink occupancy (percent) below which the cluster is treated
  /// as compute-bound.
  static constexpr uint32_t kComputeBoundPct = 15;

  static TopologyDecision Choose(const PlannerInputs& in);

  /// Wire cycles for one packet of `payload_bytes` under `in`'s fabric
  /// facts (header included, cut-through, rounded up). Exposed for tests.
  static uint64_t WireCycles(const PlannerInputs& in, uint64_t payload_bytes);
};

/// Fills PlannerInputs from a drained probe cluster: the coordinator's
/// EWMA service/wire estimators and byte observations, the workload's
/// shared-bytes and merge-shrink descriptors, and the root-uplink
/// occupancy derived from observed response serialization over
/// `elapsed_cycles`. The probe should be a short single-port flat run of
/// the request class being planned — what a deployment observes before
/// reconfiguring. `probe_request` is any request id the probe served.
PlannerInputs HarvestPlannerInputs(const ShardCoordinator& coord,
                                   Workload& workload, uint32_t num_shards,
                                   uint64_t elapsed_cycles,
                                   uint64_t probe_request = 0);

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_TOPOLOGY_PLANNER_H_

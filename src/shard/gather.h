#ifndef FPGADP_SHARD_GATHER_H_
#define FPGADP_SHARD_GATHER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fpgadp::shard {

/// How shard responses travel back to the coordinator. Every topology
/// speaks the same merged-form answer (see ShardCoordinator); flat and
/// switch gather are one-node trees.
enum class GatherTopology : uint8_t {
  /// Every shard replies straight to the coordinator port its request came
  /// from. The E22 incumbent: all response bytes serialize through the
  /// coordinator's ingress port(s) — the fan-in wall.
  kFlat = 0,
  /// Responses climb a k-ary tree rooted at each coordinator port: interior
  /// shards partial-merge their children's responses with their own before
  /// forwarding (top-k of top-k's, multi-get concat), so the coordinator
  /// receives one merged packet per subtree instead of one per shard.
  kTree = 1,
  /// Responses are combined inside the switch by a per-port aggregation
  /// engine (net::AggregatingSwitch): shards reply as in flat gather, but
  /// the packets never occupy the coordinator's receive port — only the
  /// single combined response per port does.
  kSwitch = 2,
};

/// Returns a stable lowercase name for `topology` ("flat", "tree", "switch").
const char* GatherTopologyName(GatherTopology topology);

/// Parses "flat" / "tree" / "switch" (as spelled by GatherTopologyName);
/// returns false on anything else.
bool ParseGatherTopology(const std::string& text, GatherTopology* out);

/// How request slices travel from the coordinator to the shards.
enum class ScatterMode : uint8_t {
  /// One point-to-point kOffloadReq per slice through the shard's
  /// coordinator port — the historical request path, whose egress
  /// serializes every slice (and re-sends the shared portion of the
  /// request once per shard).
  kUnicast = 0,
  /// Request slices ride the same per-port k-ary tree the gather uses, as
  /// subtree bundles: the coordinator ships one bundle per group root
  /// carrying the request's shared bytes once plus every member's distinct
  /// bytes; interior shards peel off their own slice and forward one
  /// smaller bundle per child. Multicast on the wire: shared bytes cross
  /// the coordinator egress exactly once per group instead of once per
  /// shard, and a dead interior node degrades exactly its subtree.
  kTree = 1,
};

/// Gather-path shape of one ShardCluster. Also owns the cluster's node
/// numbering, because the coordinator's port count determines it.
struct GatherConfig {
  GatherTopology topology = GatherTopology::kFlat;
  /// Coordinator ingress ports (one RdmaEndpoint / QP each). Port p owns
  /// fabric node p; shard s talks to port s % coordinator_ports. More ports
  /// multiply the coordinator's aggregate line rate — the strengthened flat
  /// baseline of E24.
  uint32_t coordinator_ports = 1;
  /// kTree: children per interior node.
  uint32_t fanout = 2;
  /// kTree: cycles an interior shard's merge engine spends folding in one
  /// child response (its own partial is already in the pipeline). Each
  /// child is folded as it arrives, so the merge overlaps the wait for the
  /// rest of the subtree.
  uint64_t merge_cycles_per_input = 4;
  /// kTree: cycles after which an interior node forwards whatever subset of
  /// its children has arrived, so a dead child degrades its own subtree
  /// instead of wedging every ancestor. 0 waits forever — only safe on a
  /// loss-free fabric, where every child contribution always arrives.
  uint64_t merge_timeout_cycles = 0;
  /// kSwitch: cycles the switch's per-port combiner spends folding in one
  /// response.
  uint64_t switch_combine_cycles = 8;
  /// Request-path routing (independent of the response topology; any
  /// combination is legal except scatter trees with replication).
  ScatterMode scatter = ScatterMode::kUnicast;
  /// scatter == kTree: cycles an interior shard's NIC spends peeling one
  /// child bundle out of an arriving bundle before forwarding it.
  uint64_t scatter_forward_cycles = 4;
};

/// The routing half of gather: which fabric node each shard's answer goes
/// to, and how many child contributions it must fold in before forwarding.
/// Shared by the coordinator and every ShardServer, which asks Upstream()
/// when a slice resolves. Flat and switch gather are one-node trees that
/// need no per-request state; tree gather and tree scatter use routes the
/// coordinator arms per request at scatter and releases at finalize.
///
/// Routes are per request because a request may touch any subset of shards
/// (a multi-get's keys rarely cover all of them). Participants are grouped
/// by their coordinator port (shard % ports); each group forms one
/// array-heap-shaped `fanout`-ary tree over its members in ascending shard
/// order — child i's parent is member (i-1)/fanout — whose root forwards
/// the group's merged response to the group's port.
///
/// Thread-safety: none needed. The engine ticks one module at a time, and
/// the plan is only touched from coordinator and server Tick()s.
class GatherPlan {
 public:
  /// Sentinel parent: forward to the coordinator port, not a shard.
  static constexpr uint32_t kToCoordinator = 0xffffffffu;

  /// A shard's place in one request's gather tree.
  struct Role {
    uint32_t parent = kToCoordinator;  ///< Shard id, or kToCoordinator.
    uint32_t port = 0;  ///< Destination port when parent == kToCoordinator.
    uint32_t expected_children = 0;  ///< Contributions to fold in.
    /// Child shards in tree order (scatter == kTree: the bundles this node
    /// peels off and forwards).
    std::vector<uint32_t> down;
    /// This shard's own request slice, on the wire (shared + distinct).
    uint64_t slice_bytes = 0;
    /// Bundle bytes for this node's whole subtree: the request's shared
    /// bytes once, plus every subtree member's distinct bytes.
    uint64_t subtree_bytes = 0;
    /// Coordinator tag of this shard's slice, so a scatter-tree recipient
    /// can tag its answer and report its service without a per-slice
    /// request packet having carried the tag to it.
    uint64_t tag = 0;
  };

  /// Where one shard's answer goes and what it must fold in first.
  struct Hop {
    uint32_t dst = 0;       ///< Fabric node: a parent shard or a port.
    uint32_t children = 0;  ///< Child contributions to fold in.
  };

  /// Everything Arm needs to know about one slice of a request.
  struct SliceInfo {
    uint32_t shard = 0;
    uint64_t request_bytes = 0;  ///< Wire bytes incl. the shared portion.
    uint64_t tag = 0;
  };

  /// `replicas` is the per-shard replication factor R: every shard gets R
  /// fabric nodes, one per replica. R > 1 requires flat topology (tree and
  /// switch gather route by shard id, not by replica). Answers carry shard
  /// coverage as 64-bit masks, so every topology allows at most 64 shards.
  GatherPlan(const GatherConfig& config, uint32_t num_shards,
             uint32_t replicas = 1);

  GatherTopology topology() const { return config_.topology; }
  uint32_t ports() const { return config_.coordinator_ports; }
  uint32_t num_shards() const { return num_shards_; }
  uint32_t replicas() const { return replicas_; }
  const GatherConfig& config() const { return config_; }

  // Node numbering: coordinator ports occupy fabric nodes [0, ports);
  // replica r of shard s lives at ports + r * num_shards + s, so the R=1
  // layout is the historical one (coordinator at node 0, shard s at 1 + s)
  // and growing R appends whole replica tiers without renumbering anything.
  uint32_t num_nodes() const { return ports() + replicas_ * num_shards_; }
  uint32_t ReplicaNode(uint32_t shard, uint32_t replica) const {
    return ports() + replica * num_shards_ + shard;
  }
  uint32_t ShardNode(uint32_t shard) const { return ReplicaNode(shard, 0); }
  uint32_t PortNode(uint32_t port) const { return port; }
  /// Coordinator port serving `shard` (request egress and, in flat and
  /// switch gather, response ingress).
  uint32_t PortOf(uint32_t shard) const {
    return shard % config_.coordinator_ports;
  }

  /// Tree gather and/or tree scatter: builds the request's per-port trees
  /// over its slices. Must run before the first slice ships. Per-slice wire
  /// sizes and tags let the routes double as the scatter plan.
  /// `shared_bytes` is the portion of every slice that is identical across
  /// shards (e.g. the query vector): a subtree bundle carries it once, plus
  /// each member's distinct remainder. Slices must be sorted by shard
  /// (unique) and each slice's request_bytes must be >= shared_bytes.
  void Arm(uint64_t request_id, const std::vector<SliceInfo>& slices,
           uint64_t shared_bytes);
  /// Drops a finalized request's route; stale lookups return nullptr and
  /// the holder discards its orphaned merge state.
  void Release(uint64_t request_id);
  /// The shard's role in `request_id`'s tree, or nullptr when the request
  /// is unarmed / released / does not involve the shard.
  const Role* RoleOf(uint64_t request_id, uint32_t shard) const;
  /// Where `shard`'s answer for `request_id` goes. Flat and switch gather:
  /// the shard's own coordinator port with no children, without a lookup.
  /// Tree gather: the armed route; false once it was released (the gather
  /// finalized) or when the request does not involve the shard.
  bool Upstream(uint64_t request_id, uint32_t shard, Hop* hop) const;

  size_t armed_requests() const { return routes_.size(); }

 private:
  GatherConfig config_;
  uint32_t num_shards_;
  uint32_t replicas_;
  std::map<uint64_t, std::map<uint32_t, Role>> routes_;
};

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_GATHER_H_

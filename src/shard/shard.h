#ifndef FPGADP_SHARD_SHARD_H_
#define FPGADP_SHARD_SHARD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/shard/gather.h"
#include "src/shard/replica.h"
#include "src/sim/engine.h"
#include "src/sim/module.h"

namespace fpgadp::net {
class AggregatingSwitch;
}  // namespace fpgadp::net

namespace fpgadp::shard {

/// One slice of a scattered request: the work one shard serves. The
/// workload names the shard and the wire size of the slice (query vector,
/// key batch, partition payload); functional contents stay in process
/// memory, as everywhere else in the repo.
struct SubRequest {
  uint32_t shard = 0;
  uint64_t request_bytes = 0;
  /// The workload's own estimate of Serve()'s compute_cycles for this
  /// slice, used by deadline-feasibility admission to cost the queue ahead
  /// of a candidate request. 0 = unknown; the coordinator falls back to its
  /// per-shard EWMA of observed service times.
  uint64_t est_service_cycles = 0;
};

/// Shard-side service facts for one slice: how long the shard's pipeline is
/// occupied and how many payload bytes the reply carries back.
struct Service {
  uint64_t compute_cycles = 1;
  uint64_t response_bytes = 0;
};

/// How one slice of a gather ended.
enum class SubOutcome : uint8_t {
  kPending = 0,   ///< Not resolved yet (never appears in a finalized gather).
  kDone = 1,      ///< Response received and merged.
  kRejected = 2,  ///< Shard admission queue full; shard answered "busy".
  kFailed = 3,    ///< RDMA retry cap exhausted (dead shard / dead link).
  kTimedOut = 4,  ///< Gather deadline expired before the response.
};

/// How ShardCoordinator::TrySubmit decides to shed a request at ingress
/// (Submit() bypasses admission entirely and always enqueues).
enum class AdmissionPolicy : uint8_t {
  /// Shed when the number of in-flight gathers reaches `max_pending` — the
  /// classic bounded-queue front door. Blind to deadlines: under sustained
  /// overload every admitted request still waits the full queue, so tail
  /// latency is max_pending * service, SLO or not.
  kQueueDepth = 0,
  /// Shed when the request cannot finish inside its deadline budget given
  /// the current per-shard backlog and service/wire estimates: for each
  /// slice, ETA = wire_estimate + queued_cost(shard) + est(slice); any
  /// slice with ETA > headroom% * deadline sheds the whole request. Admits
  /// everything a deadline could tolerate and nothing it couldn't, so the
  /// latency of *served* requests stays bounded near the SLO while excess
  /// load turns into fast-fail sheds instead of queue time.
  kDeadlineFeasible = 1,
};

/// Degradation report for one gathered request — the serving-layer analogue
/// of accl::PartialOutcome: which shards contributed and why the others did
/// not. `status` is OK only when every slice merged; a degraded gather
/// still carries the merged partial result in the workload.
struct PartialOutcome {
  /// One slice, in scatter order.
  struct Slice {
    uint32_t shard = 0;
    SubOutcome outcome = SubOutcome::kPending;
  };

  uint64_t request_id = 0;
  std::vector<Slice> slices;
  uint32_t shards_done = 0;      ///< Slices that resolved kDone.
  sim::Cycle completed_at = 0;   ///< Cycle the gather finalized.
  Status status;                 ///< OK, Unavailable, ResourceExhausted, Timeout.

  uint32_t shards_total() const {
    return static_cast<uint32_t>(slices.size());
  }
  bool degraded() const { return shards_done != shards_total(); }
};

/// The application half of the serving layer. The coordinator and servers
/// own everything workload-agnostic — scatter windows, wire timing,
/// admission, failure detection, gather deadlines — and call back here for
/// the three things only the workload knows: how a request splits across
/// shards, what serving one slice costs, and how the partials merge.
///
/// Scatter() runs on the submitting thread, outside any engine tick, so it
/// may do heavy precomputation (HashJoinWorkload runs nested pipeline
/// simulations there). Serve() and Merge() run inside module Tick()s: they
/// must be functional-only — no nested engines, no metrics lookups.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Splits `request_id` into per-shard slices. At most one slice per
  /// shard; must not be empty.
  virtual std::vector<SubRequest> Scatter(uint64_t request_id) = 0;

  /// Serves the slice of `request_id` owned by `shard` and returns its cost,
  /// which is due at return: the server charges it at once. The slice's
  /// partial result need only be ready by the Merge() that reads it, so a
  /// workload may compute it off the engine thread (AnnsTopKWorkload scans
  /// on the worker pool); no cost may then depend on it.
  virtual Service Serve(uint32_t shard, uint64_t request_id) = 0;

  /// Combines the partial results of the slices that resolved kDone (see
  /// `outcome.slices`) into the request's final result.
  virtual void Merge(uint64_t request_id, const PartialOutcome& outcome) = 0;

  /// Wire bytes of one partial-merged response covering the kDone shards in
  /// `done_mask` (bit s = shard s), given the concatenated size of its
  /// inputs. Hierarchical and in-network gather call this wherever partial
  /// merges happen (interior shards, switch combiners); the default —
  /// concatenation conserves bytes — is exact for multi-get and join, while
  /// shrinking merges (top-k keeps k of everything) override it. Runs
  /// inside module Tick()s: functional-only, like Serve and Merge.
  virtual uint64_t MergedBytes(uint64_t request_id, uint64_t done_mask,
                               uint64_t concat_bytes) {
    (void)request_id;
    (void)done_mask;
    return concat_bytes;
  }

  /// Bytes of the scattered request that are identical across every slice
  /// (e.g. the query vector of an ANNS request, which each shard needs in
  /// full). A scatter-tree bundle carries them once per subtree instead of
  /// once per shard — the multicast saving. Must not exceed the
  /// request_bytes of any slice. Runs inside module Tick()s:
  /// functional-only, like Serve and Merge. Default: nothing is shared.
  virtual uint64_t ScatterSharedBytes(uint64_t request_id) {
    (void)request_id;
    return 0;
  }

  /// Live resharding: which shard currently owns the slice that was
  /// scattered to `shard` for `request_id`. A server about to serve a slice
  /// consults this; when the answer is another shard (the slice's key range
  /// migrated after scatter), the server forwards the request there instead
  /// of serving stale ownership. The default — nothing ever migrates —
  /// returns `shard`, which keeps non-elastic workloads bit-identical.
  /// Runs inside module Tick()s: functional-only, like Serve and Merge.
  virtual uint32_t SliceOwner(uint32_t shard, uint64_t request_id) {
    (void)request_id;
    return shard;
  }

  /// Live resharding: atomically transfer ownership (partitioner ranges +
  /// whatever per-shard state the workload keeps) for `plan`'s key range
  /// from source to target. Called by the coordinator the moment the last
  /// migrated byte lands — the flip point of the double-ownership window.
  /// Runs inside the coordinator's Tick: functional-only, and must leave
  /// every key owned by exactly one shard. Default: no per-shard state.
  virtual void CommitMigration(const MigrationPlan& plan) { (void)plan; }
};

/// Scatter-gather front end, one per cluster, owning fabric nodes
/// [0, ports) — one RdmaEndpoint (QP) per ingress port. Submit() splits a
/// request via Workload::Scatter and queues one sub-request per shard; the
/// tick loop ships them through the shard's port under a per-shard
/// admission window, collects responses and transport failures, enforces
/// the gather deadline, and finalizes each request into a PartialOutcome
/// (merging via Workload::Merge).
///
/// Responses arrive in one merged form whatever the topology — `user` =
/// request id, `addr` = done-shard mask, `user2` = rejected-shard mask —
/// one per shard under flat gather, one per subtree root under tree gather
/// and one per combine group under switch gather; the GatherPlan alone
/// decides where each answer goes. An answer for a single slice carries
/// that slice's tag, so a stale one (its slice resolved, or was replayed to
/// a promoted primary) is dropped and counted late. Service telemetry does
/// not ride the wire: the serving shard reports its cycles and response
/// bytes by tag (ReportService), and a kDone resolution folds them into the
/// admission estimator under every topology.
///
/// Failure semantics: a slice resolves kFailed when the endpoint's retry
/// cap expires (dead shard or dead link — lossy fabric only), kRejected
/// when the shard sheds it at admission, and kTimedOut when the gather
/// deadline fires first (the only defense against responses lost after the
/// shard served them). A degraded gather never stalls the others: it
/// finalizes with whatever slices completed. Under tree gather a dead
/// interior shard degrades exactly its subtree: the coordinator's send
/// retry cap fails the dead slice, its descendants time out (their merged
/// contributions died with the parent), and its ancestors forward partial
/// merges after the plan's merge timeout.
class ShardCoordinator : public sim::Module {
 public:
  struct Config {
    /// Sub-requests in flight per shard before further ones queue at the
    /// coordinator (the admission window).
    uint32_t window = 4;
    /// Cycles after scatter at which an incomplete gather degrades into a
    /// PartialOutcome. 0 waits forever — only safe on a loss-free fabric.
    uint64_t gather_deadline_cycles = 0;
    /// Ingress admission for TrySubmit() (Submit() never sheds).
    AdmissionPolicy admission = AdmissionPolicy::kQueueDepth;
    /// kQueueDepth: shed when this many gathers are already in flight.
    /// 0 = unbounded (TrySubmit admits everything).
    uint32_t max_pending = 0;
    /// kDeadlineFeasible: seed for the per-shard service-time EWMA until
    /// the first response reports a real measurement.
    uint64_t initial_service_estimate_cycles = 64;
    /// kDeadlineFeasible: assumed request+response wire time until the
    /// first response pins it (thereafter the minimum observed
    /// round-trip-minus-service, i.e. the uncongested wire estimate).
    uint64_t initial_wire_estimate_cycles = 256;
    /// kDeadlineFeasible: percentage of the deadline budget admission may
    /// plan into. 100 fills the budget exactly; lower values keep headroom
    /// for estimate error (service jitter, fabric contention).
    uint32_t feasibility_headroom_pct = 100;
  };

  /// `endpoints[p]` is the QP on fabric node p — one per coordinator port
  /// (plan->ports() of them). `plan` routes responses (never null; a
  /// default-constructed GatherPlan is flat single-port). `agg_switch` is
  /// only set for switch gather: the coordinator arms a combine group per
  /// (request, port) at scatter and disarms it at finalize. `elastic` is
  /// the cluster's shared replica/migration state (never null).
  ShardCoordinator(std::string name, Workload* workload,
                   std::vector<net::RdmaEndpoint*> endpoints,
                   GatherPlan* plan, net::AggregatingSwitch* agg_switch,
                   uint32_t num_shards, const Config& config,
                   ElasticState* elastic);

  /// Scatters one request. Call before Run() or between runs, never from a
  /// module Tick (Workload::Scatter may run nested simulations).
  void Submit(uint64_t request_id);

  /// Serving-path ingress: offers one request whose scatter plan was
  /// precomputed outside any tick (so this IS tick-safe — the serving
  /// front door calls it at arrival time from its own Tick). Runs the
  /// configured AdmissionPolicy against `deadline_budget_cycles` (the
  /// request's SLO, counted from arrival) and either enqueues every slice
  /// (true) or sheds the whole request without touching coordinator state
  /// (false; the caller owns shed accounting — no PartialOutcome is made).
  bool TrySubmit(uint64_t request_id, const std::vector<SubRequest>& subs,
                 uint64_t deadline_budget_cycles);

  /// Pops one finalized gather, oldest first.
  bool PollOutcome(PartialOutcome* out);

  /// Called by the serving shard at serve start: records the slice's
  /// service cycles and response payload against its tag, in process
  /// memory like the workload's functional partials. A stale tag (the slice
  /// resolved, or was replayed under a fresh tag) is ignored. The record is
  /// read only when a response resolves the slice kDone, so reporting never
  /// moves admission timing.
  void ReportService(uint64_t tag, uint64_t service_cycles,
                     uint64_t response_bytes);

  /// Live resharding: kicks off one key-range migration. Sends
  /// kMigrateStart to the source's primary; the source streams
  /// kMigrateChunk packets to the target while both keep serving, and when
  /// the last byte lands the coordinator flips ownership
  /// (Workload::CommitMigration) and drains requests scattered pre-flip.
  /// Requires flat gather. `now` stamps started_at
  /// (pass engine.now() when calling between runs).
  void StartMigration(const MigrationPlan& plan, sim::Cycle now = 0);

  /// Finalized gathers waiting in PollOutcome order. Front-door modules
  /// consult this from NextEventCycle so fast-forward never skips past an
  /// unpolled outcome.
  size_t outcomes_available() const { return outcomes_.size(); }

  /// Registers the module that polls finalized gathers (PollOutcome).
  /// Under event-driven scheduling the coordinator wakes it whenever a
  /// gather is about to finalize, so the poller may sleep in between.
  void SetOutcomeListener(sim::Module* listener) {
    outcome_listener_ = listener;
  }

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override { return active_.empty() && total_queued_ == 0; }
  sim::Cycle NextEventCycle(sim::Cycle now) const override;
  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

  uint64_t gathers_completed() const { return gathers_completed_; }
  uint64_t gathers_degraded() const { return gathers_degraded_; }
  /// Requests TrySubmit refused at ingress under the admission policy.
  uint64_t ingress_shed() const { return ingress_shed_; }
  /// Current admission-relevant view of one shard: EWMA of reported
  /// service cycles and the sum of estimated cycles queued or in flight.
  uint64_t service_estimate(uint32_t shard) const {
    return svc_est_x16_[shard] >> 4;
  }
  uint64_t queued_cost(uint32_t shard) const { return pending_cost_[shard]; }
  /// Uncongested wire round-trip estimate (min observed rtt - service).
  uint64_t wire_estimate() const { return wire_est_; }
  /// Mean request-slice wire bytes over everything enqueued so far, and
  /// mean per-slice response payload over the slices resolved kDone so far
  /// (0 before the first one). The topology planner reads these after a
  /// flat probe run to size its wire-cost terms.
  uint64_t avg_request_bytes() const {
    return req_slices_ == 0 ? 0 : req_bytes_total_ / req_slices_;
  }
  uint64_t avg_response_bytes() const {
    return resp_count_ == 0 ? 0 : resp_bytes_total_ / resp_count_;
  }
  /// Slices resolved kDone by a response.
  uint64_t responses_observed() const { return resp_count_; }
  /// Responses that arrived after their gather finalized (deadline races).
  uint64_t late_responses() const { return late_responses_; }
  /// Cycles spent with gathers outstanding and nothing arriving — the
  /// fan-in stall the obs layer attributes as input starvation.
  uint64_t gather_stall_cycles() const { return gather_stall_cycles_; }
  /// Deepest coordinator-side send queue ever observed for `shard`.
  size_t queue_high_watermark(uint32_t shard) const {
    return queue_hwm_[shard];
  }
  /// Primary promotions performed (transport-triggered + beacon-triggered).
  uint64_t failovers() const { return failovers_; }
  /// In-flight slices re-posted to a freshly promoted primary.
  uint64_t replayed_slices() const { return replayed_slices_; }
  /// Replicas declared dead because their health beacon went silent.
  uint64_t beacon_timeouts() const { return beacon_timeouts_; }
  /// Migrations whose ownership flip committed.
  uint64_t migrations_flipped() const { return migrations_flipped_; }

 protected:
  /// A skipped window is exactly a run of no-progress ticks: gathers
  /// outstanding wait on fan-in (starved), otherwise the module is idle
  /// (backfilled). Mirrors the serial Tick classification bit-for-bit.
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override;

 private:
  /// One slice of an active request.
  struct Sub {
    uint32_t shard = 0;
    uint64_t bytes = 0;
    uint64_t tag = 0;  ///< Assigned at Submit; keys tag_map_.
    /// Service estimate charged to pending_cost_ at enqueue; the same
    /// amount is released on resolve (the EWMA may have moved meanwhile).
    uint64_t est_cycles = 0;
    sim::Cycle sent_at = 0;  ///< Cycle the slice shipped (valid iff sent).
    /// Reported by the serving shard (ReportService); read on kDone.
    uint64_t service_cycles = 0;
    uint64_t response_bytes = 0;
    bool sent = false;
    /// Counted against in_flight_[shard] while sent and unresolved. Under
    /// tree scatter only each port-group's root slice is windowed — its
    /// descendants ride the root's bundle and never occupy the window.
    bool windowed = true;
    SubOutcome outcome = SubOutcome::kPending;
  };

  /// One scattered request awaiting its gather.
  struct Active {
    std::vector<Sub> subs;
    uint32_t resolved = 0;
    sim::Cycle deadline = 0;  ///< 0 = unarmed (armed on the next tick).
  };

  void ResolveSub(uint64_t request_id, size_t sub_index, SubOutcome outcome,
                  sim::Cycle cycle);
  void Finalize(uint64_t request_id, Active& active, sim::Cycle cycle);
  /// True when `shard` still has a live standby to promote.
  bool CanFailover(uint32_t shard) const;
  /// Promotes `shard`'s next live replica and replays every sent,
  /// unresolved slice to it under a fresh tag (the old tags die with the
  /// old primary: late completions and responses miss tag_map_ and are
  /// dropped, so at-least-once delivery never produces a second result).
  void FailoverShard(uint32_t shard, sim::Cycle cycle);
  /// Beacon liveness sweep: promotes away from a primary whose beacon
  /// missed its deadline; marks silent standbys dead.
  void CheckBeacons(sim::Cycle cycle);
  /// kMigrateDone landed: commit the ownership flip and start the drain.
  void HandleMigrateDone(const net::Packet& p, sim::Cycle cycle);
  /// Emits a named trace instant when tracing is attached.
  void TraceElastic(const std::string& what, sim::Cycle cycle);
  /// The fabric node currently serving `shard` (its primary replica).
  uint32_t PrimaryNode(uint32_t shard) const;
  /// Shared Submit/TrySubmit tail: registers the request and queues every
  /// slice (charging pending_cost_). Tick-safe; never runs Scatter (under
  /// tree scatter it consults the functional-only ScatterSharedBytes).
  void Enqueue(uint64_t request_id, const std::vector<SubRequest>& subs);
  /// The service estimate admission charges for one slice: the workload's
  /// own figure when present, else the shard's EWMA.
  uint64_t EstimateFor(const SubRequest& sub) const;
  /// Folds a served slice's reported service time and observed round trip
  /// into the per-shard EWMA and the wire floor.
  void ObserveService(uint32_t shard, uint64_t service_cycles,
                      uint64_t rtt_cycles);
  /// Ships queued slices while windows have room; lazily drops entries
  /// whose request finalized (deadline expiry) in the meantime.
  bool PumpQueues(sim::Cycle cycle);
  /// Tree scatter: a root bundle just shipped — stamp every descendant
  /// slice of `root_role`'s subtree as sent at `cycle` (they ride the
  /// bundle; none of them is windowed).
  void MarkSubtreeSent(Active& a, uint64_t request_id,
                       const GatherPlan::Role& root_role, sim::Cycle cycle);
  /// Resolves the pending slices a response's masks cover, training the
  /// admission estimator on each one done.
  void HandleResponse(const net::Packet& p, sim::Cycle cycle);

  Workload* workload_;
  std::vector<net::RdmaEndpoint*> endpoints_;
  GatherPlan* plan_;
  net::AggregatingSwitch* agg_switch_;
  uint32_t num_shards_;
  Config config_;

  std::map<uint64_t, Active> active_;
  std::vector<std::deque<std::pair<uint64_t, size_t>>> shard_queue_;
  std::vector<uint32_t> in_flight_;  ///< Sent, unresolved slices per shard.
  size_t total_queued_ = 0;
  std::map<uint64_t, std::pair<uint64_t, size_t>> tag_map_;  ///< tag -> slice.
  uint64_t next_tag_ = 1;
  std::deque<PartialOutcome> outcomes_;
  sim::Module* outcome_listener_ = nullptr;  ///< Woken before finalizes.

  uint64_t gathers_completed_ = 0;
  uint64_t gathers_degraded_ = 0;
  uint64_t late_responses_ = 0;
  uint64_t gather_stall_cycles_ = 0;
  uint64_t ingress_shed_ = 0;
  std::vector<size_t> queue_hwm_;

  // Admission state (kDeadlineFeasible): per-shard service EWMA in 4-bit
  // fixed point (est = svc_est_x16_ >> 4), the estimated cycles sitting in
  // each shard's queue + flight, and the min observed wire round trip. All
  // integer arithmetic, so admission decisions are bit-deterministic.
  std::vector<uint64_t> svc_est_x16_;
  std::vector<uint64_t> pending_cost_;
  uint64_t wire_est_ = 0;
  bool wire_seen_ = false;

  // Observed wire sizes, for the topology planner (see avg_*_bytes()).
  uint64_t req_bytes_total_ = 0;
  uint64_t req_slices_ = 0;
  uint64_t resp_bytes_total_ = 0;
  uint64_t resp_count_ = 0;

  // Elastic operations.
  ElasticState* elastic_ = nullptr;
  /// Requests active at each migration's flip; the migration is kDone when
  /// its set drains. Keyed by migration seq.
  std::map<uint64_t, std::vector<uint64_t>> migration_drain_;
  uint64_t failovers_ = 0;
  uint64_t replayed_slices_ = 0;
  uint64_t beacon_timeouts_ = 0;
  uint64_t migrations_flipped_ = 0;
};

/// One simulated FPGA instance serving its shard of the workload, at fabric
/// node GatherPlan::ReplicaNode(shard_id, replica_index). Sub-requests
/// arrive as kOffloadReq packets; each is either admitted into a bounded
/// queue or immediately rejected ("busy"), so an overloaded shard sheds
/// load instead of stalling the cluster. The pipeline serves one slice at a
/// time: Workload::Serve names the occupancy, and the slice resolves when
/// it elapses. At serve start the server reports the slice's service
/// cycles and response bytes to the coordinator (ReportService).
///
/// Every server is a node of its request's gather tree: its own slice
/// (done or rejected) and any children's merged contributions fold into one
/// merge state per request, each child as it arrives at the plan's
/// per-input merge cost, and one merged-form kOffloadResp leaves for
/// GatherPlan::Upstream once the subtree is complete — or, on a lossy
/// fabric, after at most the merge timeout, so a silent child costs its
/// subtree but not the ancestors. Flat and switch gather are one-node
/// trees, so the answer leaves the moment the slice resolves (switch gather
/// then combines it in-fabric).
class ShardServer : public sim::Module {
 public:
  struct Config {
    /// Admitted sub-requests waiting behind the pipeline; arrivals beyond
    /// this are rejected.
    uint32_t max_queue = 16;
  };

  /// `plan` routes answers and `coordinator` receives service reports;
  /// neither may be null. `replica_index` places this server as replica r
  /// of its shard (fabric node plan->ReplicaNode(shard_id, r)); `elastic`
  /// is the cluster's shared replica/migration state (never null).
  ShardServer(std::string name, uint32_t shard_id, Workload* workload,
              net::RdmaEndpoint* endpoint, const GatherPlan* plan,
              ShardCoordinator* coordinator, const Config& config,
              uint32_t replica_index, ElasticState* elastic);

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override {
    return !busy_ && queue_.empty() && merges_.empty() && emits_.empty() &&
           streaming_seq_ == 0;
  }
  sim::Cycle NextEventCycle(sim::Cycle now) const override;
  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

  uint64_t served() const { return served_; }
  uint64_t rejected() const { return rejected_; }
  /// Cycles the serving pipeline was occupied.
  uint64_t service_cycles() const { return service_cycles_; }
  size_t queue_high_watermark() const { return queue_hwm_; }
  uint32_t shard_id() const { return shard_id_; }
  /// Tree gather: merged packets forwarded upstream (counted under tree
  /// gather only), partial forwards forced by the merge timeout, and
  /// orphaned merge states dropped because the gather had already
  /// finalized.
  uint64_t merges_forwarded() const { return merges_forwarded_; }
  uint64_t merge_timeouts() const { return merge_timeouts_; }
  uint64_t stale_merges_dropped() const { return stale_merges_dropped_; }
  /// Tree scatter: child bundles this node peeled off and forwarded down
  /// its subtree, and bundles dropped because their gather had already
  /// finalized and released the route.
  uint64_t bundles_forwarded() const { return bundles_forwarded_; }
  uint64_t stale_bundles_dropped() const { return stale_bundles_dropped_; }
  uint32_t replica_index() const { return replica_index_; }
  /// Slices re-routed to their post-migration owner at serve time (the
  /// double-ownership window's forward path).
  uint64_t forwarded() const { return forwarded_; }
  uint64_t beacons_sent() const { return beacons_sent_; }
  /// Migrated state bytes this server streamed out as the source.
  uint64_t migrated_bytes_out() const { return migrated_bytes_out_; }

  /// Test hook: every slice this server executes is appended to `log` as
  /// {serve-start cycle, request id, slice shard}. Null (default) disables
  /// recording; the property tier uses it to prove exactly-once execution
  /// across a migration's double-ownership window.
  struct ServedRecord {
    sim::Cycle cycle = 0;
    uint64_t request_id = 0;
    uint32_t slice_shard = 0;
  };
  void set_serve_log(std::vector<ServedRecord>* log) { serve_log_ = log; }

 protected:
  /// A skipped window while the pipeline crunches is busy time; an empty
  /// server is idle (backfilled). Mirrors the serial Tick classification.
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override;

 private:
  /// Accumulating merge state for one request at this gather-tree node.
  struct MergeState {
    uint64_t done_mask = 0;
    uint64_t rejected_mask = 0;
    uint64_t concat_bytes = 0;
    uint32_t children_seen = 0;
    bool own_resolved = false;
    /// The own slice's scatter shard, whose hop the answer takes (this
    /// server's shard unless the slice was forwarded here), and its tag.
    uint32_t own_shard = 0;
    uint64_t own_tag = 0;
    sim::Cycle timeout_at = 0;  ///< 0 = no timeout armed.
    /// Cycle the merge engine finishes folding every contribution accepted
    /// so far (each child charged on arrival).
    sim::Cycle merge_ready_at = 0;
  };
  /// A packet waiting out its merge or bundle-forward delay before posting.
  struct PendingEmit {
    sim::Cycle at = 0;
    net::Packet packet;
  };

  /// The scatter shard a request slice belongs to: this server's, or the
  /// one a forwarded slice carries.
  uint32_t SliceShard(const net::Packet& req) const;
  /// A fresh merge state first touched at `cycle` (merge timeout armed).
  MergeState NewMerge(sim::Cycle cycle) const;
  /// Folds this server's own slice of `req`, served or rejected, into its
  /// request's merge state and emits if the subtree is complete. A state
  /// waits in merges_ only while its subtree is incomplete, so a childless
  /// answer (every flat and switch one) never enters the map.
  void FoldOwn(const net::Packet& req, bool served, uint64_t response_bytes,
               sim::Cycle cycle);
  /// Emits `m`, the request's merged answer, upstream once its subtree is
  /// complete, or regardless when `force` (merge timeout). Returns true
  /// when `m` is finished: emitted, or dropped because the gather already
  /// released its route.
  bool TryEmit(uint64_t request_id, const MergeState& m, bool force,
               sim::Cycle cycle);
  /// Posts the periodic liveness beacon when elastic beacons are on.
  void TickBeacon(sim::Cycle cycle, bool* progressed);
  /// Streams the next paced migration chunk when this server is a source.
  void TickMigration(sim::Cycle cycle, bool* progressed);
  /// Aborts the active migration this server participates in (chunk or
  /// done-notification hit the transport retry cap).
  void AbortMigration(sim::Cycle cycle);

  uint32_t shard_id_;
  Workload* workload_;
  net::RdmaEndpoint* endpoint_;
  const GatherPlan* plan_;
  ShardCoordinator* coordinator_;
  Config config_;
  uint32_t replica_index_ = 0;
  ElasticState* elastic_ = nullptr;

  std::deque<net::Packet> queue_;
  bool busy_ = false;
  sim::Cycle done_at_ = 0;
  net::Packet serving_;             ///< The request in the pipeline.
  uint64_t serving_resp_bytes_ = 0;  ///< Its answer's payload.
  /// Incomplete merge states by request id (tree-gather interior nodes).
  std::map<uint64_t, MergeState> merges_;
  std::vector<PendingEmit> emits_;

  uint64_t served_ = 0;
  uint64_t rejected_ = 0;
  uint64_t service_cycles_ = 0;
  size_t queue_hwm_ = 0;
  uint64_t merges_forwarded_ = 0;
  uint64_t merge_timeouts_ = 0;
  uint64_t stale_merges_dropped_ = 0;
  uint64_t bundles_forwarded_ = 0;
  uint64_t stale_bundles_dropped_ = 0;

  // Elastic operations.
  sim::Cycle next_beacon_at_ = 0;  ///< 0 = beacons off.
  uint64_t streaming_seq_ = 0;     ///< Migration this node is streaming out.
  uint64_t forwarded_ = 0;
  uint64_t beacons_sent_ = 0;
  uint64_t migrated_bytes_out_ = 0;
  std::vector<ServedRecord>* serve_log_ = nullptr;
};

/// Wires a whole scale-out deployment together: a fabric of ports +
/// num_shards nodes, an RdmaEndpoint per node, the coordinator on nodes
/// [0, ports) and one ShardServer per shard — everything registered on one
/// engine, ready to Submit() and Run(). The workload outlives the cluster.
/// The default GatherConfig (flat, one port) reproduces the historical
/// topology bit-for-bit; `gather` selects tree or switch aggregation and
/// the coordinator's ingress port count (see gather.h).
///
///   shard::AnnsTopKWorkload wl(&index, partitioner, wl_config);
///   shard::ShardCluster cluster(&wl, {.num_shards = 4});
///   cluster.Submit(wl.AddQuery(q));
///   auto cycles = cluster.Run();
///   while (cluster.PollOutcome(&outcome)) ...
class ShardCluster {
 public:
  struct Config {
    uint32_t num_shards = 4;
    net::Fabric::Config fabric;
    GatherConfig gather;
    ShardCoordinator::Config coordinator;
    ShardServer::Config server;
    net::Retry reliability;
    /// Elastic operations: replication factor and health beacons. The
    /// defaults (R=1, no beacons) reproduce the historical cluster
    /// bit-for-bit. R > 1 or migrations require flat gather.
    ReplicaConfig replica;
  };

  ShardCluster(Workload* workload, const Config& config);
  ~ShardCluster();

  /// Attaches a fault injector to the fabric (lossy mode). Must be called
  /// before any request is submitted. Tree gather on a lossy fabric
  /// requires a merge timeout (a lost child contribution would otherwise
  /// wedge its ancestors forever).
  void set_fault_injector(net::FaultInjector* injector);

  void Submit(uint64_t request_id) { coordinator_->Submit(request_id); }
  Result<sim::Cycle> Run(uint64_t max_cycles = 1ull << 32) {
    return engine_.Run(max_cycles);
  }
  bool PollOutcome(PartialOutcome* out) {
    return coordinator_->PollOutcome(out);
  }

  /// Live resharding entry point: validates and launches `plan` (stamped
  /// with the engine's current cycle). Serving continues; Run() to let the
  /// copy stream, flip, and drain.
  void StartMigration(const MigrationPlan& plan) {
    coordinator_->StartMigration(plan, engine_.now());
  }

  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  ShardCoordinator& coordinator() { return *coordinator_; }
  /// Replica r of `shard` (servers_[r * num_shards + shard], mirroring the
  /// fabric node numbering); the single-argument form is replica 0.
  ShardServer& server(uint32_t shard) { return *servers_[shard]; }
  ShardServer& server(uint32_t shard, uint32_t replica) {
    return *servers_[size_t{replica} * config_.num_shards + shard];
  }
  uint32_t num_shards() const { return config_.num_shards; }
  const GatherPlan& gather_plan() const { return plan_; }
  ElasticState& elastic() { return elastic_; }
  const ElasticState& elastic() const { return elastic_; }
  /// The in-fabric combiner; null unless gather.topology == kSwitch.
  net::AggregatingSwitch* agg_switch() { return agg_switch_.get(); }

 private:
  Config config_;
  GatherPlan plan_;
  ElasticState elastic_;
  sim::Engine engine_;
  net::Fabric fabric_;
  std::unique_ptr<net::AggregatingSwitch> agg_switch_;
  std::vector<std::unique_ptr<net::RdmaEndpoint>> coordinator_eps_;
  std::vector<std::unique_ptr<net::RdmaEndpoint>> server_eps_;
  std::unique_ptr<ShardCoordinator> coordinator_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
};

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_SHARD_H_

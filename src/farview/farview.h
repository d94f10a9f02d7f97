#ifndef FPGADP_FARVIEW_FARVIEW_H_
#define FPGADP_FARVIEW_FARVIEW_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/device/device.h"
#include "src/memory/multi_channel.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/relational/operators.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"

namespace fpgadp::farview {

/// Configuration of a Farview deployment: one compute node (the database
/// engine) and one smart-memory node (FPGA-attached DRAM on the network),
/// as in Figure 2 of the tutorial.
struct FarviewConfig {
  double clock_hz = 200e6;
  net::Fabric::Config fabric;        ///< clock_hz is overwritten.
  uint32_t ddr_channels = 2;         ///< Channels on the memory node.
  double ddr_bytes_per_sec = 19.2e9; ///< Per channel.
  double ddr_latency_ns = 90;
  uint32_t page_bytes = 4096;        ///< Scan granularity.
  uint32_t result_chunk_bytes = 16384;  ///< Payload of one result packet:
                                        ///< one leaves whenever the node's
                                        ///< send buffer holds this many
                                        ///< survivor bytes, so the wire
                                        ///< overlaps the scan; the remainder
                                        ///< leaves with the end of stream.
  uint32_t pipeline_lanes = 8;       ///< Tuples/cycle through the operator
                                     ///< pipeline on the memory node (8 x
                                     ///< 40 B = a 512-bit-bus-class datapath,
                                     ///< so DRAM stays the bottleneck).
  device::CpuModel cpu;              ///< Compute-node CPU for the baseline.
  /// Endpoint retransmission policy, active only when a FaultInjector is
  /// attached to the system's fabric (see FarviewSystem::set_fault_injector).
  net::Retry reliability;
};

/// Result of one query execution, offloaded or baseline.
struct QueryStats {
  rel::Table result;
  uint64_t cycles = 0;          ///< End-to-end simulated cycles.
  double seconds = 0;
  uint64_t wire_bytes = 0;      ///< Payload bytes that crossed the network.
  uint64_t dram_bytes = 0;      ///< Bytes read from memory-node DRAM.
  double cpu_seconds = 0;       ///< Compute-node CPU time (baseline only).
  uint64_t result_packets = 0;  ///< Response packets received (offload only).
  uint64_t first_result_cycles = 0;  ///< Cycles until the first response
                                     ///< packet arrived (offload only).
};

/// The smart-memory node: FPGA-attached DRAM serving RDMA reads, plus an
/// operator pipeline that can run a rel::Program over a stored table at
/// line rate while it streams out of DRAM — returning only the surviving
/// bytes to the compute node. Each arrived page's rows go through one
/// rel::Pipeline; its survivors fill a send buffer that leaves in packets of
/// `result_chunk_bytes`, and the rest of the answer (all of it for an
/// aggregate, group-by or top-N) leaves at end of stream.
class MemoryNode : public sim::Module {
 public:
  MemoryNode(std::string name, uint32_t node_id, net::Fabric* fabric,
             const FarviewConfig& config);

  /// Stores `table` in the node's DRAM. Returns the table id used in
  /// offload requests.
  uint64_t LoadTable(rel::Table table);

  /// Stores `table` LZ-compressed (the HANA/AQUA pattern): the scan reads
  /// only the compressed bytes from DRAM and the line-rate decompressor
  /// feeds the operator pipeline, so scans of compressible data speed up
  /// by the compression ratio.
  uint64_t LoadTableCompressed(rel::Table table);

  /// Registers an operator program under `program_id` (the control-plane
  /// step a real deployment does once per prepared statement).
  void RegisterProgram(uint64_t program_id, rel::Program program);

  /// Registers this module plus its endpoint and DRAM with `engine`.
  void RegisterWith(sim::Engine& engine);

  void Tick(sim::Cycle cycle) override;
  /// Counts delivered, unpolled requests: the node polls one cycle later.
  bool Idle() const override {
    return !job_active_ && jobs_.empty() && endpoint_.recv_available() == 0;
  }
  /// Acts next cycle while a job waits or the next page's channel has
  /// room, and at the cycle the oldest page in the operator pipeline clears
  /// it; else it waits on a page arrival, a FIFO drain (channels register
  /// after it) or a request.
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    if (!job_active_) return jobs_.empty() ? sim::kNoEventCycle : now;
    const auto ch = static_cast<uint32_t>(pages_issued_ % dram_.num_channels());
    if (pages_issued_ < pages_total_ && dram_.request(ch).CanWrite()) {
      return now;
    }
    if (pages_cleared_ < pages_arrived_) return std::max(now, clear_at_);
    return sim::kNoEventCycle;
  }

  bool has_table(uint64_t id) const { return tables_.count(id) != 0; }
  const rel::Table& table(uint64_t id) const { return tables_.at(id).table; }
  uint64_t table_bytes(uint64_t id) const {
    return tables_.at(id).table.total_bytes();
  }
  /// Bytes the table occupies in DRAM (compressed size when compressed).
  uint64_t table_stored_bytes(uint64_t id) const {
    return tables_.at(id).stored_bytes;
  }
  bool table_is_compressed(uint64_t id) const {
    return tables_.at(id).compressed;
  }
  uint64_t dram_bytes_read() const { return dram_.TotalBytesTransferred(); }
  net::RdmaEndpoint& endpoint() { return endpoint_; }

  /// Retrieves (and removes) the materialized result of a completed offload
  /// job. Result payloads travel functionally; the wire carried their size.
  rel::Table TakeResult(uint64_t tag) {
    auto it = results_.find(tag);
    FPGADP_CHECK(it != results_.end());
    rel::Table t = std::move(it->second);
    results_.erase(it);
    return t;
  }

 protected:
  /// A skipped cycle with pages in the pipeline is one it works through:
  /// the hint wakes the node no later than the oldest page's clear cycle.
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override {
    if (pages_cleared_ < pages_arrived_) MarkBusyN(to - from);
  }

 private:
  struct Job {
    uint32_t requester = 0;
    uint64_t tag = 0;
    uint64_t table_id = 0;
    uint64_t program_id = 0;
  };

  void StartJob(const Job& job);
  /// Input rows held by the first `pages` pages of the stored image.
  uint64_t RowsIn(uint64_t pages) const;
  /// Cycles page `page`'s rows take through the pipeline, `pipeline_lanes`
  /// rows per cycle.
  sim::Cycle PipeCycles(uint64_t page) const;
  /// Posts a packet per full chunk of unsent answer bytes and, with `last`,
  /// the remainder (possibly 0 bytes) flagged as the end of the answer.
  void SendChunks(bool last);

  struct StoredTable {
    rel::Table table;
    uint64_t stored_bytes = 0;  ///< DRAM footprint (== raw unless compressed).
    bool compressed = false;
  };

  uint64_t StoreTable(rel::Table table, uint64_t stored_bytes,
                      bool compressed);

  FarviewConfig config_;
  net::RdmaEndpoint endpoint_;
  mem::MultiChannelMemory dram_;
  std::map<uint64_t, StoredTable> tables_;
  std::map<uint64_t, rel::Program> programs_;
  uint64_t next_addr_ = 0;
  std::map<uint64_t, uint64_t> table_addr_;
  std::map<uint64_t, rel::Table> results_;

  // Scan/pipeline state for the in-flight job.
  std::deque<Job> jobs_;
  bool job_active_ = false;
  Job current_;
  const rel::Table* input_ = nullptr;  // the job's stored table
  uint64_t pages_total_ = 0;
  uint64_t pages_issued_ = 0;
  uint64_t pages_arrived_ = 0;
  uint64_t pages_cleared_ = 0;    // through the operator pipeline
  sim::Cycle clear_at_ = 0;       // when page `pages_cleared_` clears it
  uint64_t scan_bytes_ = 0;       // DRAM bytes this job scans (stored size)
  rel::Pipeline pipeline_;
  rel::Table answer_;             // the job's answer so far
  uint64_t posted_bytes_ = 0;     // answer bytes already sent
};

/// The full deployment — `num_clients` compute nodes and one smart-memory
/// node — plus a client API: load a table, then compare RunOffloaded()
/// against RunFetchAll() (experiment E1), or drive several clients at once
/// to observe queueing at the shared node (multi-tenancy).
class FarviewSystem {
 public:
  explicit FarviewSystem(const FarviewConfig& config = {},
                         uint32_t num_clients = 1);

  /// One offloaded query per entry of `requests` (client i posts request
  /// i % num_clients), all in flight together. Returns per-query stats in
  /// order; `makespan_seconds` (over all queries) lands in every entry's
  /// `seconds` field being individual, with the batch wall time returned
  /// through the out-parameter.
  struct ConcurrentRequest {
    uint64_t table_id = 0;
    uint64_t program_id = 0;
  };
  Result<std::vector<QueryStats>> RunOffloadedConcurrently(
      const std::vector<ConcurrentRequest>& requests,
      double* makespan_seconds);

  /// Loads `table` into the memory node; returns its table id.
  uint64_t LoadTable(rel::Table table);

  /// Loads `table` LZ-compressed on the memory node (see
  /// MemoryNode::LoadTableCompressed).
  uint64_t LoadTableCompressed(rel::Table table);

  /// Registers `program` for offloaded execution; returns its program id.
  uint64_t RegisterProgram(rel::Program program);

  /// Executes `program_id` on the memory node (operators run where the
  /// data lives); only result bytes cross the wire.
  ///
  /// Every Run* call checks its requests before posting any packet: an
  /// unknown table or program id is NotFound, and a program that cannot
  /// run over the table's schema is InvalidArgument (Program::Validate).
  Result<QueryStats> RunOffloaded(uint64_t table_id, uint64_t program_id);

  /// Baseline: RDMA-read the whole table to the compute node, then run the
  /// program on the compute node's CPU (modeled analytically so results are
  /// deterministic).
  Result<QueryStats> RunFetchAll(uint64_t table_id, uint64_t program_id);

  sim::Engine& engine() { return engine_; }
  MemoryNode& memory_node() { return *node_; }
  const net::Fabric& fabric() const { return fabric_; }

  /// Makes the deployment's fabric lossy. Must be called before queries
  /// run; every RdmaEndpoint (clients and the memory node's) switches on
  /// its reliable-connection protocol, so queries survive drops/corruption
  /// up to the retry cap, after which Run* surfaces Status::Unavailable.
  void set_fault_injector(net::FaultInjector* injector) {
    fabric_.set_fault_injector(injector);
  }

 private:
  /// First transport failure across all endpoints, or OK.
  Status TransportFailure() const;

  /// OK if `program_id` can run over `table_id` (see RunOffloaded).
  Status CheckRequest(uint64_t table_id, uint64_t program_id) const;

 private:
  FarviewConfig config_;
  sim::Engine engine_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<net::RdmaEndpoint>> clients_;
  std::unique_ptr<MemoryNode> node_;
  std::map<uint64_t, rel::Program> programs_;
  uint64_t next_program_id_ = 1;
  uint64_t next_tag_ = 1;
};

}  // namespace fpgadp::farview

#endif  // FPGADP_FARVIEW_FARVIEW_H_

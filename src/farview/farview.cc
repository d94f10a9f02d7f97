#include "src/farview/farview.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/relational/compression.h"
#include "src/relational/cpu_executor.h"

namespace fpgadp::farview {

namespace {
mem::MemoryChannel::Config DdrConfig(const FarviewConfig& c) {
  mem::MemoryChannel::Config cfg;
  cfg.latency_ns = c.ddr_latency_ns;
  cfg.bytes_per_sec = c.ddr_bytes_per_sec;
  cfg.clock_hz = c.clock_hz;
  cfg.access_granularity = 64;
  return cfg;
}

/// Calibrated per-tuple CPU cost of predicate/aggregate evaluation on the
/// compute node (branchy scalar code), on top of the streaming bandwidth.
constexpr double kCpuPerTupleNs = 1.0;
}  // namespace

MemoryNode::MemoryNode(std::string name, uint32_t node_id, net::Fabric* fabric,
                       const FarviewConfig& config)
    : sim::Module(std::move(name)), config_(config),
      endpoint_(this->name() + ".ep", node_id, fabric, config.reliability),
      dram_(this->name() + ".dram", config.ddr_channels, DdrConfig(config)) {
  FPGADP_CHECK(config.result_chunk_bytes > 0 && config.pipeline_lanes > 0);
  for (uint32_t ch = 0; ch < dram_.num_channels(); ++ch) {
    dram_.request(ch).BindProducer(this);
    dram_.response(ch).BindConsumer(this);
  }
  endpoint_.SetWakeListener(this);
}

uint64_t MemoryNode::StoreTable(rel::Table table, uint64_t stored_bytes,
                                bool compressed) {
  const uint64_t id = tables_.size();
  table_addr_[id] = next_addr_;
  next_addr_ += (stored_bytes + config_.page_bytes - 1) / config_.page_bytes *
                config_.page_bytes;
  tables_.emplace(id, StoredTable{std::move(table), stored_bytes, compressed});
  return id;
}

uint64_t MemoryNode::LoadTable(rel::Table table) {
  const uint64_t bytes = table.total_bytes();
  return StoreTable(std::move(table), bytes, /*compressed=*/false);
}

uint64_t MemoryNode::LoadTableCompressed(rel::Table table) {
  const std::vector<uint8_t> raw = rel::SerializeRows(table);
  const uint64_t compressed_bytes = rel::LzCompress(raw).size();
  return StoreTable(std::move(table), compressed_bytes, /*compressed=*/true);
}

void MemoryNode::RegisterProgram(uint64_t program_id, rel::Program program) {
  programs_[program_id] = std::move(program);
}

void MemoryNode::RegisterWith(sim::Engine& engine) {
  engine.AddModule(this);
  engine.AddModule(&endpoint_);
  dram_.RegisterWith(engine);
}

void MemoryNode::StartJob(const Job& job) {
  current_ = job;
  job_active_ = true;
  const StoredTable& st = tables_.at(job.table_id);
  input_ = &st.table;
  // The scan touches the *stored* image: compressed tables read fewer
  // pages and the line-rate decompressor re-inflates the tuple stream.
  scan_bytes_ = st.stored_bytes;
  pages_total_ = (scan_bytes_ + config_.page_bytes - 1) / config_.page_bytes;
  pages_issued_ = 0;
  pages_arrived_ = 0;
  pages_cleared_ = 0;
  const rel::Program& prog = programs_.at(job.program_id);
  pipeline_ = rel::Pipeline(prog);
  answer_ = rel::Table(prog.OutputSchema(input_->schema()));
  posted_bytes_ = 0;
}

uint64_t MemoryNode::RowsIn(uint64_t pages) const {
  // Exact whole rows for raw storage, amortized over the stored bytes for
  // compressed storage.
  const uint64_t bytes = pages * config_.page_bytes;
  if (bytes >= scan_bytes_) return input_->num_rows();
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(input_->num_rows()) * bytes /
      scan_bytes_);
}

sim::Cycle MemoryNode::PipeCycles(uint64_t page) const {
  const uint64_t rows = RowsIn(page + 1) - RowsIn(page);
  return (rows + config_.pipeline_lanes - 1) / config_.pipeline_lanes;
}

void MemoryNode::SendChunks(bool last) {
  net::Packet resp;
  resp.dst = current_.requester;
  resp.kind = net::OpKind::kOffloadResp;
  resp.tag = current_.tag;
  const uint64_t answered = answer_.total_bytes();
  while (answered - posted_bytes_ >= config_.result_chunk_bytes) {
    resp.bytes = config_.result_chunk_bytes;
    posted_bytes_ += resp.bytes;
    endpoint_.PostPacket(resp);
  }
  if (last) {
    resp.bytes = answered - posted_bytes_;
    resp.user = 1;
    posted_bytes_ = answered;
    endpoint_.PostPacket(resp);
  }
}

void MemoryNode::Tick(sim::Cycle cycle) {
  bool progressed = false;
  // Accept offload requests.
  net::Packet req;
  while (endpoint_.PollRecv(&req)) {
    if (req.kind == net::OpKind::kOffloadReq) {
      jobs_.push_back(Job{req.src, req.tag, req.addr, req.user});
      progressed = true;
    }
  }
  if (!job_active_ && !jobs_.empty()) {
    StartJob(jobs_.front());
    jobs_.pop_front();
    progressed = true;
  }
  if (!job_active_) return;

  // Issue page scans round-robin over the DRAM channels.
  const uint64_t base = table_addr_.at(current_.table_id);
  while (pages_issued_ < pages_total_) {
    const uint32_t ch =
        static_cast<uint32_t>(pages_issued_ % dram_.num_channels());
    if (!dram_.request(ch).CanWrite()) break;
    dram_.request(ch).Write(
        {pages_issued_, base + pages_issued_ * config_.page_bytes,
         config_.page_bytes, false});
    ++pages_issued_;
    progressed = true;
  }
  // Pages go through the pipeline in arrival order, one at a time: a page
  // enters when it arrives or when the page ahead of it clears, whichever is
  // later, and clears ceil(rows / lanes) cycles after it enters.
  for (uint32_t ch = 0; ch < dram_.num_channels(); ++ch) {
    while (dram_.response(ch).CanRead()) {
      (void)dram_.response(ch).Read();
      if (pages_cleared_ == pages_arrived_) {
        clear_at_ = cycle + PipeCycles(pages_arrived_);
      }
      ++pages_arrived_;
      progressed = true;
    }
  }
  // A cleared page's survivors join the answer; full chunks leave.
  const std::span<const rel::Row> rows(input_->rows());
  while (pages_cleared_ < pages_arrived_ && clear_at_ <= cycle) {
    const uint64_t begin = RowsIn(pages_cleared_);
    pipeline_.Push(rows.subspan(begin, RowsIn(++pages_cleared_) - begin),
                   answer_.rows());
    if (pages_cleared_ < pages_arrived_) {
      clear_at_ += PipeCycles(pages_cleared_);
    }
    progressed = true;
  }
  // The last page out of the pipeline ends the stream: the rows the
  // operators held back join the answer, and the rest of it leaves.
  const bool done = pages_cleared_ == pages_total_;
  if (done) pipeline_.Finish(answer_.rows());
  SendChunks(done);
  if (done) {
    results_.emplace(current_.tag, std::move(answer_));
    answer_ = rel::Table();
    pipeline_ = rel::Pipeline();
    input_ = nullptr;
    job_active_ = false;
    progressed = true;
  }
  // The pipeline works through every cycle a page is in it.
  if (progressed || pages_cleared_ < pages_arrived_) MarkBusy();
}

namespace {
std::vector<std::unique_ptr<net::RdmaEndpoint>> MakeClients(
    uint32_t num_clients, net::Fabric* fabric,
    const net::Retry& reliability) {
  FPGADP_CHECK(num_clients >= 1);
  std::vector<std::unique_ptr<net::RdmaEndpoint>> clients;
  for (uint32_t c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<net::RdmaEndpoint>(
        "client" + std::to_string(c) + ".ep", c, fabric, reliability));
  }
  return clients;
}
}  // namespace

FarviewSystem::FarviewSystem(const FarviewConfig& config, uint32_t num_clients)
    : config_(config), engine_(config.clock_hz),
      fabric_("fabric", num_clients + 1,
              [&] {
                net::Fabric::Config f = config.fabric;
                f.clock_hz = config.clock_hz;
                return f;
              }()),
      clients_(MakeClients(num_clients, &fabric_, config.reliability)) {
  node_ = std::make_unique<MemoryNode>("memnode", num_clients, &fabric_,
                                       config_);
  fabric_.RegisterWith(engine_);
  for (auto& c : clients_) engine_.AddModule(c.get());
  node_->RegisterWith(engine_);
}

Status FarviewSystem::TransportFailure() const {
  for (const auto& c : clients_) {
    if (c->failed()) return c->status();
  }
  if (node_->endpoint().failed()) return node_->endpoint().status();
  return Status::OK();
}

Status FarviewSystem::CheckRequest(uint64_t table_id,
                                   uint64_t program_id) const {
  auto prog = programs_.find(program_id);
  if (prog == programs_.end()) return Status::NotFound("unknown program id");
  if (!node_->has_table(table_id)) return Status::NotFound("unknown table id");
  return prog->second.Validate(node_->table(table_id).schema());
}

Result<std::vector<QueryStats>> FarviewSystem::RunOffloadedConcurrently(
    const std::vector<ConcurrentRequest>& requests, double* makespan_seconds) {
  if (requests.empty()) {
    return Status::InvalidArgument("no requests");
  }
  for (const ConcurrentRequest& r : requests) {
    FPGADP_RETURN_NOT_OK(CheckRequest(r.table_id, r.program_id));
  }
  struct InFlight {
    uint64_t tag;
    uint32_t client;
    uint64_t payload = 0;
    uint64_t packets = 0;
    sim::Cycle first_at = 0;
    bool done = false;
    sim::Cycle done_at = 0;
  };
  std::vector<InFlight> flight;
  const sim::Cycle start = engine_.now();
  const uint32_t server = static_cast<uint32_t>(clients_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const ConcurrentRequest& r = requests[i];
    const uint64_t tag = next_tag_++;
    const auto client = static_cast<uint32_t>(i % clients_.size());
    net::Packet req;
    req.dst = server;
    req.kind = net::OpKind::kOffloadReq;
    req.tag = tag;
    req.addr = r.table_id;
    req.user = r.program_id;
    clients_[client]->PostPacket(req);
    flight.push_back({tag, client});
  }
  size_t remaining = flight.size();
  Status failure;
  net::Packet resp;
  const auto stop = [&] {
    failure = TransportFailure();
    if (!failure.ok()) return true;
    for (auto& f : flight) {
      if (f.done) continue;
      while (clients_[f.client]->PollRecv(&resp)) {
        // Responses on one client endpoint may interleave across tags.
        for (auto& g : flight) {
          if (!g.done && g.client == f.client && resp.tag == g.tag) {
            if (g.packets++ == 0) g.first_at = engine_.now();
            g.payload += resp.bytes;
            if (resp.user == 1) {
              g.done = true;
              g.done_at = engine_.now();
              --remaining;
            }
            break;
          }
        }
        if (f.done) break;
      }
    }
    return remaining == 0;
  };
  engine_.Run(1ull << 30, stop);  // `failure`, `remaining` say how it ended
  FPGADP_RETURN_NOT_OK(failure);
  if (remaining > 0) {
    return Status::Timeout("offload batch did not complete");
  }
  std::vector<QueryStats> out;
  out.reserve(flight.size());
  for (const InFlight& f : flight) {
    QueryStats s;
    s.result = node_->TakeResult(f.tag);
    s.cycles = f.done_at - start;
    s.seconds = CyclesToSeconds(s.cycles, config_.clock_hz);
    s.wire_bytes = f.payload;
    s.result_packets = f.packets;
    s.first_result_cycles = f.first_at - start;
    out.push_back(std::move(s));
  }
  if (makespan_seconds != nullptr) {
    *makespan_seconds = CyclesToSeconds(engine_.now() - start,
                                        config_.clock_hz);
  }
  return out;
}

uint64_t FarviewSystem::LoadTable(rel::Table table) {
  return node_->LoadTable(std::move(table));
}

uint64_t FarviewSystem::LoadTableCompressed(rel::Table table) {
  return node_->LoadTableCompressed(std::move(table));
}

uint64_t FarviewSystem::RegisterProgram(rel::Program program) {
  const uint64_t id = next_program_id_++;
  programs_[id] = program;
  node_->RegisterProgram(id, std::move(program));
  return id;
}

Result<QueryStats> FarviewSystem::RunOffloaded(uint64_t table_id,
                                               uint64_t program_id) {
  const uint64_t dram_before = node_->dram_bytes_read();
  FPGADP_ASSIGN_OR_RETURN(
      std::vector<QueryStats> batch,
      RunOffloadedConcurrently({{table_id, program_id}}, nullptr));
  QueryStats stats = std::move(batch.front());
  stats.dram_bytes = node_->dram_bytes_read() - dram_before;
  return stats;
}

Result<QueryStats> FarviewSystem::RunFetchAll(uint64_t table_id,
                                              uint64_t program_id) {
  FPGADP_RETURN_NOT_OK(CheckRequest(table_id, program_id));
  const rel::Table& table = node_->table(table_id);
  // The compute node fetches the stored image (compressed tables travel
  // compressed and are inflated in software on arrival).
  const uint64_t total = node_->table_stored_bytes(table_id);
  const bool compressed = node_->table_is_compressed(table_id);
  const sim::Cycle start = engine_.now();

  // RDMA-read the table in 1 MiB chunks; reads pipeline, so the transfer is
  // bandwidth-bound. (The memory node's NIC DMAs from DRAM at memory
  // bandwidth, which exceeds line rate, so the network is the bottleneck.)
  const uint64_t kChunk = 1ull << 20;
  net::RdmaEndpoint& client = *clients_[0];
  const auto server = static_cast<uint32_t>(clients_.size());
  uint64_t issued_tags = 0;
  for (uint64_t off = 0; off < total; off += kChunk) {
    client.PostRead(server, off, std::min(kChunk, total - off), issued_tags++);
  }
  if (total == 0) issued_tags = 0;
  uint64_t completed = 0;
  Status failure;
  net::Completion c;
  const auto stop = [&] {
    while (client.PollCompletion(&c)) {
      if (c.status != StatusCode::kOk) {
        failure = client.status();
        return true;
      }
      if (c.kind == net::OpKind::kReadResp) ++completed;
    }
    failure = TransportFailure();
    return !failure.ok() || completed >= issued_tags;
  };
  engine_.Run(1ull << 30, stop);  // `failure`, `completed` say how it ended
  FPGADP_RETURN_NOT_OK(failure);
  if (completed < issued_tags) {
    return Status::Timeout("fetch-all transfer did not complete");
  }

  QueryStats stats;
  auto result = rel::ExecuteCpu(programs_.at(program_id), table);
  if (!result.ok()) return result.status();
  stats.result = std::move(result).value();
  stats.cycles = engine_.now() - start;
  stats.wire_bytes = total;
  stats.dram_bytes = total;
  // Compute-node CPU processes the fetched pages: streaming bandwidth plus
  // a per-tuple evaluation cost, plus software decompression when the
  // table traveled compressed.
  stats.cpu_seconds = config_.cpu.StreamSeconds(total) +
                      double(table.num_rows()) * kCpuPerTupleNs * 1e-9;
  if (compressed) {
    constexpr double kCpuLzNsPerByte = 4.0;  // software LZ inflate
    stats.cpu_seconds += double(table.total_bytes()) * kCpuLzNsPerByte * 1e-9;
  }
  stats.seconds =
      CyclesToSeconds(stats.cycles, config_.clock_hz) + stats.cpu_seconds;
  return stats;
}

}  // namespace fpgadp::farview

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/random.h"
#include "src/farview/farview.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/queries.h"
#include "src/relational/sketches.h"
#include "src/relational/table.h"
#include "src/serve/arrival.h"
#include "src/serve/front_door.h"
#include "src/serve/synthetic.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"
#include "src/sim/engine.h"
#include "wrappers.h"

namespace perfbench {

using fpgadp::sim::Cycle;
namespace anns = fpgadp::anns;
namespace farview = fpgadp::farview;
namespace rel = fpgadp::rel;
namespace serve = fpgadp::serve;
namespace shard = fpgadp::shard;

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank quantile of `values` (sorted in place), q in (0, 1].
double Quantile(std::vector<uint64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * double(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

/// Times a set-up or run phase: always on the host clock (the plain
/// metrics need it), and as a span too when a tracer is attached.
class Phase {
 public:
  Phase(Tracer* tracer, const char* name, double* accumulate)
      : tracer_(tracer), accumulate_(accumulate), start_(NowNs()) {
    if (tracer_ != nullptr) tracer_->BeginSpan(tracer_->Name(name));
  }
  ~Phase() {
    if (tracer_ != nullptr) tracer_->End();
    *accumulate_ += Seconds(NowNs() - start_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tracer* tracer_;
  double* accumulate_;
  int64_t start_;
};

/// Simulated counters of a drained ShardCluster: the shard and net layers.
void AddClusterCounters(shard::ShardCluster& cluster, Cycle cycles,
                        std::map<std::string, double>* sim) {
  const uint32_t shards = cluster.num_shards();
  uint64_t service_sum = 0, service_max = 0, served = 0, rejected = 0;
  uint64_t server_hwm = 0, coord_hwm = 0, merges = 0, merge_timeouts = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    const shard::ShardServer& server = cluster.server(s);
    service_sum += server.service_cycles();
    service_max = std::max(service_max, server.service_cycles());
    served += server.served();
    rejected += server.rejected();
    server_hwm = std::max<uint64_t>(server_hwm, server.queue_high_watermark());
    coord_hwm = std::max<uint64_t>(
        coord_hwm, cluster.coordinator().queue_high_watermark(s));
    merges += server.merges_forwarded();
    merge_timeouts += server.merge_timeouts();
  }
  const double c = static_cast<double>(cycles);
  const shard::ShardCoordinator& coord = cluster.coordinator();
  (*sim)["shard.server_busy_frac"] = double(service_sum) / (shards * c);
  (*sim)["shard.server_imbalance"] =
      service_sum == 0 ? 0 : double(service_max) * shards / double(service_sum);
  (*sim)["shard.server_queue_hwm"] = double(server_hwm);
  (*sim)["shard.coord_queue_hwm"] = double(coord_hwm);
  (*sim)["shard.gather_stall_frac"] = double(coord.gather_stall_cycles()) / c;
  (*sim)["shard.slices_served"] = double(served);
  (*sim)["shard.rejected"] = double(rejected);
  (*sim)["shard.responses"] = double(coord.responses_observed());
  (*sim)["shard.late_responses"] = double(coord.late_responses());
  (*sim)["shard.tree_merges"] = double(merges);
  (*sim)["shard.merge_timeouts"] = double(merge_timeouts);

  fpgadp::net::Fabric& fabric = cluster.fabric();
  const uint32_t ports = cluster.gather_plan().ports();
  uint64_t rx_busy = 0;
  for (uint32_t p = 0; p < ports; ++p) rx_busy += fabric.rx_busy_cycles(p);
  (*sim)["net.packets"] = double(fabric.packets_delivered());
  (*sim)["net.payload_bytes"] = double(fabric.payload_bytes_delivered());
  (*sim)["net.coord_rx_busy_frac"] = double(rx_busy) / (ports * c);
}

// ---------------------------------------------------------------------------
// serve_mix: the E23 two-class mix under diurnal open-loop arrivals, offered
// through serve::FrontDoor to a 4-shard flat-gather SyntheticWorkload
// cluster with deadline-feasibility admission on the coordinator's EWMA.

constexpr uint32_t kServeShards = 4;
constexpr size_t kServeRequests = 100000;
constexpr double kServePeriodCycles = 1.0e6;  // About 9 periods per run.
constexpr uint64_t kInteractiveSvc = 200;
constexpr uint64_t kInteractiveSlo = 6000;
constexpr uint64_t kBatchSvc = 800;
constexpr uint64_t kBatchSlo = 20000;
constexpr double kInteractiveWeight = 0.8;
constexpr double kBatchWeight = 0.2;
constexpr double kServeRho = 0.9;        // Mean offered load / capacity.
constexpr double kServeAmplitude = 0.6;  // Load swings 0.36 .. 1.44.

class ServeMix : public Workload {
 public:
  // The front door draws the arrival schedule from the seed in its
  // constructor, which is set-up; there are no inputs to generate here.
  explicit ServeMix(uint64_t seed) : seed_(seed) {}

  Iteration Run(Tracer* tracer) override {
    Iteration it;
    serve::SyntheticWorkload::Config wc;
    wc.num_shards = kServeShards;
    wc.fanout = 1;
    wc.jitter_pct = 25;
    wc.publish_estimates = false;  // Admission learns from its own EWMA.
    serve::SyntheticWorkload synthetic(wc);
    TimedWorkload timed(&synthetic, tracer, "synthetic");
    shard::Workload* wl = tracer != nullptr
                              ? static_cast<shard::Workload*>(&timed)
                              : static_cast<shard::Workload*>(&synthetic);

    shard::ShardCluster::Config cc;
    cc.num_shards = kServeShards;
    cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
    cc.coordinator.feasibility_headroom_pct = 80;

    serve::FrontDoor::Config fd;
    fd.arrivals.kind = serve::ArrivalKind::kDiurnal;
    const double mix_svc = kInteractiveWeight * kInteractiveSvc +
                           kBatchWeight * kBatchSvc;
    fd.arrivals.mean_interarrival_cycles = mix_svc / (kServeShards * kServeRho);
    fd.arrivals.period_cycles = kServePeriodCycles;
    fd.arrivals.amplitude = kServeAmplitude;
    fd.classes = {{"interactive", kInteractiveSlo, kInteractiveWeight},
                  {"batch", kBatchSlo, kBatchWeight}};
    fd.num_requests = kServeRequests;
    fd.seed = seed_;
    auto factory = [&synthetic](uint32_t cls, size_t) {
      return synthetic.AddRequest(cls == 0 ? kInteractiveSvc : kBatchSvc);
    };

    std::unique_ptr<shard::ShardCluster> cluster;
    std::unique_ptr<serve::FrontDoor> door;
    {
      Phase p(tracer, "shard.ctor", &it.setup_s);
      cluster = std::make_unique<shard::ShardCluster>(wl, cc);
    }
    {
      Phase p(tracer, "serve.ctor", &it.setup_s);
      if (tracer != nullptr) {
        door = std::make_unique<TimedFrontDoor>(
            "front_door", &cluster->coordinator(), wl, factory, fd, tracer);
      } else {
        door = std::make_unique<serve::FrontDoor>(
            "front_door", &cluster->coordinator(), wl, factory, fd);
      }
    }
    std::vector<serve::FrontDoor::CompletionRecord> log;
    log.reserve(kServeRequests);
    door->set_completion_log(&log);
    cluster->engine().AddModule(door.get());

    fpgadp::Result<Cycle> cycles = fpgadp::Status::Internal("not run");
    {
      Phase p(tracer, "sim.run", &it.host_s);
      cycles = cluster->Run();
    }
    if (!cycles.ok()) {
      std::cerr << "serve_mix: cluster did not quiesce: " << cycles.status()
                << "\n";
      std::exit(1);
    }
    // Every offered request either completed or was shed; anything else is
    // a lost request and the run is void.
    if (door->total_offered() != kServeRequests ||
        door->total_completed() + door->total_shed() !=
            door->total_offered() ||
        log.size() != door->total_completed()) {
      std::cerr << "serve_mix: request accounting broken: offered "
                << door->total_offered() << ", completed "
                << door->total_completed() << ", shed " << door->total_shed()
                << ", of " << kServeRequests << "\n";
      std::exit(1);
    }

    // Good: completed un-degraded within the class SLO. Shed requests are
    // not in the log, so they count as misses.
    const uint64_t slo[2] = {kInteractiveSlo, kBatchSlo};
    std::vector<uint64_t> lat[2];
    uint64_t good = 0;
    for (const auto& rec : log) {
      lat[rec.class_index].push_back(rec.latency_cycles);
      if (rec.degraded) {
        ++it.failed;
      } else if (rec.latency_cycles <= slo[rec.class_index]) {
        ++good;
      }
    }
    it.attempted = door->total_offered();

    auto& sim = it.sim;
    const double c = static_cast<double>(cycles.value());
    sim["sim.cycles"] = c;
    sim["int_p50_cy"] = Quantile(lat[0], 0.50);
    sim["int_p99_cy"] = Quantile(lat[0], 0.99);
    sim["goodput_frac"] = double(good) / double(it.attempted);
    sim["sim_qps"] =
        double(door->total_completed()) / (c / cluster->engine().clock_hz());
    sim["serve.interactive.count"] = double(lat[0].size());
    sim["serve.batch.p99_cy"] = Quantile(lat[1], 0.99);
    const char* names[2] = {"interactive", "batch"};
    for (size_t k = 0; k < 2; ++k) {
      const serve::ClassStats& cs = door->class_stats(k);
      const std::string base = std::string("serve.") + names[k];
      sim[base + ".offered"] = double(cs.offered);
      sim[base + ".shed"] = double(cs.shed);
      sim[base + ".degraded"] = double(cs.degraded);
      sim[base + ".slo_violations"] = double(cs.slo_violations);
    }
    sim["serve.door_busy_cycles"] = double(door->busy_cycles());
    AddClusterCounters(*cluster, cycles.value(), &sim);
    return it;
  }

 private:
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// anns_fanout: a closed batch of distinct IVF-PQ top-10 queries drained by an
// 8-shard cluster with tree gather (one coordinator port, binary tree).

constexpr uint32_t kAnnsShards = 8;
constexpr size_t kAnnsBase = 100000;
constexpr size_t kAnnsQueries = 512;
constexpr size_t kAnnsNlist = 64;
constexpr size_t kAnnsNprobe = 32;
constexpr size_t kAnnsK = 10;
constexpr uint64_t kAnnsCorpusSeed = 29;

class AnnsFanout : public Workload {
 public:
  explicit AnnsFanout(uint64_t seed) {
    const int64_t t0 = NowNs();
    // The corpus is fixed, so the index — and how unevenly the probed lists
    // load the shards — is the same for every seed; across corpus seeds the
    // simulated throughput moves by a sixth. The seed draws the queries
    // from vectors of the same distribution held out of the corpus.
    const size_t held_out = 8 * kAnnsQueries;
    anns::DatasetSpec spec;
    spec.num_base = kAnnsBase + held_out;
    spec.num_queries = 0;
    spec.dim = 32;
    spec.num_clusters = kAnnsNlist / 2;
    spec.cluster_stddev = 0.3f;
    spec.seed = kAnnsCorpusSeed;
    const anns::Dataset pool = anns::MakeDataset(spec);
    data_.dim = pool.dim;
    data_.base.assign(pool.base.begin(),
                      pool.base.begin() + kAnnsBase * pool.dim);
    std::vector<size_t> pick(held_out);
    for (size_t i = 0; i < held_out; ++i) pick[i] = kAnnsBase + i;
    fpgadp::Rng rng(seed);
    for (size_t q = 0; q < kAnnsQueries; ++q) {
      std::swap(pick[q], pick[q + rng.NextBounded(held_out - q)]);
      const float* v = pool.BaseVector(pick[q]);
      data_.queries.insert(data_.queries.end(), v, v + pool.dim);
    }
    // Brute-force ground truth: input generation, not set-up.
    for (size_t q = 0; q < kAnnsQueries; ++q) {
      data_.ground_truth.push_back(
          anns::BruteForceKnn(data_, data_.QueryVector(q), kAnnsK));
    }
    input_s_ = Seconds(NowNs() - t0);
  }

  Iteration Run(Tracer* tracer) override {
    Iteration it;
    anns::IvfPqIndex::Options io;
    io.nlist = kAnnsNlist;
    io.pq.m = 8;
    io.pq.ksub = 32;
    io.pq.train_iters = 6;

    std::unique_ptr<anns::IvfPqIndex> index;
    {
      Phase p(tracer, "anns.build", &it.setup_s);
      auto built = anns::IvfPqIndex::Build(data_.base, data_.dim, io);
      if (!built.ok()) {
        std::cerr << "anns_fanout: index build failed: " << built.status()
                  << "\n";
        std::exit(1);
      }
      index = std::make_unique<anns::IvfPqIndex>(std::move(built).value());
    }

    shard::AnnsTopKWorkload::Config wc;
    wc.nprobe = kAnnsNprobe;
    wc.k = kAnnsK;
    shard::AnnsTopKWorkload topk(index.get(), shard::Partitioner::Hash(kAnnsShards),
                                 wc);
    TimedWorkload timed(&topk, tracer, "anns");
    shard::Workload* wl = tracer != nullptr
                              ? static_cast<shard::Workload*>(&timed)
                              : static_cast<shard::Workload*>(&topk);

    shard::ShardCluster::Config cc;
    cc.num_shards = kAnnsShards;
    cc.gather.topology = shard::GatherTopology::kTree;
    cc.gather.coordinator_ports = 1;
    cc.gather.fanout = 2;
    std::unique_ptr<shard::ShardCluster> cluster;
    {
      Phase p(tracer, "shard.ctor", &it.setup_s);
      cluster = std::make_unique<shard::ShardCluster>(wl, cc);
    }

    const size_t n = data_.num_queries();
    std::vector<uint64_t> ids(n);
    {
      Phase p(tracer, "anns.submit", &it.host_s);
      for (size_t q = 0; q < n; ++q) {
        ids[q] = topk.AddQuery(data_.QueryVector(q));
        cluster->Submit(ids[q]);
      }
    }
    fpgadp::Result<Cycle> cycles = fpgadp::Status::Internal("not run");
    {
      Phase p(tracer, "sim.run", &it.host_s);
      cycles = cluster->Run();
    }
    if (!cycles.ok()) {
      std::cerr << "anns_fanout: cluster did not quiesce: " << cycles.status()
                << "\n";
      std::exit(1);
    }

    // Checks, outside every timed phase: each merged top-10 must be
    // id-identical to the single-node search at the same nprobe.
    if (reference_.empty()) {
      anns::IvfPqIndex::SearchParams sp;
      sp.nprobe = kAnnsNprobe;
      sp.k = kAnnsK;
      for (size_t q = 0; q < n; ++q) {
        std::vector<uint32_t> ref;
        for (const anns::Neighbor& nb : index->Search(data_.QueryVector(q), sp)) {
          ref.push_back(nb.id);
        }
        reference_.push_back(std::move(ref));
      }
    }
    std::vector<uint64_t> latency;
    std::map<uint64_t, bool> degraded;  // By request id, once finalized.
    shard::PartialOutcome out;
    while (cluster->PollOutcome(&out)) {
      latency.push_back(out.completed_at);  // Submitted at cycle 0.
      degraded[out.request_id] = out.degraded();
    }
    it.attempted = n;
    double recall = 0;
    uint64_t codes = 0;
    for (size_t q = 0; q < n; ++q) {
      const auto d = degraded.find(ids[q]);
      if (d == degraded.end()) {  // Never finalized: no answer at all.
        ++it.failed;
        it.correct = false;
        continue;
      }
      std::vector<uint32_t> got;
      for (const anns::Neighbor& nb : topk.result(ids[q])) got.push_back(nb.id);
      const bool wrong = got != reference_[q];
      if (wrong) it.correct = false;
      if (wrong || d->second) ++it.failed;
      recall += anns::RecallAtK(got, data_.ground_truth[q], kAnnsK);
      codes += index->CodesScanned(data_.QueryVector(q), kAnnsNprobe);
    }

    auto& sim = it.sim;
    const double c = static_cast<double>(cycles.value());
    sim["sim.cycles"] = c;
    sim["int_p50_cy"] = Quantile(latency, 0.50);
    sim["int_p99_cy"] = Quantile(latency, 0.99);
    sim["goodput_frac"] = double(n - it.failed) / double(n);
    sim["sim_qps"] = double(n) / (c / cluster->engine().clock_hz());
    sim["anns.recall_at_10"] = recall / double(n);
    sim["anns.codes_scanned"] = double(codes);
    AddClusterCounters(*cluster, cycles.value(), &sim);
    return it;
  }

 private:
  anns::Dataset data_;
  std::vector<std::vector<uint32_t>> reference_;
};

// ---------------------------------------------------------------------------
// farview_scan: the E1 query set offloaded one at a time to the Farview
// smart-memory node over a synthetic lineitem-like table.

constexpr uint64_t kFarviewRows = 500000;

/// A table reduced to its schema, its row count and a hash over every slot
/// of every row, in order. The reference results are kept as digests so
/// they are not resident, and not in peak_rss_mb, while the program runs.
struct TableDigest {
  rel::Schema schema;
  size_t rows = 0;
  uint64_t hash = 0;

  static TableDigest Of(const rel::Table& table) {
    TableDigest d{table.schema(), table.num_rows(), 0};
    for (const rel::Row& row : table.rows()) {
      for (int64_t v : row.slots) {
        d.hash = rel::Hash64(d.hash ^ static_cast<uint64_t>(v));
      }
    }
    return d;
  }

  bool operator==(const TableDigest&) const = default;
};

class FarviewScan : public Workload {
 public:
  explicit FarviewScan(uint64_t seed) {
    const int64_t t0 = NowNs();
    fpgadp::Rng rng(seed);
    rel::SyntheticTableSpec spec;
    // The scan's cycles depend on the table's size, not its values: a
    // seed-drawn extra of up to 4095 rows makes every simulated metric
    // differ between seeds.
    spec.num_rows = kFarviewRows + rng.NextBounded(4096);
    spec.seed = rng.Next();
    table_ = rel::MakeSyntheticTable(spec);
    // qty is uniform in [1, 50]: qty >= t keeps (51 - t) / 50 of the rows,
    // so these filters select 1.0, 0.5, 0.2, 0.1 and 0.04.
    for (int64_t t : {1, 26, 41, 46, 49}) {
      rel::Program p;
      rel::FilterOp f;
      f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, t});
      p.ops.push_back(f);
      programs_.push_back(std::move(p));
    }
    programs_.push_back(rel::MakeQ1Lite());
    programs_.push_back(rel::MakeQ6Lite());
    programs_.push_back(rel::MakeTopExpensive());
    for (const rel::Program& p : programs_) {
      auto r = rel::ExecuteCpu(p, table_);
      if (!r.ok()) {
        std::cerr << "farview_scan: reference failed: " << r.status() << "\n";
        std::exit(1);
      }
      reference_.push_back(TableDigest::Of(r.value()));
    }
    input_s_ = Seconds(NowNs() - t0);
  }

  Iteration Run(Tracer* tracer) override {
    Iteration it;
    farview::FarviewConfig config;
    std::unique_ptr<farview::FarviewSystem> system;
    uint64_t table_id = 0;
    std::vector<uint64_t> program_ids;
    {
      Phase p(tracer, "farview.ctor", &it.setup_s);
      system = std::make_unique<farview::FarviewSystem>(config);
    }
    {
      Phase p(tracer, "farview.load", &it.setup_s);
      // The user keeps their table, so the load pays for the copy.
      table_id = system->LoadTable(table_);
      for (const rel::Program& prog : programs_) {
        program_ids.push_back(system->RegisterProgram(prog));
      }
    }

    uint64_t dram = 0, wire = 0;
    double sim_seconds = 0;
    std::vector<uint64_t> latency;
    it.attempted = programs_.size();
    for (size_t q = 0; q < program_ids.size(); ++q) {
      fpgadp::Result<farview::QueryStats> r =
          fpgadp::Status::Internal("not run");
      {
        Phase p(tracer, "sim.run", &it.host_s);
        r = system->RunOffloaded(table_id, program_ids[q]);
      }
      // Checked, untimed, and dropped before the next query runs, so at
      // most one result is resident.
      if (!r.ok()) {
        ++it.failed;
        it.correct = false;
        continue;
      }
      const farview::QueryStats& s = r.value();
      if (!(TableDigest::Of(s.result) == reference_[q])) {
        ++it.failed;
        it.correct = false;
      }
      dram += s.dram_bytes;
      wire += s.wire_bytes;
      sim_seconds += s.seconds;
      latency.push_back(s.cycles);
    }

    auto& sim = it.sim;
    const farview::MemoryNode& node = system->memory_node();
    const double attributed = double(node.attributed_cycles());
    const double scan_bps = sim_seconds > 0 ? double(dram) / sim_seconds : 0;
    sim["sim.cycles"] = double(system->engine().now());
    sim["int_p50_cy"] = Quantile(latency, 0.50);
    sim["int_p99_cy"] = Quantile(latency, 0.99);
    sim["goodput_frac"] =
        double(it.attempted - it.failed) / double(it.attempted);
    sim["sim_qps"] = sim_seconds > 0 ? double(latency.size()) / sim_seconds : 0;
    sim["memory.dram_bytes"] = double(dram);
    sim["memory.scan_gbps"] = scan_bps / 1e9;
    sim["memory.dram_util"] =
        scan_bps / (config.ddr_channels * config.ddr_bytes_per_sec);
    sim["net.wire_bytes"] = double(wire);
    sim["farview.wire_per_dram"] = dram == 0 ? 0 : double(wire) / double(dram);
    sim["farview.node_busy_frac"] =
        attributed == 0 ? 0 : double(node.busy_cycles()) / attributed;
    sim["farview.node_blocked_frac"] =
        attributed == 0 ? 0 : double(node.blocked_cycles()) / attributed;
    return it;
  }

 private:
  rel::Table table_;
  std::vector<rel::Program> programs_;
  std::vector<TableDigest> reference_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_mix", "anns_fanout",
                                                 "farview_scan"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "serve_mix") return std::make_unique<ServeMix>(seed);
  if (name == "anns_fanout") return std::make_unique<AnnsFanout>(seed);
  if (name == "farview_scan") return std::make_unique<FarviewScan>(seed);
  return nullptr;
}

std::string ConditionsJson() {
  const char* env = std::getenv("FPGADP_ENGINE");
  const bool event = fpgadp::sim::DefaultScheduling() ==
                     fpgadp::sim::Scheduling::kEventDriven;
  std::ostringstream out;
  out << "{\"default_scheduling\": \"" << (event ? "event" : "tick")
      << "\", \"default_engine_threads\": "
      << fpgadp::sim::DefaultEngineThreads()
      << ", \"default_fast_forward\": "
      << (fpgadp::sim::DefaultFastForward() ? "true" : "false")
      << ", \"fpgadp_engine_env\": ";
  if (env == nullptr) {
    out << "null";
  } else {
    out << '"';
    for (const char* p = env; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') out << '\\';
      if (static_cast<unsigned char>(*p) >= 0x20) out << *p;
    }
    out << '"';
  }
  out << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"nproc\": " << std::thread::hardware_concurrency() << "}";
  return out.str();
}

}  // namespace perfbench

// Scale-out sharding benchmark: the same ANNS top-k and smart-KVS multiget
// workloads served by 1/2/4/8 virtual FPGA shards through the scatter-gather
// layer (src/shard/), under a sweep of gather topologies (src/shard/gather.h):
//
//   flat    every shard replies straight to the single coordinator port —
//           the E22 incumbent, whose ingress is the fan-in wall;
//   flat4   flat gather over min(4, shards) coordinator ports — the
//           strengthened baseline: more aggregate ingress line rate, same
//           one-packet-per-shard protocol;
//   tree    responses climb a binary tree per port, interior shards
//           partial-merging children before forwarding;
//   switch  responses are combined inside the fabric by the switch's
//           per-port aggregation engine (net::AggregatingSwitch);
//   scatter tree gather both ways: requests ride the same per-port tree as
//           multicast bundles (shared bytes cross the coordinator egress
//           once per subtree), interior merges are pipelined, and ANNS
//           balances probed lists across shards by modeled scan cost;
//   auto    the cost-model picker (shard::TopologyPlanner) chooses the
//           topology per (workload, shard count) from a short probe run's
//           estimators — never hand-tuned per row.
//
// Throughput is measured in *simulated* time — requests per simulated second
// at the fabric clock — which is what the sharding layer actually changes;
// host wall-clock is reported alongside.
//
// Three hard guarantees are asserted:
//   * every (workload, gather, shard count) reports bit-identical simulated
//     cycles under Run() and under the Step() loop it must reproduce,
//   * ANNS throughput at 4 shards (flat) is >= 3x the 1-shard baseline
//     (>= 2x in --smoke, whose smaller corpus leaves less to parallelize),
//   * KVS multiget at 8 shards breaks the fan-in wall: tree or switch gather
//     is >= 2x the single-port flat throughput (>= 1.5x in --smoke, which
//     runs fewer multigets and so amortizes fixed costs less).
//
// Results are dumped to BENCH_shard_scaling.json (override with
// --json=<file>). Flags: --smoke,
// --gather=<flat|flat4|tree|switch|scatter|auto|all> (default all),
// --replication=<R> (default 1: every shard gets R-1 warm standbys with
// health beacons — the E25 replication-overhead axis; row names gain a
// ".repR" suffix so the default JSON stays diffable; R > 1 needs
// --gather=flat or flat4, the only gathers with replica routing), plus the
// bench_common set.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/table_printer.h"
#include "src/shard/gather.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/topology_planner.h"
#include "src/shard/workloads.h"

namespace fpgadp {
namespace {

struct RunResult {
  uint64_t cycles = 0;
  uint64_t requests = 0;
  double wall_sec = 0;
};

struct Sizes {
  size_t anns_base = 40000;
  size_t anns_dim = 32;
  size_t anns_nlist = 64;
  size_t anns_nprobe = 16;
  size_t anns_queries = 64;
  size_t kvs_keys = 4096;
  size_t kvs_multigets = 32;
  size_t kvs_keys_per_get = 256;
};

double Now();

/// The gather topologies the bench sweeps. `flat` is the incumbent every
/// other setup's speedup is measured against. `auto` is resolved per
/// (workload, shard count) by the cost-model planner before the runs.
const std::vector<std::string> kGatherNames = {"flat",   "flat4",   "tree",
                                               "switch", "scatter", "auto"};

shard::GatherConfig MakeGather(const std::string& name, uint32_t shards) {
  shard::GatherConfig g;
  const uint32_t ports = std::min<uint32_t>(4, shards);
  if (name == "flat4") {
    g.coordinator_ports = ports;
  } else if (name == "tree") {
    g.topology = shard::GatherTopology::kTree;
    g.coordinator_ports = ports;
    g.fanout = 2;
  } else if (name == "switch") {
    g.topology = shard::GatherTopology::kSwitch;
    g.coordinator_ports = ports;
  } else if (name == "scatter") {
    // Tree both ways: multicast request bundles down, pipelined partial
    // merges up. (ANNS additionally balances its scatter; see RunAnns.)
    g.topology = shard::GatherTopology::kTree;
    g.coordinator_ports = ports;
    g.fanout = 2;
    g.scatter = shard::ScatterMode::kTree;
  }
  return g;
}

/// How --gather=auto resolves for one (workload, shard count): the picked
/// gather shape plus the planner's balance recommendation (applied only by
/// workloads that support re-homing slices, i.e. ANNS).
struct AutoPlan {
  shard::GatherConfig gather;
  bool balance = false;
  std::string rationale;
};

/// Runs `cluster` to quiescence with Run(), or with the Step() loop Run()
/// must reproduce when `stepped`, requiring every submitted request to
/// finalize un-degraded (the fabric is loss-free here).
uint64_t DrainCluster(shard::ShardCluster& cluster, size_t expected,
                      bool stepped, double* wall_sec) {
  const double t0 = Now();
  auto cycles = stepped ? sim::StepUntilQuiesced(cluster.engine(), 1ull << 32)
                        : cluster.Run();
  *wall_sec = Now() - t0;
  if (!cycles.ok()) {
    std::cerr << "FAIL: cluster did not quiesce: " << cycles.status() << "\n";
    std::exit(1);
  }
  size_t finalized = 0;
  shard::PartialOutcome out;
  while (cluster.PollOutcome(&out)) {
    if (!out.status.ok()) {
      std::cerr << "FAIL: degraded gather on a loss-free fabric: "
                << out.status << "\n";
      std::exit(1);
    }
    ++finalized;
  }
  if (finalized != expected) {
    std::cerr << "FAIL: " << finalized << "/" << expected
              << " requests finalized\n";
    std::exit(1);
  }
  return cycles.value();
}

/// Fills in the replication axis (--replication=R): R-1 warm standbys per
/// shard, with the beacon cadence the failover tests use. Beacons stop at
/// quiescence, so the measured cost is the wire contention they add while
/// requests are in flight.
void ApplyReplication(shard::ShardCluster::Config& cc, uint32_t replication) {
  if (replication <= 1) return;
  cc.replica.replication_factor = replication;
  cc.replica.beacon_interval_cycles = 600;
  cc.replica.beacon_timeout_cycles = 1500;
}

RunResult RunAnns(const anns::Dataset& data, const anns::IvfPqIndex& index,
                  const Sizes& sizes, uint32_t shards, uint32_t replication,
                  const shard::GatherConfig& gather, bool balance,
                  bool stepped) {
  shard::AnnsTopKWorkload::Config wc;
  wc.nprobe = sizes.anns_nprobe;
  wc.k = 10;
  wc.balance_scatter = balance;
  shard::AnnsTopKWorkload wl(&index, shard::Partitioner::Hash(shards), wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = shards;
  cc.gather = gather;
  ApplyReplication(cc, replication);
  shard::ShardCluster cluster(&wl, cc);
  const size_t n = std::min(sizes.anns_queries, data.num_queries());
  for (size_t q = 0; q < n; ++q) cluster.Submit(wl.AddQuery(data.QueryVector(q)));
  RunResult r;
  r.requests = n;
  r.cycles = DrainCluster(cluster, n, stepped, &r.wall_sec);
  return r;
}

RunResult RunKvs(const Sizes& sizes, uint32_t shards, uint32_t replication,
                 const shard::GatherConfig& gather, bool stepped) {
  shard::KvsMultiGetWorkload::Config kc;
  shard::KvsMultiGetWorkload wl(shard::Partitioner::Hash(shards), kc);
  for (uint64_t key = 0; key < sizes.kvs_keys; ++key) {
    wl.Load(key, key * 31 + 5);
  }
  shard::ShardCluster::Config cc;
  cc.num_shards = shards;
  cc.gather = gather;
  ApplyReplication(cc, replication);
  shard::ShardCluster cluster(&wl, cc);
  uint64_t next_key = 1;
  for (size_t g = 0; g < sizes.kvs_multigets; ++g) {
    std::vector<uint64_t> keys;
    keys.reserve(sizes.kvs_keys_per_get);
    for (size_t i = 0; i < sizes.kvs_keys_per_get; ++i) {
      keys.push_back(next_key);
      next_key = (next_key * 2862933555777941757ull + 3037000493ull) %
                 sizes.kvs_keys;
    }
    cluster.Submit(wl.AddMultiGet(std::move(keys)));
  }
  RunResult r;
  r.requests = sizes.kvs_multigets;
  r.cycles =
      DrainCluster(cluster, sizes.kvs_multigets, stepped, &r.wall_sec);
  return r;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Harvests the planner's inputs from a drained probe cluster and asks
/// TopologyPlanner to pick. The probe is a short single-port flat run of
/// the same request class — what a deployment would observe before
/// reconfiguring — so `auto` rows are planned from measurements, not from
/// knowledge of the answer. Shared across workloads; `wl` is the probe's
/// workload, `probe_request` any request id it served.
AutoPlan FinishPlan(shard::ShardCluster& cluster, shard::Workload& wl,
                    uint64_t probe_request, uint32_t shards,
                    uint64_t probe_cycles) {
  const shard::PlannerInputs in = shard::HarvestPlannerInputs(
      cluster.coordinator(), wl, shards, probe_cycles, probe_request);
  const shard::TopologyDecision d = shard::TopologyPlanner::Choose(in);
  return {d.gather, d.balance_scatter, d.rationale};
}

AutoPlan PlanAutoAnns(const anns::Dataset& data, const anns::IvfPqIndex& index,
                      const Sizes& sizes, uint32_t shards) {
  shard::AnnsTopKWorkload::Config wc;
  wc.nprobe = sizes.anns_nprobe;
  wc.k = 10;
  shard::AnnsTopKWorkload wl(&index, shard::Partitioner::Hash(shards), wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = shards;
  shard::ShardCluster cluster(&wl, cc);
  const size_t n = std::min<size_t>(8, data.num_queries());
  for (size_t q = 0; q < n; ++q) {
    cluster.Submit(wl.AddQuery(data.QueryVector(q)));
  }
  double wall = 0;
  const uint64_t cycles =
      DrainCluster(cluster, n, /*stepped=*/false, &wall);
  return FinishPlan(cluster, wl, 0, shards, cycles);
}

AutoPlan PlanAutoKvs(const Sizes& sizes, uint32_t shards) {
  shard::KvsMultiGetWorkload::Config kc;
  shard::KvsMultiGetWorkload wl(shard::Partitioner::Hash(shards), kc);
  for (uint64_t key = 0; key < sizes.kvs_keys; ++key) wl.Load(key, key * 31 + 5);
  shard::ShardCluster::Config cc;
  cc.num_shards = shards;
  shard::ShardCluster cluster(&wl, cc);
  uint64_t next_key = 1;
  const size_t n = 4;
  for (size_t g = 0; g < n; ++g) {
    std::vector<uint64_t> keys;
    keys.reserve(sizes.kvs_keys_per_get);
    for (size_t i = 0; i < sizes.kvs_keys_per_get; ++i) {
      keys.push_back(next_key);
      next_key = (next_key * 2862933555777941757ull + 3037000493ull) %
                 sizes.kvs_keys;
    }
    cluster.Submit(wl.AddMultiGet(std::move(keys)));
  }
  double wall = 0;
  const uint64_t cycles =
      DrainCluster(cluster, n, /*stepped=*/false, &wall);
  return FinishPlan(cluster, wl, 0, shards, cycles);
}

}  // namespace
}  // namespace fpgadp

int main(int argc, char** argv) {
  using namespace fpgadp;
  bench::Session session(argc, argv);
  session.SetDefaultJsonPath("BENCH_shard_scaling.json");
  bool smoke = false;
  std::string gather_flag = "all";
  uint32_t replication = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--gather=", 9) == 0) gather_flag = argv[i] + 9;
    if (std::strncmp(argv[i], "--replication=", 14) == 0) {
      replication = std::strtoul(argv[i] + 14, nullptr, 10);
      if (replication < 1 || replication > 4) {
        std::cerr << "FAIL: --replication wants 1..4, got " << argv[i] + 14
                  << "\n";
        return session.Fail();
      }
    }
  }
  std::vector<std::string> gathers;
  if (gather_flag == "all") {
    gathers = kGatherNames;
  } else if (std::find(kGatherNames.begin(), kGatherNames.end(),
                       gather_flag) != kGatherNames.end()) {
    gathers = {gather_flag};
  } else {
    std::cerr << "FAIL: unknown --gather=" << gather_flag
              << " (want flat|flat4|tree|switch|scatter|auto|all)\n";
    return session.Fail();
  }
  // Replica routing is defined only for the flat response path (GatherPlan).
  if (replication > 1 &&
      std::any_of(gathers.begin(), gathers.end(), [](const std::string& g) {
        return g != "flat" && g != "flat4";
      })) {
    std::cerr << "FAIL: --replication=" << replication
              << " needs --gather=flat or --gather=flat4, got --gather="
              << gather_flag << "\n";
    return session.Fail();
  }

  Sizes sizes;
  if (smoke) {
    // kvs_keys_per_get stays at the full-size 256: the fan-in assertion
    // needs responses big enough to serialize through the incumbent port.
    sizes = {8000, 16, 32, 8, 16, 1024, 8, 256};
  }

  std::cout << "=== scale-out sharding across virtual FPGAs"
            << (smoke ? " (smoke)" : "")
            << (replication > 1
                    ? " [R=" + std::to_string(replication) + " replicas]"
                    : "")
            << " ===\n";

  anns::DatasetSpec spec;
  spec.num_base = sizes.anns_base;
  spec.num_queries = sizes.anns_queries;
  spec.dim = sizes.anns_dim;
  spec.num_clusters = sizes.anns_nlist / 2;
  spec.cluster_stddev = 0.3f;
  spec.seed = 29;
  const anns::Dataset data = anns::MakeDataset(spec);
  anns::IvfPqIndex::Options iopts;
  iopts.nlist = sizes.anns_nlist;
  iopts.pq.m = 8;
  iopts.pq.ksub = 32;
  iopts.pq.train_iters = 6;
  auto index = anns::IvfPqIndex::Build(data.base, data.dim, iopts);
  if (!index.ok()) {
    std::cerr << "FAIL: index build: " << index.status() << "\n";
    return session.Fail();
  }

  const double clock_hz = net::Fabric::Config{}.clock_hz;
  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};

  TablePrinter t({"workload", "gather", "shards", "sim cycles",
                  "requests", "req/sim-sec", "scaling", "vs flat", "wall ms"});
  bool ok = true;
  std::map<std::string, double> serial_tput;  // workload.gather -> 1-shard
  std::map<std::string, double> scaling_at;   // workload.gather.shards
  std::map<std::string, double> flat_tput;    // workload.shards -> flat tput
  std::map<std::string, double> vs_flat_at;   // workload.gather.shards
  std::map<std::string, double> tput_at;      // workload.gather.shards

  for (const std::string& workload : {std::string("anns"), std::string("kvs")}) {
    for (const std::string& gather_name : gathers) {
      for (uint32_t shards : shard_counts) {
        shard::GatherConfig gather = MakeGather(gather_name, shards);
        // The scatter row showcases every scatter-side lever at once; for
        // ANNS that includes balanced list placement. `auto` applies
        // balance only when the planner recommends it. The decision is
        // made once, so Run() and the Step() loop see the identical
        // configuration (and must report identical cycles).
        bool balance = gather_name == "scatter" && workload == "anns";
        if (gather_name == "auto") {
          const AutoPlan plan =
              workload == "anns" ? PlanAutoAnns(data, *index, sizes, shards)
                                 : PlanAutoKvs(sizes, shards);
          gather = plan.gather;
          balance = plan.balance && workload == "anns";
          std::cout << "[auto] " << workload << " x" << shards << " -> "
                    << plan.rationale << (balance ? " [balanced]" : "")
                    << "\n";
        }
        const auto run_with = [&](bool stepped) {
          return workload == "anns"
                     ? RunAnns(data, *index, sizes, shards, replication,
                               gather, balance, stepped)
                     : RunKvs(sizes, shards, replication, gather, stepped);
        };
        const RunResult r = run_with(/*stepped=*/false);
        const RunResult step = run_with(/*stepped=*/true);
        if (step.cycles != r.cycles) {
          std::cerr << "FAIL: " << workload << "/" << gather_name << " x"
                    << shards << " Run() took " << r.cycles
                    << " cycles vs the Step() loop's " << step.cycles << "\n";
          ok = false;
        }
        const double sim_sec = double(r.cycles) / clock_hz;
        const double tput = double(r.requests) / sim_sec;
        const std::string wg = workload + "." + gather_name;
        if (shards == 1) serial_tput[wg] = tput;
        const double scaling = tput / serial_tput[wg];
        const std::string ws = workload + "." + std::to_string(shards);
        if (gather_name == "flat") flat_tput[ws] = tput;
        // The flat incumbent always runs first (kGatherNames order), so its
        // baseline is in the map by the time any other setup reads it.
        const double vs_flat = flat_tput.count(ws) ? tput / flat_tput[ws] : 1.0;
        const std::string at = wg + "." + std::to_string(shards);
        scaling_at[at] = scaling;
        vs_flat_at[at] = vs_flat;
        tput_at[at] = tput;
        t.AddRow({workload, gather_name, std::to_string(shards),
                  TablePrinter::FmtCount(r.cycles),
                  TablePrinter::FmtCount(r.requests),
                  TablePrinter::Fmt(tput, 0), TablePrinter::Fmt(scaling, 2),
                  TablePrinter::Fmt(vs_flat, 2),
                  TablePrinter::Fmt(r.wall_sec * 1e3, 2)});
        // Rows keep their historical ".serial" suffix so the committed JSON
        // stays diffable across commits.
        session.AddResult(
            wg + ".s" + std::to_string(shards) + ".serial" +
                (replication > 1 ? ".rep" + std::to_string(replication) : ""),
            {{"shards", double(shards)},
             {"replication", double(replication)},
             {"cycles", double(r.cycles)},
             {"requests", double(r.requests)},
             {"req_per_sim_sec", tput},
             {"scaling_vs_1shard", scaling},
             {"speedup_vs_flat", vs_flat},
             {"wall_sec", r.wall_sec}});
      }
    }
  }
  t.Print(std::cout);
  std::cout << "\n(cycle counts asserted identical between Run() and the "
               "Step() loop; scaling is per simulated second; "
               "vs-flat compares to single-port flat at equal shards)\n";

  if (std::find(gathers.begin(), gathers.end(), "flat") == gathers.end()) {
    std::cout << "[note] --gather=" << gather_flag
              << " skips the flat incumbent; speedup assertions skipped\n";
    return ok ? 0 : session.Fail();
  }

  const double want = smoke ? 2.0 : 3.0;
  const double got = scaling_at["anns.flat.4"];
  if (got < want) {
    std::cerr << "FAIL: ANNS at 4 shards scaled only " << got << "x (want >= "
              << want << "x)\n";
    ok = false;
  } else {
    std::cout << "[scaling] anns x4 = " << got << "x (>= " << want
              << "x required)\n";
  }

  // The fan-in wall: flat KVS throughput is pinned to the coordinator's
  // single ingress port no matter how many shards serve. Hierarchical
  // gather must break it — tree or switch at 8 shards >= 2x flat (1.5x in
  // smoke, which amortizes fixed per-run costs over fewer multigets).
  if (gathers.size() > 1) {
    const double kvs_want = smoke ? 1.5 : 2.0;
    double kvs_best = 0;
    std::string kvs_best_name;
    for (const std::string& g : {std::string("tree"), std::string("switch")}) {
      const auto it = vs_flat_at.find("kvs." + g + ".8");
      if (it == vs_flat_at.end()) continue;
      if (it->second > kvs_best) {
        kvs_best = it->second;
        kvs_best_name = g;
      }
    }
    if (kvs_best < kvs_want) {
      std::cerr << "FAIL: KVS at 8 shards reached only " << kvs_best
                << "x flat under hierarchical gather (want >= " << kvs_want
                << "x) — the fan-in wall stands\n";
      ok = false;
    } else {
      std::cout << "[fan-in] kvs x8 " << kvs_best_name << " = " << kvs_best
                << "x flat (>= " << kvs_want << "x required)\n";
    }
  }

  // E27: the full scatter-side stack — multicast request bundles, balanced
  // list placement, pipelined interior merges — must push ANNS past what
  // any response-side topology alone reaches. scaling_at compares to the
  // scatter row's own 1-shard baseline, which matches flat's (a 1-member
  // tree degenerates to the point-to-point path).
  if (std::find(gathers.begin(), gathers.end(), "scatter") != gathers.end()) {
    // Smoke's corpus is tiny: per-slice service (~60 cycles) drowns under
    // the 200-cycle per-hop wire latency the scatter tree adds, so the
    // smoke bar only guards against outright breakage.
    const double want = smoke ? 1.8 : 6.0;
    const double got = scaling_at["anns.scatter.8"];
    if (got < want) {
      std::cerr << "FAIL: ANNS scatter-tree at 8 shards scaled only " << got
                << "x (want >= " << want << "x vs single-port flat)\n";
      ok = false;
    } else {
      std::cout << "[scatter] anns x8 scatter-tree = " << got << "x (>= "
                << want << "x required)\n";
    }
  }

  // The picker must never lose badly to hand-tuning: at every measured
  // (workload, shard count), auto's throughput is within 5% of the best
  // static row. Only meaningful when every static row ran.
  if (gathers.size() == kGatherNames.size()) {
    for (const std::string& workload :
         {std::string("anns"), std::string("kvs")}) {
      for (uint32_t shards : shard_counts) {
        const std::string suffix = "." + std::to_string(shards);
        double best = 0;
        std::string best_name;
        for (const std::string& g : kGatherNames) {
          if (g == "auto") continue;
          const auto it = tput_at.find(workload + "." + g + suffix);
          if (it != tput_at.end() && it->second > best) {
            best = it->second;
            best_name = g;
          }
        }
        const double auto_tput = tput_at[workload + ".auto" + suffix];
        if (auto_tput < 0.95 * best) {
          std::cerr << "FAIL: --gather=auto on " << workload << " x" << shards
                    << " reached " << auto_tput << " req/s vs best static ("
                    << best_name << ") " << best
                    << " — picker more than 5% off\n";
          ok = false;
        }
      }
    }
    std::cout << "[auto] picker within 5% of the best static topology at "
                 "every (workload, shard count)\n";
  }
  return ok ? 0 : session.Fail();
}

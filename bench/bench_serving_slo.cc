// Serving-SLO benchmark: an open-loop traffic generator (src/serve/) offers
// a two-class request mix — latency-sensitive "interactive" and
// throughput-oriented "batch" — to a 4-shard cluster at a sweep of offered
// loads, tracing out the latency-vs-load knee curve under two ingress
// admission policies:
//
//   qd   bounded queue depth (shed only when max_pending gathers are in
//        flight) — the classic front door, blind to deadlines;
//   slo  deadline-feasibility (shed when per-shard backlog + service + wire
//        estimates say the SLO cannot be met) — latency of *served*
//        requests stays bounded near the SLO while excess load becomes
//        fast-fail sheds.
//
// Latencies land in per-class obs::LatencyHistogram (p50/p99/p999). Three
// hard guarantees are asserted:
//   * every configuration reports bit-identical simulated cycles AND
//     bit-identical per-class latency histograms under Run() and under the
//     Step() loop it must reproduce;
//   * interactive p99 under the qd policy is monotone non-decreasing in
//     offered load (the knee curve only bends up);
//   * at the overload point, the slo policy holds interactive p99 within
//     its SLO while the qd policy violates it — the experiment's thesis.
//
// A second sweep repeats two load points over a lossy fabric (1% packet
// drop through the fault injector) to show the knee under retransmissions.
// Results go to BENCH_serving_slo.json (override with --json=<file>).
// Flags: --smoke, --gather=<flat|tree|switch|auto> (default flat; tree and
// switch route gathers through the hierarchical response path of
// src/shard/gather.h — with fanout-1 requests the tree is degenerate, so
// this mostly exercises the merged-form wire protocol under load; auto
// hands the choice to the cost-model picker in src/shard/topology_planner.h,
// fed by a short probe run's estimators), --fault-seed=N and --drop-rate=X
// (the lossy sweep's seed, default 1, and drop rate, default 0.01).
//
// --failover switches to the E25 replication/recovery sweep instead: for
// each (policy, rho) a baseline R=1 run, an R=2 run (replication
// overhead), and an R=2 run where shard 1's primary permanently loses its
// links mid-run — asserting exactly one promotion, zero degraded results,
// and tail recovery within the documented budget. Emits
// BENCH_failover.json. It runs flat gather under its own fault schedule, so
// --failover with --gather=, --drop-rate= or --fault-seed= fails.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/net/fabric.h"
#include "src/serve/arrival.h"
#include "src/serve/front_door.h"
#include "src/serve/synthetic.h"
#include "src/shard/gather.h"
#include "src/shard/shard.h"
#include "src/shard/topology_planner.h"

namespace fpgadp {
namespace {

constexpr uint32_t kShards = 4;
constexpr uint64_t kInteractiveSvc = 200;
constexpr uint64_t kInteractiveSlo = 6000;
constexpr uint64_t kBatchSvc = 800;
constexpr uint64_t kBatchSlo = 20000;
constexpr double kInteractiveWeight = 0.8;
constexpr double kBatchWeight = 0.2;
// Mean service cycles of the mix; at offered load rho the mean inter-arrival
// gap is mix / (shards * rho), so rho ~ 1.0 saturates the cluster.
constexpr double kMixMeanSvc =
    kInteractiveWeight * kInteractiveSvc + kBatchWeight * kBatchSvc;

struct RunConfig {
  std::string policy;  // "qd" or "slo"
  double rho = 0.5;    // Offered load as a fraction of cluster capacity.
  double drop_rate = 0;
  serve::ArrivalKind kind = serve::ArrivalKind::kPoisson;
  size_t num_requests = 2000;
  uint64_t seed = 7;
  uint64_t fault_seed = 1;
  shard::GatherConfig gather;  // Response-path topology (--gather=).
  // --failover sweep: replicated cluster, optionally with shard 1's primary
  // losing both link directions permanently at `flap_cycle`.
  uint32_t replication = 1;
  uint64_t flap_cycle = 0;  // 0 = no scheduled fault.
};

/// Everything a run reports, in full, so Run()/Step() invariance can be
/// asserted on the complete observable surface (not just the cycle count).
struct ClassOut {
  uint64_t count = 0, sum = 0, p50 = 0, p99 = 0, p999 = 0, max = 0;
  uint64_t offered = 0, admitted = 0, shed = 0, completed = 0, degraded = 0,
           violations = 0;

  bool operator==(const ClassOut& o) const {
    return count == o.count && sum == o.sum && p50 == o.p50 && p99 == o.p99 &&
           p999 == o.p999 && max == o.max && offered == o.offered &&
           admitted == o.admitted && shed == o.shed &&
           completed == o.completed && degraded == o.degraded &&
           violations == o.violations;
  }
};

struct RunOut {
  uint64_t cycles = 0;
  ClassOut cls[2];  // [0] interactive, [1] batch.
  uint64_t failovers = 0;
  // Completion cycle of the last SLO-violating request finishing at or
  // after the scheduled flap, minus the flap cycle (0 when the tail never
  // left the SLO): how long the outage was visible in the latency stream.
  uint64_t recovery_cycles = 0;

  bool operator==(const RunOut& o) const {
    return cycles == o.cycles && cls[0] == o.cls[0] && cls[1] == o.cls[1] &&
           failovers == o.failovers && recovery_cycles == o.recovery_cycles;
  }
};

/// Runs one configuration with Run(), or with the Step() loop Run() must
/// reproduce when `stepped`.
RunOut RunOne(const RunConfig& rc, bool stepped = false) {
  serve::SyntheticWorkload::Config wc;
  wc.num_shards = kShards;
  wc.fanout = 1;
  wc.jitter_pct = 25;
  wc.publish_estimates = true;  // Oracle estimates isolate the policy.
  serve::SyntheticWorkload wl(wc);

  shard::ShardCluster::Config cc;
  cc.num_shards = kShards;
  cc.gather = rc.gather;
  // Lossy runs need the gather deadline as the backstop for responses lost
  // after the retry cap; loss-free runs can wait forever.
  cc.coordinator.gather_deadline_cycles = rc.drop_rate > 0 ? 50000 : 0;
  if (rc.policy == "qd") {
    cc.coordinator.admission = shard::AdmissionPolicy::kQueueDepth;
    cc.coordinator.max_pending = 256;
  } else {
    cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
    cc.coordinator.feasibility_headroom_pct = 80;
  }
  if (rc.replication > 1) {
    cc.replica.replication_factor = rc.replication;
    cc.replica.beacon_interval_cycles = 600;
    cc.replica.beacon_timeout_cycles = 1500;
    cc.reliability.rto_cycles = 300;
    cc.reliability.max_retries = 2;
  }
  shard::ShardCluster cluster(&wl, cc);

  net::FaultInjector::Config fc;
  fc.seed = rc.fault_seed;
  fc.drop_rate = rc.drop_rate;
  if (rc.flap_cycle > 0) fc.flap_down_cycles = 1u << 30;  // Permanent death.
  net::FaultInjector injector(fc);
  if (rc.flap_cycle > 0) {
    const uint32_t victim = cluster.gather_plan().ReplicaNode(1, 0);
    injector.Schedule({rc.flap_cycle, victim, net::FaultInjector::kAnyNode,
                       net::FaultKind::kLinkFlap});
    injector.Schedule({rc.flap_cycle, net::FaultInjector::kAnyNode, victim,
                       net::FaultKind::kLinkFlap});
  }
  if (rc.drop_rate > 0 || rc.flap_cycle > 0) {
    cluster.set_fault_injector(&injector);
  }

  serve::FrontDoor::Config fd;
  fd.arrivals.kind = rc.kind;
  fd.arrivals.mean_interarrival_cycles = kMixMeanSvc / (kShards * rc.rho);
  fd.arrivals.concurrency = 16;  // Closed-loop rows only.
  fd.classes = {{"interactive", kInteractiveSlo, kInteractiveWeight},
                {"batch", kBatchSlo, kBatchWeight}};
  fd.num_requests = rc.num_requests;
  fd.seed = rc.seed;
  serve::FrontDoor door(
      "front_door", &cluster.coordinator(), &wl,
      [&wl](uint32_t cls, size_t) {
        return wl.AddRequest(cls == 0 ? kInteractiveSvc : kBatchSvc);
      },
      fd);
  std::vector<serve::FrontDoor::CompletionRecord> completions;
  if (rc.flap_cycle > 0) door.set_completion_log(&completions);
  cluster.engine().AddModule(&door);

  auto cycles = stepped ? sim::StepUntilQuiesced(cluster.engine(), 1ull << 32)
                        : cluster.Run(1ull << 32);
  if (!cycles.ok()) {
    std::cerr << "FAIL: cluster did not quiesce: " << cycles.status() << "\n";
    std::exit(1);
  }
  if (door.total_offered() != rc.num_requests ||
      door.total_completed() + door.total_shed() != rc.num_requests) {
    std::cerr << "FAIL: request accounting: offered " << door.total_offered()
              << " completed " << door.total_completed() << " shed "
              << door.total_shed() << " of " << rc.num_requests << "\n";
    std::exit(1);
  }

  RunOut out;
  out.cycles = cycles.value();
  out.failovers = cluster.coordinator().failovers();
  if (rc.flap_cycle > 0) {
    const uint64_t slos[2] = {kInteractiveSlo, kBatchSlo};
    for (const auto& rec : completions) {
      if (rec.completed_at >= rc.flap_cycle &&
          rec.latency_cycles > slos[rec.class_index]) {
        out.recovery_cycles = rec.completed_at - rc.flap_cycle;
      }
    }
  }
  for (size_t c = 0; c < 2; ++c) {
    const serve::ClassStats& s = door.class_stats(c);
    out.cls[c] = {s.latency.count(), s.latency.sum(),   s.latency.p50(),
                  s.latency.p99(),   s.latency.p999(),  s.latency.max(),
                  s.offered,         s.admitted,        s.shed,
                  s.completed,       s.degraded,        s.slo_violations};
  }
  return out;
}

std::string FmtRho(double rho) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", rho);
  return buf;
}

/// --gather=auto: a short single-port flat probe of the serving mix at
/// moderate load feeds the coordinator's estimators to the cost-model
/// picker. With fanout-1 requests every topology degenerates toward flat,
/// and the picker should say so from the measurements alone.
shard::GatherConfig PlanAutoServing(std::string* rationale) {
  serve::SyntheticWorkload::Config wc;
  wc.num_shards = kShards;
  wc.fanout = 1;
  wc.jitter_pct = 25;
  wc.publish_estimates = true;
  serve::SyntheticWorkload wl(wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = kShards;  // Flat, single port: the probe incumbent.
  shard::ShardCluster cluster(&wl, cc);

  serve::FrontDoor::Config fd;
  fd.arrivals.mean_interarrival_cycles = kMixMeanSvc / (kShards * 0.5);
  fd.classes = {{"interactive", kInteractiveSlo, kInteractiveWeight},
                {"batch", kBatchSlo, kBatchWeight}};
  fd.num_requests = 200;
  fd.seed = 7;
  serve::FrontDoor door(
      "front_door_probe", &cluster.coordinator(), &wl,
      [&wl](uint32_t cls, size_t) {
        return wl.AddRequest(cls == 0 ? kInteractiveSvc : kBatchSvc);
      },
      fd);
  cluster.engine().AddModule(&door);
  auto cycles = cluster.Run(1ull << 32);
  if (!cycles.ok()) {
    std::cerr << "FAIL: auto probe did not quiesce: " << cycles.status()
              << "\n";
    std::exit(1);
  }
  const shard::PlannerInputs in = shard::HarvestPlannerInputs(
      cluster.coordinator(), wl, kShards, cycles.value());
  const shard::TopologyDecision d = shard::TopologyPlanner::Choose(in);
  *rationale = d.rationale;
  shard::GatherConfig gather = d.gather;
  if (gather.topology != shard::GatherTopology::kFlat) {
    // Same lossy-sweep backstop the static non-flat configs carry.
    gather.merge_timeout_cycles = 4000;
  }
  return gather;
}

}  // namespace
}  // namespace fpgadp

namespace fpgadp {
namespace {

/// The E25 recovery budget: transport detection (rto 300 ladder, 2 retries:
/// 300 + 600 + 1200 = 2100) or beacon silence (timeout 1500 + interval
/// 600 = 2100), whichever fires first, plus replay RTT and the drain of
/// arrivals queued behind the outage. Documented in EXPERIMENTS.md E25;
/// tests/chaos_test.cc holds the same machinery to 4000 cycles at a tighter
/// 2500-cycle SLO — the serving mix here carries batch requests, so the
/// drain term is larger.
constexpr uint64_t kRecoveryBudget = 8000;

/// --failover: replication/failover sweep instead of the admission sweep.
/// For each (policy, rho): a baseline R=1 run, an R=2 run (replication
/// overhead), and an R=2 run where shard 1's primary permanently dies
/// mid-run (recovery). Results go to BENCH_failover.json.
int RunFailoverSweep(bench::Session& session, bool smoke) {
  const size_t num_requests = smoke ? 500 : 2000;
  const uint64_t flap = smoke ? 15000 : 50000;
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.8} : std::vector<double>{0.5, 0.8};

  std::cout << "=== serving under failover: replication and recovery"
            << (smoke ? " (smoke)" : "") << " ===\n"
            << "R=2, beacons 600/1500, rto 300 x2 retries; primary of shard "
               "1 dies at cycle "
            << flap << "\n\n";

  TablePrinter t({"policy", "rho", "variant", "sim cycles", "int p99",
                  "int viol", "shed", "failovers", "recovery", "overhead"});
  bool ok = true;

  struct Variant {
    std::string name;
    uint32_t replication;
    uint64_t flap_cycle;
  };
  const std::vector<Variant> variants = {
      {"base", 1, 0}, {"repl", 2, 0}, {"fault", 2, flap}};

  for (const std::string& policy : {std::string("qd"), std::string("slo")}) {
    for (double rho : loads) {
      uint64_t base_cycles = 0;
      for (const Variant& v : variants) {
        RunConfig rc;
        rc.policy = policy;
        rc.rho = rho;
        rc.num_requests = num_requests;
        rc.replication = v.replication;
        rc.flap_cycle = v.flap_cycle;

        const RunOut first = RunOne(rc);
        if (!(RunOne(rc, /*stepped=*/true) == first)) {
          std::cerr << "FAIL: failover/" << policy << "/rho " << FmtRho(rho)
                    << "/" << v.name << " Run() diverged from the Step() "
                    << "loop\n";
          ok = false;
        }
        if (v.name == "base") base_cycles = first.cycles;
        const double overhead_pct =
            base_cycles == 0
                ? 0.0
                : 100.0 * (double(first.cycles) - double(base_cycles)) /
                      double(base_cycles);

        const ClassOut& ic = first.cls[0];
        const ClassOut& bc = first.cls[1];
        t.AddRow({policy, FmtRho(rho), v.name,
                  TablePrinter::FmtCount(first.cycles),
                  TablePrinter::FmtCount(ic.p99),
                  TablePrinter::FmtCount(ic.violations),
                  TablePrinter::FmtCount(ic.shed + bc.shed),
                  TablePrinter::FmtCount(first.failovers),
                  TablePrinter::FmtCount(first.recovery_cycles),
                  TablePrinter::Fmt(overhead_pct, 1) + "%"});
        session.AddResult(
            "failover." + policy + ".r" + FmtRho(rho) + "." + v.name,
            {{"rho", rho},
             {"replication", double(v.replication)},
             {"flap_cycle", double(v.flap_cycle)},
             {"cycles", double(first.cycles)},
             {"offered", double(ic.offered + bc.offered)},
             {"shed", double(ic.shed + bc.shed)},
             {"interactive_p99", double(ic.p99)},
             {"interactive_slo_violations", double(ic.violations)},
             {"interactive_degraded", double(ic.degraded)},
             {"batch_p99", double(bc.p99)},
             {"failovers", double(first.failovers)},
             {"recovery_cycles", double(first.recovery_cycles)},
             {"replication_overhead_pct", overhead_pct}});

        // Hard guarantees per variant. Fault-free runs must not promote;
        // the fault run must promote exactly once, lose nothing, and have
        // its tail back under the SLO within the documented budget.
        if (v.flap_cycle == 0 && first.failovers != 0) {
          std::cerr << "FAIL: " << policy << "/" << v.name
                    << " promoted without a fault\n";
          ok = false;
        }
        if (first.cls[0].degraded + first.cls[1].degraded != 0) {
          std::cerr << "FAIL: " << policy << "/" << v.name << " completed "
                    << first.cls[0].degraded + first.cls[1].degraded
                    << " degraded requests\n";
          ok = false;
        }
        if (v.flap_cycle > 0) {
          if (first.failovers != 1) {
            std::cerr << "FAIL: " << policy << "/rho " << FmtRho(rho)
                      << " fault run promoted " << first.failovers
                      << " times (want exactly 1)\n";
            ok = false;
          }
          if (first.recovery_cycles > kRecoveryBudget) {
            std::cerr << "FAIL: " << policy << "/rho " << FmtRho(rho)
                      << " tail stayed over SLO for " << first.recovery_cycles
                      << " cycles after the flap (budget " << kRecoveryBudget
                      << ")\n";
            ok = false;
          }
        }
      }
    }
  }
  t.Print(std::cout);
  std::cout << "\n(all rows asserted bit-identical between Run() and the "
               "Step() loop; recovery budget "
            << kRecoveryBudget << " cycles, see EXPERIMENTS.md E25)\n";
  return ok ? 0 : session.Fail();
}

}  // namespace
}  // namespace fpgadp

int main(int argc, char** argv) {
  using namespace fpgadp;
  bool smoke = false;
  bool failover = false;
  std::string gather_flag = "flat";
  uint64_t fault_seed = 1;
  double drop_rate = 0;
  bench::Session session(
      argc, argv,
      {bench::BoolFlag("--smoke", &smoke), bench::BoolFlag("--failover", &failover),
       bench::ChoiceFlag("--gather=", {"flat", "tree", "switch", "auto"}, &gather_flag),
       bench::RangeFlag("--fault-seed=", 0, UINT64_MAX, &fault_seed),
       bench::ProbabilityFlag("--drop-rate=", &drop_rate)});
  session.SetDefaultJsonPath(failover ? "BENCH_failover.json"
                                      : "BENCH_serving_slo.json");
  if (failover) {
    // The failover sweep runs flat gather under its own scheduled link
    // flap; it reads none of the load sweep's gather and fault flags.
    for (const char* ignored : {"--gather=", "--drop-rate=", "--fault-seed="}) {
      if (session.Given(ignored)) {
        std::cerr << "FAIL: --failover ignores " << ignored
                  << "; pass one of the two flags, not both\n";
        return session.Fail();
      }
    }
    return RunFailoverSweep(session, smoke);
  }
  shard::GatherConfig gather;
  if (gather_flag == "auto") {
    std::string rationale;
    gather = PlanAutoServing(&rationale);
    std::cout << "[auto] serving mix -> " << rationale << "\n";
  } else if (shard::ParseGatherTopology(gather_flag, &gather.topology) &&
             gather.topology != shard::GatherTopology::kFlat) {
    gather.coordinator_ports = 2;
    // Lossy sweeps run under this config too: a lost child contribution
    // must not wedge its tree ancestors past the gather deadline.
    gather.merge_timeout_cycles = 4000;
  }

  const size_t num_requests = smoke ? 500 : 2000;
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.5, 0.9, 1.3}
            : std::vector<double>{0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5};
  const double overload = loads.back() < 1.3 ? 1.2 : loads.back();
  const std::vector<double> fault_loads =
      smoke ? std::vector<double>{0.9} : std::vector<double>{0.7, 1.2};
  const double fault_drop = drop_rate > 0 ? drop_rate : 0.01;

  std::cout << "=== serving front door: tail latency vs offered load"
            << (smoke ? " (smoke)" : "")
            << (gather_flag == "flat" ? "" : " [gather=" + gather_flag + "]")
            << " ===\n"
            << "interactive: svc ~" << kInteractiveSvc << "cy slo "
            << kInteractiveSlo << "cy (" << kInteractiveWeight * 100
            << "%)  batch: svc ~" << kBatchSvc << "cy slo " << kBatchSlo
            << "cy\n\n";

  TablePrinter t({"traffic", "policy", "rho", "drop", "sim cycles", "admit",
                  "shed", "int p50", "int p99", "int p999", "int viol",
                  "bat p99"});
  bool ok = true;
  // interactive p99 per (policy, rho) on the loss-free Poisson sweep, for
  // the monotonicity and crossover assertions.
  std::map<std::string, uint64_t> int_p99;

  struct Sweep {
    std::string traffic;
    serve::ArrivalKind kind;
    std::vector<double> rhos;
    double drop;
  };
  std::vector<Sweep> sweeps = {
      {"poisson", serve::ArrivalKind::kPoisson, loads, 0.0},
      {"poisson", serve::ArrivalKind::kPoisson, fault_loads, fault_drop},
  };
  if (!smoke) {
    sweeps.push_back(
        {"bursty", serve::ArrivalKind::kBursty, {0.85}, 0.0});
    sweeps.push_back(
        {"diurnal", serve::ArrivalKind::kDiurnal, {0.85}, 0.0});
    sweeps.push_back(
        {"closed_loop", serve::ArrivalKind::kClosedLoop, {1.0}, 0.0});
  }

  for (const Sweep& sweep : sweeps) {
    for (const std::string& policy : {std::string("qd"), std::string("slo")}) {
      for (double rho : sweep.rhos) {
        RunConfig rc;
        rc.policy = policy;
        rc.rho = rho;
        rc.drop_rate = sweep.drop;
        rc.kind = sweep.kind;
        rc.num_requests = num_requests;
        rc.fault_seed = fault_seed;
        rc.gather = gather;

        const RunOut first = RunOne(rc);
        const RunOut step = RunOne(rc, /*stepped=*/true);
        if (!(step == first)) {
          std::cerr << "FAIL: " << sweep.traffic << "/" << policy << "/rho "
                    << FmtRho(rho) << " Run() diverged from the Step() loop "
                    << "(cycles " << first.cycles << " vs " << step.cycles
                    << ", int p99 " << first.cls[0].p99 << " vs "
                    << step.cls[0].p99 << ")\n";
          ok = false;
        }

        const ClassOut& ic = first.cls[0];
        const ClassOut& bc = first.cls[1];
        t.AddRow({sweep.traffic, policy, FmtRho(rho),
                  TablePrinter::Fmt(sweep.drop, 2),
                  TablePrinter::FmtCount(first.cycles),
                  TablePrinter::FmtCount(ic.admitted + bc.admitted),
                  TablePrinter::FmtCount(ic.shed + bc.shed),
                  TablePrinter::FmtCount(ic.p50), TablePrinter::FmtCount(ic.p99),
                  TablePrinter::FmtCount(ic.p999),
                  TablePrinter::FmtCount(ic.violations),
                  TablePrinter::FmtCount(bc.p99)});

        // Row names keep their historical shape under the default flat
        // gather so BENCH_serving_slo.json stays diffable across commits.
        const std::string row_name =
            sweep.traffic + "." + policy + ".r" + FmtRho(rho) +
            (sweep.drop > 0 ? ".fault" : "") +
            (gather_flag == "flat" ? "" : "." + gather_flag);
        session.AddResult(
            row_name,
            {{"rho", rho},
             {"drop_rate", sweep.drop},
             {"cycles", double(first.cycles)},
             {"offered", double(ic.offered + bc.offered)},
             {"admitted", double(ic.admitted + bc.admitted)},
             {"shed", double(ic.shed + bc.shed)},
             {"interactive_count", double(ic.count)},
             {"interactive_p50", double(ic.p50)},
             {"interactive_p99", double(ic.p99)},
             {"interactive_p999", double(ic.p999)},
             {"interactive_max", double(ic.max)},
             {"interactive_slo_violations", double(ic.violations)},
             {"interactive_degraded", double(ic.degraded)},
             {"batch_count", double(bc.count)},
             {"batch_p50", double(bc.p50)},
             {"batch_p99", double(bc.p99)},
             {"batch_p999", double(bc.p999)},
             {"batch_slo_violations", double(bc.violations)}});
        if (sweep.traffic == "poisson" && sweep.drop == 0) {
          int_p99[policy + "." + FmtRho(rho)] = ic.p99;
        }
      }
    }
  }
  t.Print(std::cout);
  std::cout << "\n(all rows asserted bit-identical between Run() and the "
               "Step() loop, latency histograms included)\n\n";

  // Knee shape: interactive p99 under the blind queue-depth policy must be
  // monotone non-decreasing in offered load.
  for (size_t i = 1; i < loads.size(); ++i) {
    const uint64_t lo = int_p99["qd." + FmtRho(loads[i - 1])];
    const uint64_t hi = int_p99["qd." + FmtRho(loads[i])];
    if (hi < lo) {
      std::cerr << "FAIL: qd interactive p99 fell from " << lo << " to " << hi
                << " between rho " << FmtRho(loads[i - 1]) << " and "
                << FmtRho(loads[i]) << " — the knee curve must not bend down\n";
      ok = false;
    }
  }

  // The thesis: at the overload point the deadline-feasibility policy holds
  // the interactive SLO that queue-depth admission violates.
  const uint64_t qd_p99 = int_p99["qd." + FmtRho(overload)];
  const uint64_t slo_p99 = int_p99["slo." + FmtRho(overload)];
  std::cout << "[crossover] rho " << FmtRho(overload) << ": interactive p99 "
            << qd_p99 << "cy under qd vs " << slo_p99 << "cy under slo (slo "
            << kInteractiveSlo << "cy)\n";
  if (qd_p99 <= kInteractiveSlo) {
    std::cerr << "FAIL: queue-depth admission met the SLO at rho "
              << FmtRho(overload) << " (p99 " << qd_p99
              << ") — overload point too tame to discriminate\n";
    ok = false;
  }
  if (slo_p99 > kInteractiveSlo) {
    std::cerr << "FAIL: deadline-feasibility admission broke the SLO at rho "
              << FmtRho(overload) << " (p99 " << slo_p99 << " > "
              << kInteractiveSlo << ")\n";
    ok = false;
  }
  return ok ? 0 : session.Fail();
}

// The repository's end-to-end benchmark: runs one workload for a given time
// and prints what it measured as one JSON line on stdout. perfbench/run.py
// builds this binary, runs it and attaches the units from BENCHMARK.json;
// see perfbench/README.md for the metrics and the workloads.
//
//   perfbench --workload serve_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 repeats plain iterations (no wrappers) and reports the
// end-to-end metrics. --trace 1 alternates plain and traced iterations and
// reports the per-layer metrics; --spans <file> then writes the fastest
// traced iteration's span records. Every iteration must report bit-identical
// simulated metrics, traced or not.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <serve_mix|anns_fanout|"
               "farview_scan> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n";
  std::exit(2);
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &a.seed)) Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 3600) Usage("bad --seconds");
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) Usage("bad --trace");
      a.trace = static_cast<int>(n);
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

double PeakRssMiB() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// The per-layer metrics a traced run reports, in BENCHMARK.json order.
/// Layers a workload does not exercise report 0.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "sim.run_s",
      "sim.self_s",
      "sim.cycles",
      "serve.door_ticks",
      "serve.door_tick_s",
      "serve.door_useful_frac",
      "serve.ctor_s",
      "serve.synthetic_s",
      "serve.interactive.offered",
      "serve.interactive.shed",
      "serve.interactive.degraded",
      "serve.interactive.slo_violations",
      "serve.interactive.count",
      "serve.batch.offered",
      "serve.batch.shed",
      "serve.batch.degraded",
      "serve.batch.slo_violations",
      "serve.batch.p99_cy",
      "shard.ctor_s",
      "shard.server_busy_frac",
      "shard.server_imbalance",
      "shard.server_queue_hwm",
      "shard.coord_queue_hwm",
      "shard.gather_stall_frac",
      "shard.slices_served",
      "shard.rejected",
      "shard.responses",
      "shard.late_responses",
      "shard.tree_merges",
      "shard.merge_timeouts",
      "net.packets",
      "net.payload_bytes",
      "net.coord_rx_busy_frac",
      "net.wire_bytes",
      "anns.build_s",
      "anns.search_s",
      "anns.search_calls",
      "anns.probe_s",
      "anns.merge_s",
      "anns.codes_scanned",
      "anns.mcodes_per_s",
      "anns.recall_at_10",
      "farview.load_s",
      "memory.dram_bytes",
      "memory.dram_util",
      "memory.scan_gbps",
      "farview.wire_per_dram",
      "farview.node_busy_frac",
      "farview.node_blocked_frac",
      "trace_overhead_frac",
  };
  return names;
}

/// Host-time per-layer metrics of one traced iteration, from its spans.
std::map<std::string, double> SpanMetrics(const Iteration& it) {
  auto total = [&](const char* name) {
    const auto f = it.spans.find(name);
    return f == it.spans.end() ? 0.0 : double(f->second.total_ns) * 1e-9;
  };
  auto count = [&](const char* name) {
    const auto f = it.spans.find(name);
    return f == it.spans.end() ? 0.0 : double(f->second.count);
  };
  std::map<std::string, double> m;
  const auto run = it.spans.find("sim.run");
  if (run != it.spans.end()) {
    m["sim.run_s"] = double(run->second.total_ns) * 1e-9;
    m["sim.self_s"] = double(run->second.self_ns()) * 1e-9;
  }
  m["serve.door_ticks"] = count("serve.door_tick");
  m["serve.door_tick_s"] = total("serve.door_tick");
  const auto busy = it.sim.find("serve.door_busy_cycles");
  if (busy != it.sim.end() && m["serve.door_ticks"] > 0) {
    m["serve.door_useful_frac"] = busy->second / m["serve.door_ticks"];
  }
  m["serve.ctor_s"] = total("serve.ctor");
  m["serve.synthetic_s"] = total("synthetic.serve") + total("synthetic.merge");
  m["shard.ctor_s"] = total("shard.ctor");
  m["anns.build_s"] = total("anns.build");
  m["anns.search_s"] = total("anns.serve");
  m["anns.search_calls"] = count("anns.serve");
  m["anns.probe_s"] = total("anns.scatter");
  m["anns.merge_s"] = total("anns.merge");
  const auto codes = it.sim.find("anns.codes_scanned");
  if (codes != it.sim.end() && m["anns.search_s"] > 0) {
    m["anns.mcodes_per_s"] = codes->second / m["anns.search_s"] / 1e6;
  }
  m["farview.load_s"] = total("farview.load");
  return m;
}

/// Checks the span bookkeeping: each boundary's self time plus the time its
/// children cover is its duration, so the self times of all boundaries add
/// up to the time the top-level boundaries cover.
void CheckSelfTimes(const Tracer& tracer) {
  int64_t self = 0;
  for (const auto& [name, s] : tracer.Summarize()) {
    if (s.child_ns < 0 || s.child_ns > s.total_ns) {
      std::cerr << "perfbench: span " << name << " children cover "
                << s.child_ns << " ns of " << s.total_ns << " ns\n";
      std::exit(1);
    }
    self += s.self_ns();
  }
  if (self != tracer.RootNs()) {
    std::cerr << "perfbench: self times sum to " << self
              << " ns, top-level spans cover " << tracer.RootNs() << " ns\n";
    std::exit(1);
  }
}

std::string Number(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage("unknown workload " + args.workload);
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed
            << ": inputs generated in " << workload->input_s() << " s\n";

  // Iterate until the time is up: at least three plain iterations, or two
  // plain and two traced ones, alternating, under --trace 1.
  const size_t min_each = args.trace == 1 ? 2 : 3;
  std::vector<Iteration> plain, traced;
  size_t fastest_traced = 0;
  Tracer fastest_tracer;  // Spans of traced[fastest_traced].
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    const double elapsed = double(NowNs() - start) * 1e-9;
    const bool enough = plain.size() >= min_each &&
                        (args.trace == 0 || traced.size() >= min_each);
    if (enough && elapsed >= args.seconds) break;
    const bool trace_this = args.trace == 1 && i % 2 == 1;
    if (trace_this) {
      Tracer tracer;
      Iteration it = workload->Run(&tracer);
      CheckSelfTimes(tracer);
      it.spans = tracer.Summarize();
      if (traced.empty() || it.host_s < traced[fastest_traced].host_s) {
        fastest_traced = traced.size();
        fastest_tracer = std::move(tracer);
      }
      traced.push_back(std::move(it));
    } else {
      plain.push_back(workload->Run(nullptr));
    }
    const Iteration& it = trace_this ? traced.back() : plain.back();
    std::cerr << "perfbench: " << (trace_this ? "traced" : "plain")
              << " iteration " << i << ": setup " << it.setup_s << " s, run "
              << it.host_s << " s\n";
  }

  // Every iteration ran the same inputs: its simulated results must match
  // the first one bit for bit, traced or not.
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  const std::map<std::string, double>& sim = plain.front().sim;
  for (const std::vector<Iteration>* set : {&plain, &traced}) {
    for (const Iteration& it : *set) {
      attempted += it.attempted;
      failed += it.failed;
      correct = correct && it.correct;
      if (it.sim != sim) {
        correct = false;
        std::cerr << "perfbench: simulated metrics differ between "
                     "iterations of one seed\n";
        for (const auto& [name, v] : it.sim) {
          const auto f = sim.find(name);
          if (f == sim.end() || f->second != v) {
            std::cerr << "  " << name << ": " << v << " vs "
                      << (f == sim.end() ? -1.0 : f->second) << "\n";
          }
        }
      }
    }
  }

  // Host times are the fastest iteration's. Every iteration repeats
  // bit-identical work, so what differs between them is interference from
  // outside the process; on a shared machine the fastest is the steadiest
  // estimate of the program's own cost.
  double host = plain.front().host_s, setup = plain.front().setup_s;
  for (const Iteration& it : plain) {
    host = std::min(host, it.host_s);
    setup = std::min(setup, it.setup_s);
  }
  std::map<std::string, double> values;
  if (args.trace == 0) {
    values["host_s"] = host;
    values["setup_s"] = setup;
    values["peak_rss_mb"] = PeakRssMiB();
    for (const char* name :
         {"int_p50_cy", "int_p99_cy", "goodput_frac", "sim_qps"}) {
      values[name] = sim.at(name);
    }
  } else {
    for (const std::string& name : PerLayerNames()) values[name] = 0;
    for (const auto& [name, v] : sim) {
      if (values.count(name) != 0) values[name] = v;
    }
    // All span metrics come from one iteration, so each parent equals its
    // self time plus its children in the reported numbers too.
    const Iteration& best = traced[fastest_traced];
    for (const auto& [name, v] : SpanMetrics(best)) values[name] = v;
    if (host > 0) values["trace_overhead_frac"] = best.host_s / host - 1.0;
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      fastest_tracer.Write(out);
      if (!out) {
        std::cerr << "perfbench: cannot write " << args.spans_path << "\n";
        return 1;
      }
    }
  }

  std::cout << "{\"conditions\": " << ConditionsJson()
            << ", \"workload\": \"" << args.workload << "\", \"seed\": "
            << args.seed << ", \"iterations\": " << plain.size() + traced.size()
            << ", \"input_s\": " << Number(workload->input_s()) << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"values\": {";
  bool first = true;
  for (const auto& [name, v] : values) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": " << Number(v);
    first = false;
  }
  std::cout << "}}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// What one iteration of a workload measured. An iteration is the whole
/// life of one deployment: set-up, the simulated phase, and the checks.
struct Iteration {
  /// Host seconds a user pays before the first query (index build, cluster
  /// and front-door construction, table load).
  double setup_s = 0;
  /// Host seconds of the simulated phase.
  double host_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a result differed from its reference.
  bool correct = true;
  /// Simulated metrics and counters. Bit-identical for one seed in every
  /// iteration, traced or not.
  std::map<std::string, double> sim;
  /// Traced iterations only: host time by boundary name.
  std::map<std::string, Tracer::Summary> spans;
};

/// One of the benchmark's workloads with its inputs generated. The
/// constructor makes every input from the seed (corpus, ground truth, table,
/// reference results); Run() then repeats the measured part.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one iteration. With `tracer` set, the program is driven through
  /// the timing wrappers and every boundary lands in the tracer; the
  /// simulated results must not change.
  virtual Iteration Run(Tracer* tracer) = 0;
  /// Host seconds the constructor spent generating inputs.
  double input_s() const { return input_s_; }

 protected:
  double input_s_ = 0;
};

/// The workload names, in the order the docs list them.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload's inputs; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The run conditions every result is recorded with, as one JSON object:
/// the engine defaults the program ships (never overridden here), any
/// FPGADP_ENGINE value, the build type, and the host's CPU count.
std::string ConditionsJson();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

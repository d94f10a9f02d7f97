#ifndef FPGADP_RELATIONAL_FPGA_EXECUTOR_H_
#define FPGADP_RELATIONAL_FPGA_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "src/common/result.h"
#include "src/relational/operators.h"
#include "src/relational/program.h"
#include "src/relational/table.h"

namespace fpgadp::rel {

/// Options for building a simulated operator pipeline.
struct FpgaOptions {
  double clock_hz = 200e6;    ///< Kernel clock.
  uint32_t lanes = 1;         ///< Tuples per cycle on the datapath.
  uint32_t kernel_latency = 4;///< Pipeline depth of each operator stage.
  size_t stream_depth = 8;    ///< FIFO depth between stages.
  uint64_t max_cycles = 1ull << 32;  ///< Simulation watchdog.
};

/// Result of running a pipeline: the output relation plus the timing facts
/// every experiment reports.
struct FpgaRunStats {
  Table output;
  uint64_t cycles = 0;
  double seconds = 0;
  double input_tuples_per_sec = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
};

/// Runs `program` over `input` as a simulated dataflow pipeline: one kernel
/// per operator, connected by depth-`stream_depth` FIFOs, fed by a source at
/// `lanes` tuples/cycle. Each kernel pushes its beats through the Operator
/// ExecuteCpu runs, so the output is ExecuteCpu's, plus cycle-accurate
/// timing. Returns InvalidArgument if `program` cannot run over `input`'s
/// schema (see Program::Validate).
Result<FpgaRunStats> ExecuteFpga(const Program& program, const Table& input,
                                 const FpgaOptions& options = {});

/// Pipelined hash join: the build side is loaded at one tuple/cycle, then
/// the probe side streams through a kernel running HashJoinCpu's JoinProbe
/// at `lanes` tuples/cycle. Build cycles are included in the reported total.
Result<FpgaRunStats> HashJoinFpga(const Table& left, const Table& right,
                                  const JoinSpec& spec,
                                  const FpgaOptions& options = {});

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_FPGA_EXECUTOR_H_

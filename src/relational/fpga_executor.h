#ifndef FPGADP_RELATIONAL_FPGA_EXECUTOR_H_
#define FPGADP_RELATIONAL_FPGA_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::rel {

/// A tuple beat on the datapath: one Row plus the `last` sideband an RTL
/// design carries to signal end-of-stream (what lets aggregation kernels
/// flush without knowing the input cardinality up front).
struct Beat {
  Row row;
  bool eos = false;
};

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

/// A generic streaming operator stage: consumes up to `lanes` beats per
/// cycle (II=1 per lane), hands each to `fn` which appends zero or more
/// output beats, and retires results into the output stream after
/// `latency` cycles at up to `lanes` beats/cycle. Stateful operators
/// (aggregation, group-by, join probe) capture their state in `fn`.
class OpKernel : public sim::Module {
 public:
  using ProcessFn = std::function<void(const Beat&, std::vector<Beat>&)>;

  OpKernel(std::string name, sim::Stream<Beat>* in, sim::Stream<Beat>* out,
           ProcessFn fn, uint32_t lanes = 1, uint32_t latency = 4);

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override { return emit_.empty(); }

  /// Empty emit queue: reactive. Otherwise the front beat retires when its
  /// pipeline latency elapses.
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    if (emit_.empty()) return sim::kNoEventCycle;
    return emit_.front().first > now ? emit_.front().first : now;
  }

  uint64_t consumed() const { return consumed_; }

 protected:
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override {
    // Serial waiting branches: no input and nothing in flight is
    // starvation; beats in the latency shadow are idle (backfilled).
    if (emit_.empty()) {
      MarkStallN(sim::StallKind::kInputStarved, to - from);
    }
  }

 private:
  sim::Stream<Beat>* in_;
  sim::Stream<Beat>* out_;
  ProcessFn fn_;
  uint32_t lanes_;
  uint32_t latency_;
  std::deque<std::pair<sim::Cycle, Beat>> emit_;
  std::vector<Beat> scratch_;
  uint64_t consumed_ = 0;
};

/// Runs `program` over `input` as a simulated dataflow pipeline: one
/// OpKernel per operator, connected by depth-`stream_depth` FIFOs, fed by a
/// source at `lanes` tuples/cycle. Returns output (identical to ExecuteCpu)
/// plus cycle-accurate timing, or InvalidArgument if `program` cannot run
/// over `input`'s schema (see Program::Validate).
Result<FpgaRunStats> ExecuteFpga(const Program& program, const Table& input,
                                 const FpgaOptions& options = {});

/// Pipelined hash join: the build side is loaded at one tuple/cycle, then
/// the probe side streams through a probe kernel at `lanes` tuples/cycle.
/// Build cycles are included in the reported total.
Result<FpgaRunStats> HashJoinFpga(const Table& left, const Table& right,
                                  const JoinSpec& spec,
                                  const FpgaOptions& options = {});

}  // namespace fpgadp::rel

#endif  // FPGADP_RELATIONAL_FPGA_EXECUTOR_H_

#include "src/relational/fpga_executor.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::rel {

namespace {

/// A tuple beat on the datapath: one Row plus the `last` sideband an RTL
/// design carries to signal end-of-stream (what lets aggregation kernels
/// flush without knowing the input cardinality up front).
struct Beat {
  Row row;
  bool eos = false;
};

/// A streaming operator stage: consumes up to `lanes` beats per cycle (II=1
/// per lane), pushes each beat's row through `Stage` (an Operator or a
/// JoinProbe), and retires the rows it emits into the output stream after
/// `latency` cycles at up to `lanes` beats/cycle. The end-of-stream beat
/// calls the stage's Finish, whose rows go out ahead of it. The kernel owns
/// the timing (II, lanes, latency, emit gate); the stage alone decides which
/// rows come out.
template <typename Stage>
class OpKernel : public sim::Module {
 public:
  OpKernel(std::string name, sim::Stream<Beat>* in, sim::Stream<Beat>* out,
           Stage stage, uint32_t lanes, uint32_t latency)
      : sim::Module(std::move(name)), in_(in), out_(out),
        stage_(std::move(stage)), lanes_(lanes), latency_(latency) {
    FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
    FPGADP_CHECK(lanes_ > 0);
    in_->BindConsumer(this);
    out_->BindProducer(this);
  }

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override { return emit_.empty(); }

  /// Empty emit queue: reactive. Otherwise the front beat retires when its
  /// pipeline latency elapses.
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    if (emit_.empty()) return sim::kNoEventCycle;
    return emit_.front().first > now ? emit_.front().first : now;
  }

 protected:
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override {
    // Serial waiting branches: no input and nothing in flight is
    // starvation; beats in the latency shadow are idle (backfilled).
    if (emit_.empty()) {
      MarkStallN(sim::StallKind::kInputStarved, to - from);
    }
  }

 private:
  /// Runs one input beat through the stage; what it emits retires at
  /// `ready`.
  void Issue(const Beat& b, sim::Cycle ready) {
    scratch_.clear();
    if (b.eos) {
      stage_.Finish(scratch_);
    } else {
      stage_.Push(std::span<const Row>(&b.row, 1), scratch_);
    }
    for (const Row& r : scratch_) emit_.emplace_back(ready, Beat{r, false});
    if (b.eos) emit_.emplace_back(ready, b);
  }

  sim::Stream<Beat>* in_;
  sim::Stream<Beat>* out_;
  Stage stage_;
  uint32_t lanes_;
  uint32_t latency_;
  std::deque<std::pair<sim::Cycle, Beat>> emit_;
  std::vector<Row> scratch_;
};

template <typename Stage>
void OpKernel<Stage>::Tick(sim::Cycle cycle) {
  bool progressed = false;
  // Retire ready beats, burst-written per contiguous free run.
  uint32_t retired = 0;
  while (retired < lanes_ && !emit_.empty() && emit_.front().first <= cycle) {
    std::span<Beat> dst = out_->WritableSpan();
    if (dst.empty()) break;  // out FIFO full
    size_t n = 0;
    while (n < dst.size() && retired + n < lanes_ && !emit_.empty() &&
           emit_.front().first <= cycle) {
      dst[n++] = std::move(emit_.front().second);
      emit_.pop_front();
    }
    out_->CommitWrite(n);
    retired += static_cast<uint32_t>(n);
    progressed = progressed || n > 0;
  }
  // Issue new beats, burst-read from the in FIFO. The emit queue is only
  // gated for ordinary traffic; flush bursts (group-by on EOS) may exceed
  // the bound and simply take multiple cycles to drain, which is the honest
  // hardware behaviour. The gate is re-checked per beat because one input
  // beat can emit many (or zero) output beats.
  const size_t gate = static_cast<size_t>(latency_ + 4) * lanes_;
  uint32_t issued = 0;
  while (issued < lanes_ && emit_.size() < gate) {
    std::span<const Beat> src = in_->ReadableSpan();
    if (src.empty()) break;  // starved
    const size_t limit = std::min<size_t>(lanes_ - issued, src.size());
    size_t taken = 0;
    while (taken < limit && emit_.size() < gate) {
      Issue(src[taken++], cycle + latency_);
    }
    in_->ConsumeRead(taken);
    issued += static_cast<uint32_t>(taken);
    progressed = progressed || taken > 0;
    if (taken < limit) break;  // emit gate closed mid-burst
  }
  if (progressed) {
    MarkBusy();
  } else if (!emit_.empty() && emit_.front().first <= cycle &&
             !out_->CanWrite()) {
    MarkStall(sim::StallKind::kOutputBlocked);
  } else if (!in_->CanRead() && emit_.empty()) {
    MarkStall(sim::StallKind::kInputStarved);
  } else {
    MarkStall(sim::StallKind::kIdle);  // beats still in the latency shadow
  }
}

/// Converts a table into the beat sequence fed to a pipeline (rows + EOS).
std::vector<Beat> TableToBeats(const Table& t) {
  std::vector<Beat> beats;
  beats.reserve(t.num_rows() + 1);
  for (const Row& r : t.rows()) beats.push_back(Beat{r, false});
  beats.push_back(Beat{{}, true});
  return beats;
}

/// Runs source -> one kernel per stage -> sink and assembles stats.
template <typename Stage>
Result<FpgaRunStats> RunPipeline(const Table& input, const Schema& out_schema,
                                 std::vector<Stage> stages,
                                 const FpgaOptions& options,
                                 uint64_t extra_cycles) {
  const size_t n_stages = stages.size();
  std::vector<std::unique_ptr<sim::Stream<Beat>>> streams;
  for (size_t i = 0; i <= n_stages; ++i) {
    streams.push_back(std::make_unique<sim::Stream<Beat>>(
        "s" + std::to_string(i), options.stream_depth));
  }
  sim::VectorSource<Beat> source("source", TableToBeats(input),
                                 streams.front().get(), options.lanes);
  std::vector<std::unique_ptr<OpKernel<Stage>>> kernels;
  for (size_t i = 0; i < n_stages; ++i) {
    kernels.push_back(std::make_unique<OpKernel<Stage>>(
        "op" + std::to_string(i), streams[i].get(), streams[i + 1].get(),
        std::move(stages[i]), options.lanes, options.kernel_latency));
  }
  sim::VectorSink<Beat> sink("sink", streams.back().get(), options.lanes);

  sim::Engine engine(options.clock_hz);
  engine.AddModule(&source);
  for (auto& k : kernels) engine.AddModule(k.get());
  engine.AddModule(&sink);
  for (auto& s : streams) engine.AddStream(s.get());

  auto run = engine.Run(options.max_cycles);
  if (!run.ok()) return run.status();

  FpgaRunStats stats;
  stats.output = Table(out_schema);
  for (const Beat& b : sink.collected()) {
    if (!b.eos) stats.output.Append(b.row);
  }
  stats.cycles = run.value() + extra_cycles;
  stats.seconds = CyclesToSeconds(stats.cycles, options.clock_hz);
  stats.input_tuples_per_sec =
      stats.seconds > 0 ? double(input.num_rows()) / stats.seconds : 0;
  stats.input_bytes = input.total_bytes();
  stats.output_bytes = stats.output.total_bytes();
  return stats;
}

}  // namespace

Result<FpgaRunStats> ExecuteFpga(const Program& program, const Table& input,
                                 const FpgaOptions& options) {
  if (options.lanes == 0) {
    return Status::InvalidArgument("lanes must be >= 1");
  }
  FPGADP_RETURN_NOT_OK(program.Validate(input.schema()));
  const Schema out_schema = program.OutputSchema(input.schema());
  // No filter fuses here: every operator is its own stage. An identity
  // program keeps the plumbing uniform with one pass-through stage, a
  // filter with no conjuncts.
  std::vector<Operator> stages;
  for (const OpDesc& op : program.ops) stages.emplace_back(op);
  if (stages.empty()) stages.emplace_back(FilterOp{});
  return RunPipeline(input, out_schema, std::move(stages), options,
                     /*extra_cycles=*/0);
}

Result<FpgaRunStats> HashJoinFpga(const Table& left, const Table& right,
                                  const JoinSpec& spec,
                                  const FpgaOptions& options) {
  Result<Schema> out_schema = JoinSchema(left.schema(), right.schema(), spec);
  if (!out_schema.ok()) return out_schema.status();
  // Build phase: the BRAM hash table fills at one tuple per cycle.
  std::vector<JoinProbe> probe;
  probe.emplace_back(left, right.schema().num_columns(), spec);
  const uint64_t build_cycles = left.num_rows();
  return RunPipeline(right, *out_schema, std::move(probe), options,
                     build_cycles);
}

}  // namespace fpgadp::rel

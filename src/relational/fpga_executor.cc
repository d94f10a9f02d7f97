#include "src/relational/fpga_executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/units.h"
#include "src/relational/agg_state.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"

namespace fpgadp::rel {

OpKernel::OpKernel(std::string name, sim::Stream<Beat>* in,
                   sim::Stream<Beat>* out, ProcessFn fn, uint32_t lanes,
                   uint32_t latency)
    : sim::Module(std::move(name)), in_(in), out_(out), fn_(std::move(fn)),
      lanes_(lanes), latency_(latency) {
  FPGADP_CHECK(in_ != nullptr && out_ != nullptr);
  FPGADP_CHECK(lanes_ > 0);
  in_->BindConsumer(this);
  out_->BindProducer(this);
}

void OpKernel::Tick(sim::Cycle cycle) {
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
      scratch_.clear();
      fn_(src[taken], scratch_);
      ++taken;
      for (Beat& out_beat : scratch_) {
        emit_.emplace_back(cycle + latency_, out_beat);
      }
    }
    in_->ConsumeRead(taken);
    consumed_ += taken;
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

namespace {

/// Builds the ProcessFn implementing one operator descriptor.
OpKernel::ProcessFn MakeOpProcessFn(const OpDesc& op) {
  if (const auto* f = std::get_if<FilterOp>(&op)) {
    FilterOp filter = *f;
    return [filter](const Beat& b, std::vector<Beat>& out) {
      if (b.eos) {
        out.push_back(b);
        return;
      }
      for (const Predicate& p : filter.conjuncts) {
        if (!p.Eval(b.row)) return;
      }
      out.push_back(b);
    };
  }
  if (const auto* p = std::get_if<ProjectOp>(&op)) {
    ProjectOp project = *p;
    return [project](const Beat& b, std::vector<Beat>& out) {
      if (b.eos) {
        out.push_back(b);
        return;
      }
      Beat o;
      for (size_t i = 0; i < project.columns.size(); ++i) {
        o.row.Set(i, b.row.Get(project.columns[i]));
      }
      out.push_back(o);
    };
  }
  if (const auto* a = std::get_if<AggregateOp>(&op)) {
    AggregateOp agg = *a;
    auto state = std::make_shared<AggState>();
    return [agg, state](const Beat& b, std::vector<Beat>& out) {
      if (!b.eos) {
        state->Add(b.row, agg);
        return;
      }
      Beat result;
      state->Finish(agg, result.row, 0);
      out.push_back(result);
      out.push_back(Beat{{}, /*eos=*/true});
    };
  }
  if (const auto* g = std::get_if<GroupByOp>(&op)) {
    auto groups = std::make_shared<std::map<int64_t, AggState>>();
    GroupByOp groupby = *g;
    return [groupby, groups](const Beat& b, std::vector<Beat>& out) {
      if (!b.eos) {
        (*groups)[b.row.Get(groupby.group_column)].Add(b.row, groupby.agg);
        return;
      }
      for (const auto& [key, state] : *groups) {
        Beat r;
        r.row.Set(0, key);
        state.Finish(groupby.agg, r.row, 1);
        out.push_back(r);
      }
      out.push_back(Beat{{}, /*eos=*/true});
    };
  }
  // Top-N: the systolic K-selection queue as a relational operator. One
  // insertion per beat (II=1); the sorted cell line flushes on EOS.
  const auto& t = std::get<TopNOp>(op);
  TopNOp topn = t;
  auto cells = std::make_shared<std::vector<Row>>();
  cells->reserve(topn.n);
  return [topn, cells](const Beat& b, std::vector<Beat>& out) {
    auto key_less = [&topn](const Row& a, const Row& b2) {
      if (topn.is_double) {
        const double ka = a.GetDouble(topn.order_column);
        const double kb = b2.GetDouble(topn.order_column);
        return topn.ascending ? ka < kb : ka > kb;
      }
      const int64_t ka = a.Get(topn.order_column);
      const int64_t kb = b2.Get(topn.order_column);
      return topn.ascending ? ka < kb : ka > kb;
    };
    if (!b.eos) {
      std::vector<Row>& c = *cells;
      if (c.size() < topn.n) {
        c.push_back(b.row);
      } else if (key_less(b.row, c.back())) {
        c.back() = b.row;
      } else {
        return;  // rejected at the tail cell
      }
      // Bubble into place; equal keys never swap => stable.
      for (size_t i = c.size() - 1; i > 0; --i) {
        if (!key_less(c[i], c[i - 1])) break;
        std::swap(c[i], c[i - 1]);
      }
      return;
    }
    for (const Row& r : *cells) out.push_back(Beat{r, false});
    out.push_back(Beat{{}, /*eos=*/true});
  };
}

/// Converts a table into the beat sequence fed to a pipeline (rows + EOS).
std::vector<Beat> TableToBeats(const Table& t) {
  std::vector<Beat> beats;
  beats.reserve(t.num_rows() + 1);
  for (const Row& r : t.rows()) beats.push_back(Beat{r, false});
  beats.push_back(Beat{{}, true});
  return beats;
}

/// Runs source -> kernels -> sink and assembles stats.
Result<FpgaRunStats> RunPipeline(
    const Table& input, const Schema& out_schema,
    const std::vector<OpKernel::ProcessFn>& fns, const FpgaOptions& options,
    uint64_t extra_cycles) {
  const size_t n_stages = fns.size();
  std::vector<std::unique_ptr<sim::Stream<Beat>>> streams;
  for (size_t i = 0; i <= n_stages; ++i) {
    streams.push_back(std::make_unique<sim::Stream<Beat>>(
        "s" + std::to_string(i), options.stream_depth));
  }
  sim::VectorSource<Beat> source("source", TableToBeats(input),
                                 streams.front().get(), options.lanes);
  std::vector<std::unique_ptr<OpKernel>> kernels;
  for (size_t i = 0; i < n_stages; ++i) {
    kernels.push_back(std::make_unique<OpKernel>(
        "op" + std::to_string(i), streams[i].get(), streams[i + 1].get(),
        fns[i], options.lanes, options.kernel_latency));
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
  std::vector<OpKernel::ProcessFn> fns;
  for (const OpDesc& op : program.ops) fns.push_back(MakeOpProcessFn(op));
  if (fns.empty()) {
    // Identity program: a single pass-through stage keeps the plumbing
    // uniform.
    fns.push_back([](const Beat& b, std::vector<Beat>& out) {
      out.push_back(b);
    });
  }
  return RunPipeline(input, out_schema, fns, options, /*extra_cycles=*/0);
}

Result<FpgaRunStats> HashJoinFpga(const Table& left, const Table& right,
                                  const JoinSpec& spec,
                                  const FpgaOptions& options) {
  if (spec.left_key >= left.schema().num_columns()) {
    return Status::InvalidArgument("left join key out of range");
  }
  if (spec.right_key >= right.schema().num_columns()) {
    return Status::InvalidArgument("right join key out of range");
  }
  // Build phase: the BRAM hash table fills at one tuple per cycle.
  auto build = std::make_shared<std::unordered_map<int64_t, Row>>();
  build->reserve(left.num_rows());
  for (const Row& r : left.rows()) (*build)[r.Get(spec.left_key)] = r;
  const uint64_t build_cycles = left.num_rows();

  std::vector<Field> fields = left.schema().fields();
  for (const Field& f : right.schema().fields()) {
    if (fields.size() == kMaxColumns) break;
    fields.push_back(f);
  }
  const Schema out_schema{std::vector<Field>(fields)};
  const size_t left_cols = left.schema().num_columns();
  const size_t right_cols = right.schema().num_columns();
  const JoinSpec s = spec;

  OpKernel::ProcessFn probe = [build, s, left_cols, right_cols](
                                  const Beat& b, std::vector<Beat>& out) {
    if (b.eos) {
      out.push_back(b);
      return;
    }
    auto it = build->find(b.row.Get(s.right_key));
    if (it == build->end()) return;
    Beat joined;
    joined.row = it->second;
    size_t slot = left_cols;
    for (size_t c = 0; c < right_cols && slot < kMaxColumns; ++c, ++slot) {
      joined.row.Set(slot, b.row.Get(c));
    }
    out.push_back(joined);
  };

  return RunPipeline(right, out_schema, {probe}, options, build_cycles);
}

}  // namespace fpgadp::rel

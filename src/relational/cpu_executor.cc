#include "src/relational/cpu_executor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/relational/agg_state.h"

namespace fpgadp::rel {

namespace {

bool Passes(const FilterOp& filter, const Row& r) {
  for (const Predicate& p : filter.conjuncts) {
    if (!p.Eval(r)) return false;
  }
  return true;
}

/// The filter an operator scans under when no filter is fused into it.
const FilterOp kAllRows{};

Schema OutputSchemaOf(const OpDesc& op, const Schema& input) {
  Program helper;
  helper.ops.push_back(op);
  return helper.OutputSchema(input);
}

Table Aggregate(const AggregateOp& op, const Table& input,
                const FilterOp& filter) {
  AggState state;
  for (const Row& r : input.rows()) {
    if (Passes(filter, r)) state.Add(r, op);
  }
  Table out(OutputSchemaOf(op, input.schema()));
  Row result;
  state.Finish(op, result, 0);
  out.Append(result);
  return out;
}

Table GroupBy(const GroupByOp& op, const Table& input, const FilterOp& filter) {
  // Each group adds its rows in input order, as an ordered map would, so
  // every double sum is the same float; only the keys are sorted.
  std::unordered_map<int64_t, AggState> groups;
  for (const Row& r : input.rows()) {
    if (Passes(filter, r)) groups[r.Get(op.group_column)].Add(r, op.agg);
  }
  std::vector<std::pair<int64_t, AggState>> sorted(groups.begin(),
                                                   groups.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Table out(OutputSchemaOf(op, input.schema()));
  out.Reserve(sorted.size());
  for (const auto& [key, state] : sorted) {
    Row r;
    r.Set(0, key);
    state.Finish(op.agg, r, 1);
    out.Append(r);
  }
  return out;
}

template <typename Key>
Table TopNBy(const TopNOp& op, const Table& input, const FilterOp& filter,
             Key (Row::*key_of)(size_t) const) {
  // Rows order by (key, arrival index). The first n rows of a stable sort
  // by key are exactly the n smallest under that order, so a heap of the n
  // best seen so far, sorted at the end, keeps ties in arrival order the
  // way the systolic queue does.
  struct Entry {
    Key key;
    size_t index;
  };
  const auto before = [&op](const Entry& a, const Entry& b) {
    const bool a_first = op.ascending ? a.key < b.key : a.key > b.key;
    const bool b_first = op.ascending ? b.key < a.key : b.key > a.key;
    return a_first || (!b_first && a.index < b.index);
  };
  std::vector<Entry> heap;  // max-heap under `before`: worst kept row on top
  heap.reserve(std::min<size_t>(op.n, input.num_rows()));
  for (size_t i = 0; i < input.num_rows(); ++i) {
    const Row& r = input.row(i);
    if (!Passes(filter, r)) continue;
    const Entry e{(r.*key_of)(op.order_column), i};
    if (heap.size() < op.n) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), before);
    } else if (!heap.empty() && before(e, heap.front())) {  // n > 0
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), before);
  Table out(input.schema());
  out.Reserve(heap.size());
  for (const Entry& e : heap) out.Append(input.row(e.index));
  return out;
}

Table TopN(const TopNOp& op, const Table& input, const FilterOp& filter) {
  return op.is_double ? TopNBy<double>(op, input, filter, &Row::GetDouble)
                      : TopNBy<int64_t>(op, input, filter, &Row::Get);
}

/// True for the operators a directly preceding filter runs inside.
bool ScansUnderFilter(const OpDesc& op) {
  return std::holds_alternative<AggregateOp>(op) ||
         std::holds_alternative<GroupByOp>(op) ||
         std::holds_alternative<TopNOp>(op);
}

}  // namespace

Table FilterCpu(const FilterOp& op, const Table& input) {
  // Survivors append as they are found. Counting them first to reserve the
  // result exactly is faster in isolation, but it changes which heap pages
  // later allocations land on (DESIGN.md, "Relational CPU executor").
  Table out(input.schema());
  for (const Row& r : input.rows()) {
    if (Passes(op, r)) out.Append(r);
  }
  return out;
}

Table ProjectCpu(const ProjectOp& op, const Table& input) {
  std::vector<Field> fields;
  for (uint32_t c : op.columns) fields.push_back(input.schema().field(c));
  Table out(Schema(std::move(fields)));
  out.Reserve(input.num_rows());
  for (const Row& r : input.rows()) {
    Row projected;
    for (size_t i = 0; i < op.columns.size(); ++i) {
      projected.Set(i, r.Get(op.columns[i]));
    }
    out.Append(projected);
  }
  return out;
}

Table AggregateCpu(const AggregateOp& op, const Table& input) {
  return Aggregate(op, input, kAllRows);
}

Table GroupByCpu(const GroupByOp& op, const Table& input) {
  return GroupBy(op, input, kAllRows);
}

Table TopNCpu(const TopNOp& op, const Table& input) {
  return TopN(op, input, kAllRows);
}

Result<Table> ExecuteCpu(const Program& program, const Table& input) {
  FPGADP_RETURN_NOT_OK(program.Validate(input.schema()));
  const std::vector<OpDesc>& ops = program.ops;
  if (ops.empty()) return input;  // identity: the result is a copy
  // The first operator reads `input` in place; only outputs materialize.
  const Table* in = &input;
  Table out;
  for (size_t i = 0; i < ops.size(); ++i) {
    // A filter directly followed by an aggregate, group-by or top-N runs
    // inside that operator's scan instead of materializing its survivors.
    const FilterOp* keep = &kAllRows;
    if (const auto* f = std::get_if<FilterOp>(&ops[i]);
        f != nullptr && i + 1 < ops.size() && ScansUnderFilter(ops[i + 1])) {
      keep = f;
      ++i;
    }
    const OpDesc& op = ops[i];
    if (const auto* f = std::get_if<FilterOp>(&op)) {
      out = FilterCpu(*f, *in);
    } else if (const auto* p = std::get_if<ProjectOp>(&op)) {
      out = ProjectCpu(*p, *in);
    } else if (const auto* a = std::get_if<AggregateOp>(&op)) {
      out = Aggregate(*a, *in, *keep);
    } else if (const auto* g = std::get_if<GroupByOp>(&op)) {
      out = GroupBy(*g, *in, *keep);
    } else {
      out = TopN(std::get<TopNOp>(op), *in, *keep);
    }
    in = &out;
  }
  return out;
}

Result<Table> HashJoinCpu(const Table& left, const Table& right,
                          const JoinSpec& spec) {
  if (spec.left_key >= left.schema().num_columns()) {
    return Status::InvalidArgument("left join key out of range");
  }
  if (spec.right_key >= right.schema().num_columns()) {
    return Status::InvalidArgument("right join key out of range");
  }
  std::vector<Field> fields = left.schema().fields();
  for (const Field& f : right.schema().fields()) {
    if (fields.size() == kMaxColumns) break;
    fields.push_back(f);
  }
  Table out(Schema(std::move(fields)));

  std::unordered_map<int64_t, Row> build;
  build.reserve(left.num_rows());
  for (const Row& r : left.rows()) build[r.Get(spec.left_key)] = r;

  const size_t left_cols = left.schema().num_columns();
  for (const Row& probe : right.rows()) {
    auto it = build.find(probe.Get(spec.right_key));
    if (it == build.end()) continue;
    Row joined = it->second;
    size_t slot = left_cols;
    for (size_t c = 0; c < right.schema().num_columns() && slot < kMaxColumns;
         ++c, ++slot) {
      joined.Set(slot, probe.Get(c));
    }
    out.Append(joined);
  }
  return out;
}

}  // namespace fpgadp::rel

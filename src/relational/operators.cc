#include "src/relational/operators.h"

#include <algorithm>
#include <utility>

namespace fpgadp::rel {

namespace {

bool Passes(const FilterOp& filter, const Row& r) {
  for (const Predicate& p : filter.conjuncts) {
    if (!p.Eval(r)) return false;
  }
  return true;
}

/// True if row `a`'s order key comes strictly before row `b`'s.
bool KeyBefore(const TopNOp& op, const Row& a, const Row& b) {
  const uint32_t c = op.order_column;
  if (op.is_double) {
    return op.ascending ? a.GetDouble(c) < b.GetDouble(c)
                        : a.GetDouble(c) > b.GetDouble(c);
  }
  return op.ascending ? a.Get(c) < b.Get(c) : a.Get(c) > b.Get(c);
}

/// Orders kept top-N rows by (key, arrival index). The first n rows of a
/// stable sort by key are exactly the n smallest under that order.
auto RankBefore(const TopNOp& op) {
  return [&op](const auto& a, const auto& b) {
    return KeyBefore(op, a.row, b.row) ||
           (!KeyBefore(op, b.row, a.row) && a.index < b.index);
  };
}

}  // namespace

void Operator::AggState::Add(const Row& row, const AggregateOp& op) {
  ++count;
  if (op.kind == AggKind::kCount) return;
  if (op.is_double) {
    const double v = row.GetDouble(op.column);
    dsum += v;
    dmin = std::min(dmin, v);
    dmax = std::max(dmax, v);
  } else {
    const int64_t v = row.Get(op.column);
    isum += v;
    imin = std::min(imin, v);
    imax = std::max(imax, v);
  }
}

void Operator::AggState::Finish(const AggregateOp& op, Row& out,
                                size_t slot) const {
  switch (op.kind) {
    case AggKind::kSum:
      if (op.is_double) out.SetDouble(slot, dsum);
      else out.Set(slot, isum);
      break;
    case AggKind::kMin:
      if (op.is_double) out.SetDouble(slot, dmin);
      else out.Set(slot, imin);
      break;
    case AggKind::kMax:
      if (op.is_double) out.SetDouble(slot, dmax);
      else out.Set(slot, imax);
      break;
    case AggKind::kCount:
      out.Set(slot, static_cast<int64_t>(count));
      break;
    case AggKind::kAvg: {
      const double total = op.is_double ? dsum : static_cast<double>(isum);
      out.SetDouble(slot, count == 0 ? 0.0 : total / double(count));
      break;
    }
  }
}

Operator::Operator(OpDesc op, FilterOp fused)
    : op_(std::move(op)), fused_(std::move(fused)) {}

void Operator::Push(std::span<const Row> rows, std::vector<Row>& out) {
  if (const auto* f = std::get_if<FilterOp>(&op_)) {
    // Survivors append as they are found. Counting them first to reserve
    // the result exactly is faster in isolation, but it changes which heap
    // pages later allocations land on (DESIGN.md, "Relational operators").
    for (const Row& r : rows) {
      if (Passes(*f, r)) out.push_back(r);
    }
  } else if (const auto* p = std::get_if<ProjectOp>(&op_)) {
    out.reserve(out.size() + rows.size());
    for (const Row& r : rows) {
      Row projected;
      for (size_t i = 0; i < p->columns.size(); ++i) {
        projected.Set(i, r.Get(p->columns[i]));
      }
      out.push_back(projected);
    }
  } else if (const auto* a = std::get_if<AggregateOp>(&op_)) {
    AggState total = total_;  // a local stays in registers across the loop
    for (const Row& r : rows) {
      if (Passes(fused_, r)) total.Add(r, *a);
    }
    total_ = total;
  } else if (const auto* g = std::get_if<GroupByOp>(&op_)) {
    // Each group adds its rows in arrival order, so every double sum is the
    // same float whichever way the groups are stored.
    for (const Row& r : rows) {
      if (Passes(fused_, r)) groups_[r.Get(g->group_column)].Add(r, g->agg);
    }
  } else {
    PushTopN(std::get<TopNOp>(op_), rows);
  }
  arrivals_ += rows.size();
}

void Operator::PushTopN(const TopNOp& op, std::span<const Row> rows) {
  // A max-heap under RankBefore keeps the n best rows seen so far, worst on
  // top. A later row ranks after every kept row of equal key, so it
  // replaces the worst only when its key is strictly better: ties keep
  // arrival order.
  const auto before = RankBefore(op);
  std::vector<Ranked> heap = std::move(heap_);
  if (heap.capacity() == 0) heap.reserve(std::min<size_t>(op.n, rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (!Passes(fused_, r)) continue;
    if (heap.size() < op.n) {
      heap.push_back(Ranked{r, arrivals_ + i});
      std::push_heap(heap.begin(), heap.end(), before);
    } else if (!heap.empty() && KeyBefore(op, r, heap.front().row)) {
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = Ranked{r, arrivals_ + i};
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  heap_ = std::move(heap);
}

void Operator::Finish(std::vector<Row>& out) {
  if (const auto* a = std::get_if<AggregateOp>(&op_)) {
    Row result;
    total_.Finish(*a, result, 0);
    out.push_back(result);
  } else if (const auto* g = std::get_if<GroupByOp>(&op_)) {
    std::vector<std::pair<int64_t, AggState>> sorted(groups_.begin(),
                                                     groups_.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    out.reserve(out.size() + sorted.size());
    for (const auto& [key, state] : sorted) {
      Row r;
      r.Set(0, key);
      state.Finish(g->agg, r, 1);
      out.push_back(r);
    }
  } else if (const auto* t = std::get_if<TopNOp>(&op_)) {
    std::sort_heap(heap_.begin(), heap_.end(), RankBefore(*t));
    out.reserve(out.size() + heap_.size());
    for (const Ranked& e : heap_) out.push_back(e.row);
  }
}

namespace {

/// True for the operators a directly preceding filter runs inside.
bool ScansUnderFilter(const OpDesc& op) {
  return std::holds_alternative<AggregateOp>(op) ||
         std::holds_alternative<GroupByOp>(op) ||
         std::holds_alternative<TopNOp>(op);
}

}  // namespace

Pipeline::Pipeline(const Program& program) {
  const std::vector<OpDesc>& ops = program.ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    FilterOp fused;
    if (const auto* f = std::get_if<FilterOp>(&ops[i]);
        f != nullptr && i + 1 < ops.size() && ScansUnderFilter(ops[i + 1])) {
      fused = *f;
      ++i;
    }
    stages_.emplace_back(ops[i], std::move(fused));
  }
  if (!stages_.empty()) between_.resize(stages_.size() - 1);
}

void Pipeline::PushFrom(size_t first, std::span<const Row> rows,
                        std::vector<Row>& out) {
  if (first == stages_.size()) {
    out.insert(out.end(), rows.begin(), rows.end());
    return;
  }
  for (size_t i = first; i + 1 < stages_.size(); ++i) {
    between_[i].clear();
    stages_[i].Push(rows, between_[i]);
    rows = between_[i];
  }
  stages_.back().Push(rows, out);
}

void Pipeline::Push(std::span<const Row> rows, std::vector<Row>& out) {
  PushFrom(0, rows, out);
}

void Pipeline::Finish(std::vector<Row>& out) {
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i + 1 == stages_.size()) {
      stages_[i].Finish(out);
    } else {
      between_[i].clear();
      stages_[i].Finish(between_[i]);
      PushFrom(i + 1, between_[i], out);
    }
  }
}

Result<Schema> JoinSchema(const Schema& left, const Schema& right,
                          const JoinSpec& spec) {
  if (spec.left_key >= left.num_columns()) {
    return Status::InvalidArgument("left join key out of range");
  }
  if (spec.right_key >= right.num_columns()) {
    return Status::InvalidArgument("right join key out of range");
  }
  std::vector<Field> fields = left.fields();
  for (const Field& f : right.fields()) {
    if (fields.size() == kMaxColumns) break;
    fields.push_back(f);
  }
  return Schema(std::move(fields));
}

JoinProbe::JoinProbe(const Table& left, size_t right_columns,
                     const JoinSpec& spec)
    : spec_(spec),
      left_columns_(left.schema().num_columns()),
      right_columns_(right_columns) {
  build_.reserve(left.num_rows());
  for (const Row& r : left.rows()) build_[r.Get(spec.left_key)] = r;
}

void JoinProbe::Push(std::span<const Row> rows, std::vector<Row>& out) {
  for (const Row& probe : rows) {
    auto it = build_.find(probe.Get(spec_.right_key));
    if (it == build_.end()) continue;
    Row joined = it->second;
    size_t slot = left_columns_;
    for (size_t c = 0; c < right_columns_ && slot < kMaxColumns; ++c, ++slot) {
      joined.Set(slot, probe.Get(c));
    }
    out.push_back(joined);
  }
}

}  // namespace fpgadp::rel

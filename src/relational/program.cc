#include "src/relational/program.h"

#include <utility>

#include "src/common/result.h"

namespace fpgadp::rel {

namespace {
const char* AggName(AggKind k) {
  switch (k) {
    case AggKind::kSum: return "sum";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kCount: return "count";
    case AggKind::kAvg: return "avg";
  }
  return "?";
}
}  // namespace

std::string Program::ToString() const {
  std::string out;
  for (const OpDesc& op : ops) {
    if (!out.empty()) out += "|";
    if (std::holds_alternative<FilterOp>(op)) {
      out += "filter";
    } else if (std::holds_alternative<ProjectOp>(op)) {
      out += "project";
    } else if (std::holds_alternative<AggregateOp>(op)) {
      out += std::string("agg(") + AggName(std::get<AggregateOp>(op).kind) + ")";
    } else if (std::holds_alternative<GroupByOp>(op)) {
      out += std::string("groupby(") + AggName(std::get<GroupByOp>(op).agg.kind) + ")";
    } else {
      out += "topn(" + std::to_string(std::get<TopNOp>(op).n) + ")";
    }
  }
  return out.empty() ? "identity" : out;
}

namespace {

/// Type of `agg`'s result over `input`. Only sum, min and max read the
/// column's type.
ColumnType AggType(const AggregateOp& agg, const Schema& input) {
  if (agg.kind == AggKind::kCount) return ColumnType::kInt64;
  if (agg.kind == AggKind::kAvg) return ColumnType::kDouble;
  return input.field(agg.column).type;
}

/// The schema `ops` produce from `input`, or InvalidArgument naming the
/// first operator that cannot run over its input.
Result<Schema> DeriveSchema(const std::vector<OpDesc>& ops,
                            const Schema& input) {
  Schema current = input;
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t cols = current.num_columns();
    const auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("op " + std::to_string(i) + ": " + what +
                                     " (input has " + std::to_string(cols) +
                                     " columns)");
    };
    const OpDesc& op = ops[i];
    if (const auto* f = std::get_if<FilterOp>(&op)) {
      for (const Predicate& p : f->conjuncts) {
        if (p.column >= cols) {
          return bad("filter column " + std::to_string(p.column) +
                     " out of range");
        }
      }
      // Filter preserves schema.
    } else if (const auto* pr = std::get_if<ProjectOp>(&op)) {
      if (pr->columns.size() > kMaxColumns) {
        return bad("project keeps more than " + std::to_string(kMaxColumns) +
                   " columns");
      }
      std::vector<Field> fields;
      for (uint32_t c : pr->columns) {
        if (c >= cols) {
          return bad("project column " + std::to_string(c) + " out of range");
        }
        fields.push_back(current.field(c));
      }
      current = Schema(std::move(fields));
    } else if (const auto* a = std::get_if<AggregateOp>(&op)) {
      if (a->column >= cols && a->kind != AggKind::kCount) {
        return bad("aggregate column " + std::to_string(a->column) +
                   " out of range");
      }
      current = Schema({{std::string(AggName(a->kind)), AggType(*a, current)}});
    } else if (const auto* g = std::get_if<GroupByOp>(&op)) {
      if (g->group_column >= cols) {
        return bad("group-by column " + std::to_string(g->group_column) +
                   " out of range");
      }
      if (g->agg.column >= cols && g->agg.kind != AggKind::kCount) {
        return bad("group-by aggregate column " +
                   std::to_string(g->agg.column) + " out of range");
      }
      current = Schema({current.field(g->group_column),
                        {std::string(AggName(g->agg.kind)),
                         AggType(g->agg, current)}});
    } else if (const auto* t = std::get_if<TopNOp>(&op)) {
      if (t->order_column >= cols) {
        return bad("top-n order column " + std::to_string(t->order_column) +
                   " out of range");
      }
      if (t->n == 0) return bad("top-n keeps no rows (n == 0)");
      // Top-N preserves the schema.
    }
  }
  return current;
}
}  // namespace

Status Program::Validate(const Schema& input) const {
  return DeriveSchema(ops, input).status();
}

Schema Program::OutputSchema(const Schema& input) const {
  Result<Schema> out = DeriveSchema(ops, input);
  FPGADP_CHECK_OK(out.status());
  return std::move(out).value();
}

}  // namespace fpgadp::rel

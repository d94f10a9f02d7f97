#include "src/relational/cpu_executor.h"

#include <utility>
#include <vector>

namespace fpgadp::rel {

namespace {

/// True for the operators a directly preceding filter runs inside.
bool ScansUnderFilter(const OpDesc& op) {
  return std::holds_alternative<AggregateOp>(op) ||
         std::holds_alternative<GroupByOp>(op) ||
         std::holds_alternative<TopNOp>(op);
}

}  // namespace

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
    FilterOp fused;
    if (const auto* f = std::get_if<FilterOp>(&ops[i]);
        f != nullptr && i + 1 < ops.size() && ScansUnderFilter(ops[i + 1])) {
      fused = *f;
      ++i;
    }
    Operator op(ops[i], std::move(fused));
    Table next(Program{{ops[i]}}.OutputSchema(in->schema()));
    op.Push(in->rows(), next.rows());
    op.Finish(next.rows());
    out = std::move(next);
    in = &out;
  }
  return out;
}

Result<Table> HashJoinCpu(const Table& left, const Table& right,
                          const JoinSpec& spec) {
  Result<Schema> schema = JoinSchema(left.schema(), right.schema(), spec);
  if (!schema.ok()) return schema.status();
  Table out(std::move(schema).value());
  JoinProbe probe(left, right.schema().num_columns(), spec);
  probe.Push(right.rows(), out.rows());
  return out;
}

}  // namespace fpgadp::rel

#include "src/relational/cpu_executor.h"

#include <utility>

namespace fpgadp::rel {

Result<Table> ExecuteCpu(const Program& program, const Table& input) {
  FPGADP_RETURN_NOT_OK(program.Validate(input.schema()));
  if (program.ops.empty()) return input;  // identity: the result is a copy
  // The first stage reads `input` in place; only stage outputs materialize.
  Table out(program.OutputSchema(input.schema()));
  Pipeline pipeline(program);
  pipeline.Push(input.rows(), out.rows());
  pipeline.Finish(out.rows());
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

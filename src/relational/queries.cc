#include "src/relational/queries.h"

namespace fpgadp::rel {

Program MakeQ1Lite() {
  GroupByOp g;
  g.group_column = 2;  // cat
  g.agg = AggregateOp{AggKind::kSum, 4, false};  // sum(qty)
  return Program{{g}};
}

Program MakeQ6Lite(double price_lo, double price_hi, int64_t max_qty) {
  FilterOp f;
  Predicate lo;
  lo.column = 3;
  lo.op = CmpOp::kGe;
  lo.dvalue = price_lo;
  lo.is_double = true;
  Predicate hi;
  hi.column = 3;
  hi.op = CmpOp::kLt;
  hi.dvalue = price_hi;
  hi.is_double = true;
  f.conjuncts.push_back(lo);
  f.conjuncts.push_back(hi);
  f.conjuncts.push_back(Predicate{4, CmpOp::kLt, max_qty});
  return Program{{f, AggregateOp{AggKind::kSum, 3, true}}};  // sum(price)
}

Program MakeTopExpensive(int64_t min_qty, uint32_t n) {
  FilterOp f;
  f.conjuncts.push_back(Predicate{4, CmpOp::kGe, min_qty});
  TopNOp top;
  top.order_column = 3;
  top.is_double = true;
  top.ascending = false;
  top.n = n;
  return Program{{f, top}};
}

}  // namespace fpgadp::rel

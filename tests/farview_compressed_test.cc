#include <gtest/gtest.h>

#include "src/farview/farview.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/table.h"

namespace fpgadp::farview {
namespace {

/// A highly compressible table: few distinct values in every column.
rel::Table CompressibleTable(uint64_t rows) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = rows;
  spec.key_cardinality = 4;   // tiny alphabets compress well
  spec.num_categories = 2;
  spec.seed = 33;
  rel::Table t = rel::MakeSyntheticTable(spec);
  // Flatten the incompressible columns (ids, random doubles).
  for (size_t i = 0; i < t.num_rows(); ++i) {
    t.row(i).Set(0, 7);
    t.row(i).SetDouble(3, 10.0);
    t.row(i).Set(4, int64_t(i % 4));
  }
  return t;
}

rel::Program CountProgram() {
  return rel::Program{{rel::AggregateOp{rel::AggKind::kCount, 0, false}}};
}

TEST(SerializeRowsTest, RoundTrips) {
  rel::Table t = CompressibleTable(100);
  const auto bytes = rel::SerializeRows(t);
  EXPECT_EQ(bytes.size(), t.total_bytes());
  auto back = rel::DeserializeRows(t.schema(), bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(back->row(i), t.row(i));
  }
}

TEST(SerializeRowsTest, RejectsPartialRows) {
  rel::Table t = CompressibleTable(3);
  auto bytes = rel::SerializeRows(t);
  bytes.pop_back();
  EXPECT_FALSE(rel::DeserializeRows(t.schema(), bytes).ok());
}

TEST(FarviewCompressedTest, StoredBytesShrink) {
  FarviewSystem sys;
  rel::Table t = CompressibleTable(20000);
  const uint64_t raw = sys.LoadTable(t);
  const uint64_t packed = sys.LoadTableCompressed(t);
  auto& node = sys.memory_node();
  EXPECT_EQ(node.table_stored_bytes(raw), t.total_bytes());
  EXPECT_LT(node.table_stored_bytes(packed), t.total_bytes() / 3)
      << "compressible data should shrink >3x";
  EXPECT_TRUE(node.table_is_compressed(packed));
  EXPECT_FALSE(node.table_is_compressed(raw));
}

TEST(FarviewCompressedTest, OffloadResultIdentical) {
  FarviewSystem sys;
  rel::Table t = CompressibleTable(5000);
  const uint64_t packed = sys.LoadTableCompressed(t);
  rel::Program prog;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kEq, 1});
  prog.ops.push_back(f);
  const uint64_t pid = sys.RegisterProgram(prog);
  auto stats = sys.RunOffloaded(packed, pid);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto expected = rel::ExecuteCpu(prog, t);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(stats->result.num_rows(), expected->num_rows());
  for (size_t i = 0; i < expected->num_rows(); ++i) {
    EXPECT_EQ(stats->result.row(i), expected->row(i));
  }
}

TEST(FarviewCompressedTest, CompressedScanIsFaster) {
  // The count query is scan-bound, so reading 5x fewer DRAM bytes should
  // show up directly in the offload time.
  FarviewSystem sys;
  rel::Table t = CompressibleTable(100000);
  const uint64_t raw = sys.LoadTable(t);
  const uint64_t packed = sys.LoadTableCompressed(t);
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  auto s_raw = sys.RunOffloaded(raw, pid);
  auto s_packed = sys.RunOffloaded(packed, pid);
  ASSERT_TRUE(s_raw.ok() && s_packed.ok());
  EXPECT_EQ(s_packed->result.row(0).Get(0), 100000);
  EXPECT_LT(s_packed->dram_bytes, s_raw->dram_bytes / 2);
  EXPECT_LT(s_packed->seconds, s_raw->seconds);
}

TEST(FarviewCompressedTest, FetchAllPaysCpuDecompression) {
  FarviewSystem sys;
  rel::Table t = CompressibleTable(20000);
  const uint64_t raw = sys.LoadTable(t);
  const uint64_t packed = sys.LoadTableCompressed(t);
  const uint64_t pid = sys.RegisterProgram(CountProgram());
  auto f_raw = sys.RunFetchAll(raw, pid);
  auto f_packed = sys.RunFetchAll(packed, pid);
  ASSERT_TRUE(f_raw.ok() && f_packed.ok());
  // Compressed fetch moves fewer wire bytes but pays software inflate.
  EXPECT_LT(f_packed->wire_bytes, f_raw->wire_bytes);
  EXPECT_GT(f_packed->cpu_seconds, f_raw->cpu_seconds);
}

}  // namespace
}  // namespace fpgadp::farview

#include "src/anns/ivf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "src/anns/dataset.h"
#include "src/anns/kmeans.h"
#include "src/anns/pq.h"
#include "src/common/parallel.h"
#include "src/common/random.h"

namespace fpgadp::anns {
namespace {

DatasetSpec SmallSpec() {
  DatasetSpec spec;
  spec.num_base = 2000;
  spec.num_queries = 20;
  spec.dim = 16;
  spec.num_clusters = 8;
  spec.ground_truth_k = 10;
  spec.seed = 51;
  return spec;
}

IvfPqIndex::Options SmallIndexOptions() {
  IvfPqIndex::Options opts;
  opts.nlist = 16;
  opts.pq.m = 4;
  opts.pq.ksub = 32;
  opts.pq.train_iters = 6;
  return opts;
}

TEST(DatasetTest, GroundTruthIsSortedByDistance) {
  Dataset data = MakeDataset(SmallSpec());
  ASSERT_EQ(data.num_queries(), 20u);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto& gt = data.ground_truth[q];
    ASSERT_EQ(gt.size(), 10u);
    float prev = -1;
    for (uint32_t id : gt) {
      const float d = SquaredL2(data.BaseVector(id), data.QueryVector(q),
                                data.dim);
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(DatasetTest, QueriesAreNotBaseVectors) {
  Dataset data = MakeDataset(SmallSpec());
  // The pool split must not duplicate base vectors into the query set.
  for (size_t q = 0; q < 5; ++q) {
    const float d0 = SquaredL2(data.QueryVector(q),
                               data.BaseVector(data.ground_truth[q][0]),
                               data.dim);
    EXPECT_GT(d0, 0.0f);
  }
}

TEST(RecallTest, Boundaries) {
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2, 3}, {1, 2, 3}, 3), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({9, 8, 7}, {1, 2, 3}, 3), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({1, 9, 8}, {1, 2, 3}, 3), 1.0 / 3.0);
  // Order within top-k doesn't matter.
  EXPECT_DOUBLE_EQ(RecallAtK({3, 1, 2}, {1, 2, 3}, 3), 1.0);
}

TEST(KMeansTest, RejectsBadInput) {
  std::vector<float> pts(10 * 4);
  EXPECT_FALSE(KMeans(pts, 3, {}).ok());  // size not multiple of dim
  KMeansOptions opts;
  opts.k = 100;
  EXPECT_FALSE(KMeans(pts, 4, opts).ok());  // fewer points than k
}

TEST(KMeansTest, PartitionsWellSeparatedClusters) {
  // Three tight clusters around distinct corners.
  std::vector<float> pts;
  Dataset dummy;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      pts.push_back(float(c * 10) + 0.01f * float(i % 5));
      pts.push_back(float(c * 10));
    }
  }
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iters = 20;
  auto res = KMeans(pts, 2, opts);
  ASSERT_TRUE(res.ok());
  // All points in the same tight cluster share an assignment.
  for (int c = 0; c < 3; ++c) {
    const uint32_t a0 = res->assignment[c * 50];
    for (int i = 1; i < 50; ++i) {
      EXPECT_EQ(res->assignment[c * 50 + i], a0);
    }
  }
  EXPECT_LT(res->inertia, 1.0);
}

TEST(KMeansTest, InertiaDecreasesWithIterations) {
  Dataset data = MakeDataset(SmallSpec());
  KMeansOptions one;
  one.k = 8;
  one.max_iters = 1;
  KMeansOptions many = one;
  many.max_iters = 15;
  auto r1 = KMeans(data.base, data.dim, one);
  auto r2 = KMeans(data.base, data.dim, many);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LE(r2->inertia, r1->inertia);
}

TEST(PqTest, RejectsBadOptions) {
  std::vector<float> pts(1000 * 16);
  ProductQuantizer::Options bad_m;
  bad_m.m = 3;  // 16 % 3 != 0
  EXPECT_FALSE(ProductQuantizer::Train(pts, 16, bad_m).ok());
  ProductQuantizer::Options big_ksub;
  big_ksub.ksub = 300;
  EXPECT_FALSE(ProductQuantizer::Train(pts, 16, big_ksub).ok());
}

TEST(PqTest, EncodeDecodeReducesError) {
  Dataset data = MakeDataset(SmallSpec());
  ProductQuantizer::Options opts;
  opts.m = 4;
  opts.ksub = 64;
  auto pq = ProductQuantizer::Train(data.base, data.dim, opts);
  ASSERT_TRUE(pq.ok());
  // Quantization error must be far below the data scale for clustered data.
  double err = 0, norm = 0;
  for (size_t i = 0; i < 100; ++i) {
    const float* v = data.BaseVector(i);
    const auto codes = pq->Encode(v);
    ASSERT_EQ(codes.size(), 4u);
    const auto rec = pq->Decode(codes.data());
    err += SquaredL2(v, rec.data(), data.dim);
    norm += SquaredL2(v, std::vector<float>(data.dim, 0.0f).data(), data.dim);
  }
  EXPECT_LT(err, 0.2 * norm);
}

TEST(PqTest, AdcMatchesDecodedDistance) {
  // ADC(lut, codes) must equal the exact distance between the query and the
  // decoded vector (that's the algebra of the lookup table).
  Dataset data = MakeDataset(SmallSpec());
  ProductQuantizer::Options opts;
  opts.m = 4;
  opts.ksub = 32;
  auto pq = ProductQuantizer::Train(data.base, data.dim, opts);
  ASSERT_TRUE(pq.ok());
  const float* query = data.QueryVector(0);
  const auto lut = pq->BuildLut(query);
  for (size_t i = 0; i < 50; ++i) {
    const auto codes = pq->Encode(data.BaseVector(i));
    const auto decoded = pq->Decode(codes.data());
    const float exact = SquaredL2(query, decoded.data(), data.dim);
    const float adc = pq->AdcDistance(lut, codes.data());
    EXPECT_NEAR(adc, exact, 1e-3f);
  }
}

TEST(IvfTest, BuildPartitionsEverything) {
  Dataset data = MakeDataset(SmallSpec());
  auto index = IvfPqIndex::Build(data.base, data.dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->total_codes(), data.num_base());
  uint64_t sum = 0;
  std::vector<bool> seen(data.num_base(), false);
  for (size_t l = 0; l < index->nlist(); ++l) {
    const auto& list = index->list(l);
    EXPECT_EQ(list.codes.size(), list.ids.size() * index->pq().m());
    sum += list.ids.size();
    for (uint32_t id : list.ids) {
      EXPECT_FALSE(seen[id]) << "vector assigned twice";
      seen[id] = true;
    }
  }
  EXPECT_EQ(sum, data.num_base());
}

double MeasureRecall(const Dataset& data, const IvfPqIndex& index,
                     size_t nprobe, size_t k = 10) {
  IvfPqIndex::SearchParams params;
  params.nprobe = nprobe;
  params.k = k;
  double recall = 0;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto found = index.Search(data.QueryVector(q), params);
    std::vector<uint32_t> ids;
    for (const auto& nb : found) ids.push_back(nb.id);
    recall += RecallAtK(ids, data.ground_truth[q], k);
  }
  return recall / double(data.num_queries());
}

TEST(IvfTest, FullProbeRecallIsHighWithFinePq) {
  Dataset data = MakeDataset(SmallSpec());
  IvfPqIndex::Options opts = SmallIndexOptions();
  opts.pq.m = 8;     // 8 bytes per 16-dim vector: fine quantization
  opts.pq.ksub = 64;
  auto index = IvfPqIndex::Build(data.base, data.dim, opts);
  ASSERT_TRUE(index.ok());
  // Exhaustive probing: only PQ error remains.
  EXPECT_GT(MeasureRecall(data, *index, index->nlist()), 0.8);
}

TEST(IvfTest, LargerPqBudgetImprovesRecall) {
  Dataset data = MakeDataset(SmallSpec());
  IvfPqIndex::Options coarse = SmallIndexOptions();  // m=4, ksub=32
  IvfPqIndex::Options fine = SmallIndexOptions();
  fine.pq.m = 8;
  fine.pq.ksub = 64;
  auto ci = IvfPqIndex::Build(data.base, data.dim, coarse);
  auto fi = IvfPqIndex::Build(data.base, data.dim, fine);
  ASSERT_TRUE(ci.ok() && fi.ok());
  EXPECT_GT(MeasureRecall(data, *fi, ci->nlist()),
            MeasureRecall(data, *ci, ci->nlist()));
}

TEST(IvfTest, RecallGrowsWithNprobe) {
  Dataset data = MakeDataset(SmallSpec());
  auto index = IvfPqIndex::Build(data.base, data.dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  auto recall_at = [&](size_t nprobe) {
    IvfPqIndex::SearchParams params;
    params.nprobe = nprobe;
    params.k = 10;
    double recall = 0;
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const auto found = index->Search(data.QueryVector(q), params);
      std::vector<uint32_t> ids;
      for (const auto& nb : found) ids.push_back(nb.id);
      recall += RecallAtK(ids, data.ground_truth[q], 10);
    }
    return recall / double(data.num_queries());
  };
  const double r1 = recall_at(1);
  const double r4 = recall_at(4);
  const double r16 = recall_at(16);
  EXPECT_LE(r1, r4 + 1e-9);
  EXPECT_LE(r4, r16 + 1e-9);
  EXPECT_GT(r16, r1);
}

TEST(IvfTest, ResultsSortedByDistance) {
  Dataset data = MakeDataset(SmallSpec());
  auto index = IvfPqIndex::Build(data.base, data.dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  IvfPqIndex::SearchParams params;
  params.nprobe = 8;
  params.k = 10;
  const auto found = index->Search(data.QueryVector(0), params);
  for (size_t i = 1; i < found.size(); ++i) {
    EXPECT_LE(found[i - 1].distance, found[i].distance);
  }
}

TEST(IvfTest, CodesScannedMatchesProbedListSizes) {
  Dataset data = MakeDataset(SmallSpec());
  auto index = IvfPqIndex::Build(data.base, data.dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  const float* query = data.QueryVector(3);
  const auto probes = index->SelectProbes(query, 4);
  uint64_t expect = 0;
  for (uint32_t p : probes) expect += index->list(p).ids.size();
  EXPECT_EQ(index->CodesScanned(query, 4), expect);
}

TEST(IvfTest, IndexBytesAccountsCodesAndIds) {
  Dataset data = MakeDataset(SmallSpec());
  auto index = IvfPqIndex::Build(data.base, data.dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  const uint64_t expected = data.num_base() * (4 + 4) /* m + id */ +
                            index->nlist() * data.dim * sizeof(float);
  EXPECT_EQ(index->index_bytes(), expected);
}

// --- CentroidTable: bit-exact against the scalar SquaredL2 ---------------
//
// These tests lock the kernel's bit-exactness: a change that reassociates
// the per-lane sum, contracts it into FMAs, or splits a lane across
// dimensions fails them.

std::vector<float> RandomFloats(Rng& rng, size_t count) {
  std::vector<float> v(count);
  for (float& x : v) x = float(rng.NextDouble() * 8.0 - 4.0);
  return v;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

/// The scalar nearest-centroid scan the table replaces: strict `<` from
/// infinity in index order.
uint32_t ScalarNearest(const float* centroids, size_t k, size_t dim, const float* v) {
  uint32_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < k; ++c) {
    const float d = SquaredL2(centroids + c * dim, v, dim);
    if (d < best_d) {
      best_d = d;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

TEST(CentroidTableTest, DistancesEqualSquaredL2Bitwise) {
  Rng rng(77);
  for (size_t dim : {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 67}) {
    for (size_t k : {1, 7, 8, 9, 32, 33, 64, 256}) {
      const std::vector<float> centroids = RandomFloats(rng, k * dim);
      const CentroidTable table(centroids.data(), k, dim);
      for (int trial = 0; trial < 4; ++trial) {
        const std::vector<float> v = RandomFloats(rng, dim);
        // Sentinels past k: the zero-padded lanes of a partial last block
        // are computed but never written out.
        std::vector<float> out(k + 8, -1.0f);
        table.Distances(v.data(), out.data());
        for (size_t c = 0; c < k; ++c) {
          const float want = SquaredL2(centroids.data() + c * dim, v.data(), dim);
          ASSERT_TRUE(SameBits(out[c], want))
              << "dim=" << dim << " k=" << k << " c=" << c << ": " << out[c]
              << " vs " << want;
        }
        for (size_t c = k; c < out.size(); ++c) ASSERT_EQ(out[c], -1.0f);
        std::vector<float> dists(k);
        const uint32_t nearest = table.Nearest(v.data(), dists.data());
        EXPECT_EQ(nearest, ScalarNearest(centroids.data(), k, dim, v.data()));
        EXPECT_EQ(std::memcmp(dists.data(), out.data(), k * sizeof(float)), 0);
      }
    }
  }
}

TEST(CentroidTableTest, NearestTiesGoToLowestIndex) {
  Rng rng(78);
  const size_t dim = 5;
  const size_t k = 33;  // a partial last block
  std::vector<float> centroids = RandomFloats(rng, k * dim);
  const std::vector<float> v = RandomFloats(rng, dim);
  // Three copies of the query itself (distance 0) in three different blocks;
  // the lowest index must win.
  for (size_t c : {32, 11, 20}) {
    std::copy_n(v.data(), dim, centroids.data() + c * dim);
  }
  std::vector<float> dists(k);
  EXPECT_EQ(CentroidTable(centroids.data(), k, dim).Nearest(v.data(), dists.data()),
            11u);
  // Every centroid identical: index 0.
  for (size_t c = 1; c < k; ++c) {
    std::copy_n(centroids.data(), dim, centroids.data() + c * dim);
  }
  EXPECT_EQ(CentroidTable(centroids.data(), k, dim).Nearest(v.data(), dists.data()),
            0u);
}

/// Lloyd's k-means as it was before CentroidTable: every distance a scalar
/// SquaredL2 call, the nearest centroid found by ScalarNearest. Counts
/// empty-cluster re-seeds so the tests can show they cover that path.
KMeansResult ReferenceKMeans(const std::vector<float>& points, size_t dim,
                             const KMeansOptions& options, size_t* reseeds) {
  const size_t n = points.size() / dim;
  KMeansResult res;
  res.centroids.resize(options.k * dim);
  res.assignment.assign(n, 0);

  // Init: k distinct random points.
  Rng rng(options.seed);
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = 0; i < options.k; ++i) {
    std::swap(perm[i], perm[i + rng.NextBounded(n - i)]);
    std::copy_n(points.data() + perm[i] * dim, dim, res.centroids.data() + i * dim);
  }

  std::vector<float> sums(options.k * dim);
  std::vector<uint64_t> counts(options.k);
  std::vector<float> point_dist(n);

  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    // Assign.
    bool changed = false;
    double inertia = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c =
          ScalarNearest(res.centroids.data(), options.k, dim, points.data() + i * dim);
      point_dist[i] =
          SquaredL2(res.centroids.data() + c * dim, points.data() + i * dim, dim);
      inertia += point_dist[i];
      if (c != res.assignment[i]) {
        res.assignment[i] = c;
        changed = true;
      }
    }
    res.inertia = inertia;
    res.iters_run = iter + 1;
    if (!changed && iter > 0) break;

    // Update.
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = res.assignment[i];
      ++counts[c];
      float* s = sums.data() + c * dim;
      const float* p = points.data() + i * dim;
      for (size_t d = 0; d < dim; ++d) s[d] += p[d];
    }
    for (size_t c = 0; c < options.k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the current farthest point.
        ++*reseeds;
        size_t far = 0;
        for (size_t i = 1; i < n; ++i) {
          if (point_dist[i] > point_dist[far]) far = i;
        }
        std::copy_n(points.data() + far * dim, dim, res.centroids.data() + c * dim);
        point_dist[far] = 0;
        continue;
      }
      float* ctr = res.centroids.data() + c * dim;
      for (size_t d = 0; d < dim; ++d) {
        ctr[d] = sums[c * dim + d] / static_cast<float>(counts[c]);
      }
    }
  }
  // Final assignment against the last centroid update.
  for (size_t i = 0; i < n; ++i) {
    res.assignment[i] =
        ScalarNearest(res.centroids.data(), options.k, dim, points.data() + i * dim);
  }
  return res;
}

void ExpectSameClustering(const KMeansResult& got, const KMeansResult& want) {
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                        want.centroids.size() * sizeof(float)),
            0);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
      << got.inertia << " vs " << want.inertia;
  EXPECT_EQ(got.iters_run, want.iters_run);
}

TEST(KMeansTest, MatchesScalarReferenceBitwise) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 1 + seed % 9;
    Rng rng(seed);
    const std::vector<float> points = RandomFloats(rng, 300 * dim);
    KMeansOptions opts;
    opts.k = 1 + seed % 20;
    opts.max_iters = 8;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    size_t reseeds = 0;
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
  }
}

/// `n` points of dimension 3, each a copy of one of 4 random sites. With
/// k = 9, initialization picks duplicate centroids, the higher-index copies
/// lose every tie and come out empty, and the update step re-seeds them.
std::vector<float> PointsOnFourSites(uint64_t seed, size_t n) {
  const size_t dim = 3;
  Rng rng(seed);
  const std::vector<float> sites = RandomFloats(rng, 4 * dim);
  std::vector<float> points;
  for (size_t i = 0; i < n; ++i) {
    const float* s = sites.data() + rng.NextBounded(4) * dim;
    points.insert(points.end(), s, s + dim);
  }
  return points;
}

TEST(KMeansTest, MatchesScalarReferenceWithEmptyClusterReseeding) {
  size_t reseeds = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 3;
    const std::vector<float> points = PointsOnFourSites(seed, 200);
    KMeansOptions opts;
    opts.k = 9;
    opts.max_iters = 6;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
  }
  EXPECT_GT(reseeds, 0u);
}

TEST(KMeansTest, MatchesScalarReferenceWhenConvergedEarly) {
  // Well-separated clusters converge long before max_iters.
  size_t early = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 8;
    const std::vector<float> points =
        GenerateClusteredVectors(400, dim, 4, seed, 0.05f);
    KMeansOptions opts;
    opts.k = 4;
    opts.max_iters = 50;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    size_t reseeds = 0;
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
    if (got->iters_run < opts.max_iters) ++early;
  }
  EXPECT_EQ(early, 50u);
}

/// Sub-centroid (j, c) of `pq`, read back through Decode.
std::vector<float> SubCentroid(const ProductQuantizer& pq, size_t j, size_t c) {
  const std::vector<uint8_t> codes(pq.m(), static_cast<uint8_t>(c));
  const std::vector<float> v = pq.Decode(codes.data());
  return {v.begin() + j * pq.dsub(), v.begin() + (j + 1) * pq.dsub()};
}

TEST(PqTest, EncodeAndLutMatchScalarLoops) {
  Dataset data = MakeDataset(SmallSpec());  // dim 16
  for (auto [m, ksub] : {std::pair<size_t, size_t>{4, 32}, {8, 33}, {16, 7}}) {
    SCOPED_TRACE(testing::Message() << "m=" << m << " ksub=" << ksub);
    ProductQuantizer::Options opts;
    opts.m = m;
    opts.ksub = ksub;
    opts.train_iters = 4;
    auto pq = ProductQuantizer::Train(data.base, data.dim, opts);
    ASSERT_TRUE(pq.ok());
    const size_t dsub = pq->dsub();
    std::vector<float> subcentroids;  // m x ksub x dsub
    for (size_t j = 0; j < m; ++j) {
      for (size_t c = 0; c < ksub; ++c) {
        const std::vector<float> sc = SubCentroid(*pq, j, c);
        subcentroids.insert(subcentroids.end(), sc.begin(), sc.end());
      }
    }
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const float* v = data.QueryVector(q);
      const std::vector<uint8_t> codes = pq->Encode(v);
      const std::vector<float> lut = pq->BuildLut(v);
      for (size_t j = 0; j < m; ++j) {
        const float* table = subcentroids.data() + j * ksub * dsub;
        EXPECT_EQ(codes[j], ScalarNearest(table, ksub, dsub, v + j * dsub));
        for (size_t c = 0; c < ksub; ++c) {
          ASSERT_TRUE(SameBits(lut[j * ksub + c],
                               SquaredL2(table + c * dsub, v + j * dsub, dsub)))
              << "j=" << j << " c=" << c;
        }
      }
    }
  }
}

TEST(IvfTest, SelectProbesMatchesScalarLoop) {
  Dataset data = MakeDataset(SmallSpec());
  IvfPqIndex::Options opts = SmallIndexOptions();
  opts.nlist = 13;  // a partial last block
  auto index = IvfPqIndex::Build(data.base, data.dim, opts);
  ASSERT_TRUE(index.ok());
  const std::vector<float>& coarse = index->coarse_centroids();
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const float* query = data.QueryVector(q);
    std::vector<std::pair<float, uint32_t>> dists;
    for (size_t c = 0; c < opts.nlist; ++c) {
      dists.emplace_back(SquaredL2(coarse.data() + c * data.dim, query, data.dim),
                         static_cast<uint32_t>(c));
    }
    std::sort(dists.begin(), dists.end());
    for (size_t nprobe : {1, 4, 13, 20}) {
      std::vector<uint32_t> want;
      for (size_t i = 0; i < std::min(nprobe, dists.size()); ++i) {
        want.push_back(dists[i].second);
      }
      EXPECT_EQ(index->SelectProbes(query, nprobe), want);
    }
  }
}

/// The row-major scan SearchLists replaces, kept as an independent oracle:
/// each listed vector's code re-derived with Encode(base - centroid) and
/// scored with AdcDistance, as (distance, id) in scan order (list by list,
/// ids ascending).
std::vector<std::pair<float, uint32_t>> RowMajorScan(
    const Dataset& data, const IvfPqIndex& index, const float* query,
    const std::vector<uint32_t>& lists) {
  const ProductQuantizer& pq = index.pq();
  const size_t dim = index.dim();
  std::vector<std::pair<float, uint32_t>> scored;
  std::vector<float> residual_query(dim);
  std::vector<float> residual(dim);
  for (uint32_t c : lists) {
    const float* ctr = index.coarse_centroids().data() + c * dim;
    for (size_t d = 0; d < dim; ++d) residual_query[d] = query[d] - ctr[d];
    const std::vector<float> lut = pq.BuildLut(residual_query.data());
    for (uint32_t id : index.list(c).ids) {
      const float* v = data.BaseVector(id);
      for (size_t d = 0; d < dim; ++d) residual[d] = v[d] - ctr[d];
      scored.emplace_back(pq.AdcDistance(lut, pq.Encode(residual.data()).data()), id);
    }
  }
  return scored;
}

/// Top-k of a scan by the priority_queue rule: push while fewer than k, else
/// replace the worst on a strictly smaller distance.
std::vector<Neighbor> HeapTopK(const std::vector<std::pair<float, uint32_t>>& scored,
                               size_t k) {
  std::priority_queue<std::pair<float, uint32_t>> heap;
  for (const auto& [dist, id] : scored) {
    if (heap.size() < k) {
      heap.emplace(dist, id);
    } else if (dist < heap.top().first) {
      heap.pop();
      heap.emplace(dist, id);
    }
  }
  std::vector<Neighbor> out;
  for (; !heap.empty(); heap.pop()) {
    out.push_back({heap.top().second, heap.top().first});
  }
  std::reverse(out.begin(), out.end());
  return out;
}

TEST(IvfTest, SearchListsMatchesRowMajorScanBitwise) {
  DatasetSpec spec = SmallSpec();  // dim 16
  spec.num_base = 600;
  Dataset data = MakeDataset(spec);
  // Re-add every fourth vector under a new id: a duplicate lands in its
  // twin's list with its twin's code, so equal distances meet at the k
  // boundary. The queries include some of the duplicated vectors, whose
  // own code is the nearest one in their list.
  const size_t unique = data.num_base();
  std::vector<float> dups;
  for (size_t i = 0; i < unique; i += 4) {
    dups.insert(dups.end(), data.BaseVector(i), data.BaseVector(i) + data.dim);
  }
  data.base.insert(data.base.end(), dups.begin(), dups.end());
  data.queries.insert(data.queries.end(), dups.begin(), dups.begin() + 8 * data.dim);

  IvfPqIndex::Options opts;
  opts.nlist = 64;
  opts.pq.train_iters = 4;
  for (auto [m, ksub] : {std::pair<size_t, size_t>{1, 7}, {4, 32}, {8, 32}, {16, 256}}) {
    SCOPED_TRACE(testing::Message() << "m=" << m << " ksub=" << ksub);
    opts.pq.m = m;
    opts.pq.ksub = ksub;
    auto index = IvfPqIndex::Build(data.base, data.dim, opts);
    ASSERT_TRUE(index.ok());
    // Every tail width, and lists shorter than one block.
    std::vector<bool> residue_seen(IvfPqIndex::List::kBlock, false);
    bool short_list = false;
    std::vector<uint32_t> all_lists;
    for (uint32_t c = 0; c < opts.nlist; ++c) {
      const size_t len = index->list(c).ids.size();
      ASSERT_EQ(index->list(c).codes.size(), len * m);
      ASSERT_TRUE(std::is_sorted(index->list(c).ids.begin(), index->list(c).ids.end()));
      if (len == 0) continue;
      residue_seen[len % IvfPqIndex::List::kBlock] = true;
      short_list |= len < IvfPqIndex::List::kBlock;
      all_lists.push_back(c);
    }
    ASSERT_EQ(std::count(residue_seen.begin(), residue_seen.end(), true),
              IvfPqIndex::List::kBlock);
    ASSERT_TRUE(short_list);

    size_t boundary_ties = 0;
    for (size_t q = 0; q < data.num_queries(); ++q) {
      const float* query = data.QueryVector(q);
      for (const std::vector<uint32_t>& lists :
           {index->SelectProbes(query, 4), index->SelectProbes(query, 16), all_lists}) {
        // Encoded and scored once per list set; each k selects from it.
        const auto scored = RowMajorScan(data, *index, query, lists);
        const size_t candidates = scored.size();
        const std::vector<Neighbor> ranked = HeapTopK(scored, candidates);
        for (size_t k : {size_t{1}, size_t{10}, candidates + 1}) {
          SCOPED_TRACE(testing::Message() << "q=" << q << " lists=" << lists.size()
                                          << " k=" << k);
          const std::vector<Neighbor> want = HeapTopK(scored, k);
          const std::vector<Neighbor> got = index->SearchLists(query, lists, k);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].id, want[i].id) << "rank " << i;
            ASSERT_TRUE(SameBits(got[i].distance, want[i].distance))
                << "rank " << i << ": " << got[i].distance << " vs "
                << want[i].distance;
          }
          if (k < candidates && ranked[k - 1].distance == ranked[k].distance) {
            ++boundary_ties;
          }
        }
      }
    }
    EXPECT_GT(boundary_ties, 0u);
  }
}

// --- The threaded build path: ParallelFor and its three call sites ---------
//
// The other tests stay below 2 x kParallelForChunk points, where ParallelFor
// runs inline. These go past it, so on a machine with more than one core
// KMeans and Build split their per-point loops across threads, and every
// output must still match the one-thread reference bit for bit.

TEST(ParallelForTest, CoversEachIndexOnceInChunkSizedRanges) {
  constexpr size_t kChunk = kParallelForChunk;
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  for (size_t n : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                   5 * kChunk + 3}) {
    SCOPED_TRACE(n);
    std::vector<std::atomic<int>> visits(n);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> ranges;
    ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      const std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(begin, end);
    });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    // Contiguous ranges tiling [0, n), as many as the cores and the chunk
    // rule allow, none shorter than a chunk unless there is only one.
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), std::max<size_t>(1, std::min(cores, n / kChunk)));
    size_t next = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, next);
      EXPECT_GE(end - begin, ranges.size() > 1 ? kChunk : n);
      next = end;
    }
    EXPECT_EQ(next, n);
  }
}

// 3 chunks and 5 points: as many as three ranges, none of them a whole
// number of chunks.
constexpr size_t kThreadedPoints = 3 * kParallelForChunk + 5;

TEST(KMeansTest, ThreadedAssignMatchesScalarReferenceBitwise) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 4 + seed;
    Rng rng(seed);
    // Each point scaled by 2^-s, s < 24: the distances span so many binades
    // that the double inertia sum rounds, and only the one index-order sum
    // reproduces the reference's bits.
    std::vector<float> points = RandomFloats(rng, kThreadedPoints * dim);
    for (size_t i = 0; i < kThreadedPoints; ++i) {
      const float scale = std::ldexp(1.0f, -static_cast<int>(rng.NextBounded(24)));
      for (size_t d = 0; d < dim; ++d) points[i * dim + d] *= scale;
    }
    KMeansOptions opts;
    opts.k = 7 + 6 * seed;
    opts.max_iters = 6;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    size_t reseeds = 0;
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
  }
}

TEST(KMeansTest, ThreadedAssignMatchesScalarReferenceWithReseeding) {
  size_t reseeds = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 3;
    const std::vector<float> points = PointsOnFourSites(seed, kThreadedPoints);
    KMeansOptions opts;
    opts.k = 9;
    opts.max_iters = 6;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
  }
  EXPECT_GT(reseeds, 0u);
}

TEST(KMeansTest, ThreadedAssignMatchesScalarReferenceWhenConvergedEarly) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    const size_t dim = 8;
    const std::vector<float> points =
        GenerateClusteredVectors(kThreadedPoints, dim, 4, seed, 0.05f);
    KMeansOptions opts;
    opts.k = 4;
    opts.max_iters = 50;
    opts.seed = seed;
    auto got = KMeans(points, dim, opts);
    ASSERT_TRUE(got.ok());
    size_t reseeds = 0;
    ExpectSameClustering(*got, ReferenceKMeans(points, dim, opts, &reseeds));
    EXPECT_LT(got->iters_run, opts.max_iters);
  }
}

TEST(IvfTest, ThreadedBuildEncodesEveryListPosition) {
  const size_t dim = 16;
  const std::vector<float> vectors =
      GenerateClusteredVectors(kThreadedPoints, dim, 8, 61, 0.3f);
  auto index = IvfPqIndex::Build(vectors, dim, SmallIndexOptions());
  ASSERT_TRUE(index.ok());
  const ProductQuantizer& pq = index->pq();
  const size_t m = pq.m();
  std::vector<int> listed(kThreadedPoints, 0);
  size_t ragged_lists = 0;  // lists whose last block is narrower than kBlock
  std::vector<float> residual(dim);
  for (size_t c = 0; c < index->nlist(); ++c) {
    SCOPED_TRACE(c);
    const IvfPqIndex::List& list = index->list(c);
    const size_t len = list.ids.size();
    ASSERT_EQ(list.codes.size(), len * m);
    ASSERT_TRUE(std::is_sorted(list.ids.begin(), list.ids.end()));
    ragged_lists += len % IvfPqIndex::List::kBlock != 0;
    const float* ctr = index->coarse_centroids().data() + c * dim;
    for (size_t p = 0; p < len; ++p) {
      const uint32_t id = list.ids[p];
      ++listed[id];
      for (size_t d = 0; d < dim; ++d) residual[d] = vectors[id * dim + d] - ctr[d];
      const std::vector<uint8_t> want = pq.Encode(residual.data());
      // Byte j of position p, through the block layout (see List).
      const size_t b = p - p % IvfPqIndex::List::kBlock;
      const size_t w = std::min(IvfPqIndex::List::kBlock, len - b);
      for (size_t j = 0; j < m; ++j) {
        ASSERT_EQ(list.codes[b * m + j * w + (p - b)], want[j])
            << "position " << p << " byte " << j;
      }
    }
  }
  EXPECT_EQ(std::count(listed.begin(), listed.end(), 1),
            static_cast<std::ptrdiff_t>(kThreadedPoints));
  EXPECT_GT(ragged_lists, 0u);
}

}  // namespace
}  // namespace fpgadp::anns

#ifndef FPGADP_ANNS_KMEANS_H_
#define FPGADP_ANNS_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace fpgadp::anns {

/// A k x dim centroid table laid out for one vector against every centroid:
/// rows in blocks of 8, dimension-major inside each block (the last block
/// zero-padded), so the 8 distances of a block advance together one
/// dimension at a time. Lanes are centroids, never dimensions: each lane
/// sums dimensions 0..dim-1 from 0 with the expression SquaredL2 uses, so
/// every distance is bit-identical to SquaredL2(centroid, v, dim). Used by
/// k-means assignment, PQ encoding and LUT builds, and IVF probe selection.
class CentroidTable {
 public:
  CentroidTable() = default;
  /// Copies `k` row-major centroids of `dim` floats each.
  CentroidTable(const float* centroids, size_t k, size_t dim);

  /// out[c] = SquaredL2(centroid c, v, dim) for every c < k.
  void Distances(const float* v, float* out) const;

  /// Distances() into `dists` (k floats), then the index of the smallest,
  /// scanned in index order with strict `<`: ties go to the lowest index.
  uint32_t Nearest(const float* v, float* dists) const;

 private:
  static constexpr size_t kLanes = 8;

  size_t k_ = 0;
  size_t dim_ = 0;
  std::vector<float> blocks_;  ///< ceil(k / kLanes) x dim x kLanes.
};

struct KMeansOptions {
  size_t k = 16;
  size_t max_iters = 10;
  uint64_t seed = 1;
};

struct KMeansResult {
  std::vector<float> centroids;     ///< k x dim, row-major.
  std::vector<uint32_t> assignment; ///< Per input point, centroid index.
  size_t iters_run = 0;
  double inertia = 0;               ///< Sum of squared distances to centroids.
};

/// Lloyd's k-means with random-point initialization and empty-cluster
/// re-seeding (to the farthest point). Deterministic in `options.seed`.
/// Used for IVF coarse quantizer and PQ sub-quantizer training.
/// Returns InvalidArgument if there are fewer points than clusters.
Result<KMeansResult> KMeans(const std::vector<float>& points, size_t dim,
                            const KMeansOptions& options);

}  // namespace fpgadp::anns

#endif  // FPGADP_ANNS_KMEANS_H_

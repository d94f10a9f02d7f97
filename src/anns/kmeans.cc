#include "src/anns/kmeans.h"

#include <algorithm>
#include <limits>

#include "src/common/random.h"

namespace fpgadp::anns {

CentroidTable::CentroidTable(const float* centroids, size_t k, size_t dim)
    : k_(k),
      dim_(dim),
      blocks_((k + kLanes - 1) / kLanes * kLanes * dim, 0.0f) {
  for (size_t c = 0; c < k; ++c) {
    float* block = blocks_.data() + c / kLanes * kLanes * dim;
    for (size_t d = 0; d < dim; ++d) {
      block[d * kLanes + c % kLanes] = centroids[c * dim + d];
    }
  }
}

void CentroidTable::Distances(const float* v, float* out) const {
  for (size_t first = 0; first < k_; first += kLanes) {
    const float* block = blocks_.data() + first * dim_;
    // The same expression and summation order as SquaredL2, one lane per
    // centroid: the compiler may vectorize across lanes, never within one.
    float acc[kLanes] = {};
    for (size_t d = 0; d < dim_; ++d) {
      const float x = v[d];
      const float* row = block + d * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        const float t = row[l] - x;
        acc[l] += t * t;
      }
    }
    std::copy_n(acc, std::min(kLanes, k_ - first), out + first);
  }
}

uint32_t CentroidTable::Nearest(const float* v, float* dists) const {
  Distances(v, dists);
  uint32_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < k_; ++c) {
    if (dists[c] < best_d) {
      best_d = dists[c];
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

Result<KMeansResult> KMeans(const std::vector<float>& points, size_t dim,
                            const KMeansOptions& options) {
  if (dim == 0 || points.size() % dim != 0) {
    return Status::InvalidArgument("points size not a multiple of dim");
  }
  const size_t n = points.size() / dim;
  if (n < options.k || options.k == 0) {
    return Status::InvalidArgument("need at least k points");
  }

  KMeansResult res;
  res.centroids.resize(options.k * dim);
  res.assignment.assign(n, 0);

  // Init: k distinct random points.
  Rng rng(options.seed);
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = 0; i < options.k; ++i) {
    std::swap(perm[i], perm[i + rng.NextBounded(n - i)]);
    std::copy_n(points.data() + perm[i] * dim, dim,
                res.centroids.data() + i * dim);
  }

  std::vector<float> sums(options.k * dim);
  std::vector<uint64_t> counts(options.k);
  std::vector<float> point_dist(n);
  std::vector<float> dists(options.k);

  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    // Assign.
    const CentroidTable table(res.centroids.data(), options.k, dim);
    bool changed = false;
    double inertia = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = table.Nearest(points.data() + i * dim, dists.data());
      point_dist[i] = dists[c];
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
        size_t far = 0;
        for (size_t i = 1; i < n; ++i) {
          if (point_dist[i] > point_dist[far]) far = i;
        }
        std::copy_n(points.data() + far * dim, dim,
                    res.centroids.data() + c * dim);
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
  const CentroidTable table(res.centroids.data(), options.k, dim);
  for (size_t i = 0; i < n; ++i) {
    res.assignment[i] = table.Nearest(points.data() + i * dim, dists.data());
  }
  return res;
}

}  // namespace fpgadp::anns

#include "src/anns/biskm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace fpgadp::anns {

std::vector<float> QuantizeToBits(const std::vector<float>& points,
                                  size_t dim, uint32_t bits) {
  FPGADP_CHECK(bits >= 1 && bits <= 32);
  FPGADP_CHECK(dim > 0 && points.size() % dim == 0);
  if (bits == 32) return points;  // full precision
  const size_t n = points.size() / dim;
  // Per-dimension min/max scaling.
  std::vector<float> lo(dim, std::numeric_limits<float>::infinity());
  std::vector<float> hi(dim, -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const float v = points[i * dim + d];
      lo[d] = std::min(lo[d], v);
      hi[d] = std::max(hi[d], v);
    }
  }
  const double levels = std::ldexp(1.0, int(bits)) - 1.0;
  std::vector<float> out(points.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const double range = double(hi[d]) - double(lo[d]);
      if (range <= 0) {
        out[i * dim + d] = lo[d];
        continue;
      }
      const double unit = (points[i * dim + d] - lo[d]) / range;
      const double q = std::round(unit * levels) / levels;
      out[i * dim + d] = float(lo[d] + q * range);
    }
  }
  return out;
}

Result<BisKmResult> KMeansAnyPrecision(const std::vector<float>& points,
                                       size_t dim,
                                       const BisKmOptions& options) {
  if (options.bits < 1 || options.bits > 32) {
    return Status::InvalidArgument("bits must be in [1, 32]");
  }
  if (dim == 0 || points.size() % dim != 0) {
    return Status::InvalidArgument("points size not a multiple of dim");
  }
  const std::vector<float> quantized = QuantizeToBits(points, dim,
                                                      options.bits);
  KMeansOptions km;
  km.k = options.k;
  km.max_iters = options.max_iters;
  km.seed = options.seed;
  FPGADP_ASSIGN_OR_RETURN(KMeansResult clustering, KMeans(quantized, dim, km));

  // Quality metric: centroids scored against the original points.
  BisKmResult result;
  const size_t n = points.size() / dim;
  const CentroidTable table(clustering.centroids.data(), options.k, dim);
  std::vector<float> dists(options.k);
  double inertia = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = table.Nearest(points.data() + i * dim, dists.data());
    inertia += dists[c];
  }
  result.full_inertia = inertia;
  result.bits = options.bits;
  result.clustering = std::move(clustering);
  return result;
}

double BisKmPointsPerSecond(size_t dim, uint32_t bits,
                            double memory_bits_per_cycle, double clock_hz) {
  FPGADP_CHECK(dim > 0 && bits >= 1);
  const double bits_per_point = double(dim) * double(bits);
  return clock_hz * memory_bits_per_cycle / bits_per_point;
}

}  // namespace fpgadp::anns

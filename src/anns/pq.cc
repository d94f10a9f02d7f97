#include "src/anns/pq.h"

#include <algorithm>

namespace fpgadp::anns {

Result<ProductQuantizer> ProductQuantizer::Train(
    const std::vector<float>& vectors, size_t dim, const Options& options) {
  if (options.m == 0 || dim % options.m != 0) {
    return Status::InvalidArgument("dim must be divisible by m");
  }
  if (options.ksub == 0 || options.ksub > 256) {
    return Status::InvalidArgument("ksub must be in [1, 256]");
  }
  const size_t n = dim == 0 ? 0 : vectors.size() / dim;
  if (n < options.ksub) {
    return Status::InvalidArgument("need at least ksub training vectors");
  }

  ProductQuantizer pq(dim, options.m, options.ksub);
  const size_t dsub = pq.dsub();
  pq.centroids_.resize(options.m * options.ksub * dsub);

  std::vector<float> sub(n * dsub);
  for (size_t j = 0; j < options.m; ++j) {
    // Slice out the j-th sub-vector of every training point.
    for (size_t i = 0; i < n; ++i) {
      const float* src = vectors.data() + i * dim + j * dsub;
      std::copy_n(src, dsub, sub.data() + i * dsub);
    }
    KMeansOptions km;
    km.k = options.ksub;
    km.max_iters = options.train_iters;
    km.seed = options.seed + j;
    auto res = KMeans(sub, dsub, km);
    if (!res.ok()) return res.status();
    std::copy(res->centroids.begin(), res->centroids.end(),
              pq.centroids_.begin() + j * options.ksub * dsub);
    pq.tables_.emplace_back(res->centroids.data(), options.ksub, dsub);
  }
  return pq;
}

std::vector<uint8_t> ProductQuantizer::Encode(const float* v) const {
  std::vector<uint8_t> codes(m_);
  Encode(v, codes.data(), 1);
  return codes;
}

void ProductQuantizer::Encode(const float* v, uint8_t* codes,
                              size_t stride) const {
  float dists[256];  // ksub <= 256 (Train)
  const size_t dsub = this->dsub();
  for (size_t j = 0; j < m_; ++j) {
    codes[j * stride] =
        static_cast<uint8_t>(tables_[j].Nearest(v + j * dsub, dists));
  }
}

std::vector<float> ProductQuantizer::Decode(const uint8_t* codes) const {
  std::vector<float> v(dim_);
  const size_t dsub = this->dsub();
  for (size_t j = 0; j < m_; ++j) {
    const float* c = centroids_.data() + (j * ksub_ + codes[j]) * dsub;
    std::copy_n(c, dsub, v.data() + j * dsub);
  }
  return v;
}

std::vector<float> ProductQuantizer::BuildLut(const float* query) const {
  std::vector<float> lut(m_ * ksub_);
  const size_t dsub = this->dsub();
  for (size_t j = 0; j < m_; ++j) {
    tables_[j].Distances(query + j * dsub, lut.data() + j * ksub_);
  }
  return lut;
}

}  // namespace fpgadp::anns

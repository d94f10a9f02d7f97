#include "src/anns/ivf.h"

#include <algorithm>
#include <queue>

#include "src/anns/dataset.h"
#include "src/common/check.h"

namespace fpgadp::anns {

Result<IvfPqIndex> IvfPqIndex::Build(const std::vector<float>& vectors,
                                     size_t dim, const Options& options) {
  if (dim == 0 || vectors.size() % dim != 0) {
    return Status::InvalidArgument("vectors size not a multiple of dim");
  }
  const size_t n = vectors.size() / dim;
  if (n < options.nlist) {
    return Status::InvalidArgument("need at least nlist vectors");
  }

  // Coarse quantizer.
  KMeansOptions km;
  km.k = options.nlist;
  km.max_iters = options.coarse_iters;
  km.seed = options.seed;
  auto coarse = KMeans(vectors, dim, km);
  if (!coarse.ok()) return coarse.status();

  // Residuals for PQ training.
  std::vector<float> residuals(vectors.size());
  for (size_t i = 0; i < n; ++i) {
    const float* v = vectors.data() + i * dim;
    const float* c = coarse->centroids.data() + coarse->assignment[i] * dim;
    for (size_t d = 0; d < dim; ++d) residuals[i * dim + d] = v[d] - c[d];
  }
  ProductQuantizer::Options pq_opts = options.pq;
  pq_opts.seed = options.seed + 100;
  auto pq = ProductQuantizer::Train(residuals, dim, pq_opts);
  if (!pq.ok()) return pq.status();

  IvfPqIndex index(dim, std::move(pq).value());
  index.coarse_table_ = CentroidTable(coarse->centroids.data(), options.nlist, dim);
  index.coarse_ = std::move(coarse->centroids);
  index.lists_.resize(options.nlist);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = coarse->assignment[i];
    List& list = index.lists_[c];
    list.ids.push_back(static_cast<uint32_t>(i));
    const std::vector<uint8_t> codes =
        index.pq_.Encode(residuals.data() + i * dim);
    list.codes.insert(list.codes.end(), codes.begin(), codes.end());
  }
  if (options.store_vectors) index.stored_vectors_ = vectors;
  index.total_codes_ = n;
  return index;
}

std::vector<uint32_t> IvfPqIndex::SelectProbes(const float* query,
                                               size_t nprobe) const {
  using Entry = std::pair<float, uint32_t>;
  std::vector<float> coarse_dists(lists_.size());
  coarse_table_.Distances(query, coarse_dists.data());
  std::vector<Entry> dists;
  dists.reserve(lists_.size());
  for (size_t c = 0; c < lists_.size(); ++c) {
    dists.emplace_back(coarse_dists[c], static_cast<uint32_t>(c));
  }
  const size_t np = std::min(nprobe, dists.size());
  std::partial_sort(dists.begin(), dists.begin() + np, dists.end());
  std::vector<uint32_t> probes;
  probes.reserve(np);
  for (size_t i = 0; i < np; ++i) probes.push_back(dists[i].second);
  return probes;
}

std::vector<Neighbor> IvfPqIndex::SearchLists(
    const float* query, const std::vector<uint32_t>& lists, size_t k) const {
  FPGADP_CHECK(k > 0);
  using Entry = std::pair<float, uint32_t>;
  std::priority_queue<Entry> heap;  // max-heap of the best k
  std::vector<float> residual_query(dim_);
  for (uint32_t c : lists) {
    const List& list = lists_[c];
    if (list.ids.empty()) continue;
    // Residual of the query against this list's centroid.
    const float* ctr = coarse_.data() + c * dim_;
    for (size_t d = 0; d < dim_; ++d) residual_query[d] = query[d] - ctr[d];
    const std::vector<float> lut = pq_.BuildLut(residual_query.data());
    const size_t m = pq_.m();
    for (size_t i = 0; i < list.ids.size(); ++i) {
      const float d = pq_.AdcDistance(lut, list.codes.data() + i * m);
      if (heap.size() < k) {
        heap.emplace(d, list.ids[i]);
      } else if (d < heap.top().first) {
        heap.pop();
        heap.emplace(d, list.ids[i]);
      }
    }
  }
  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back({heap.top().second, heap.top().first});
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Neighbor> IvfPqIndex::Search(const float* query,
                                         const SearchParams& params) const {
  FPGADP_CHECK(params.k > 0);
  FPGADP_CHECK(params.rerank == 0 || has_stored_vectors());
  // With refinement, the ADC stage gathers a larger candidate pool.
  const size_t pool_k =
      params.rerank > 0 ? params.rerank * params.k : params.k;
  std::vector<Neighbor> out =
      SearchLists(query, SelectProbes(query, params.nprobe), pool_k);
  if (params.rerank > 0) {
    // Refinement: exact distances over the ADC candidate pool.
    for (Neighbor& nb : out) {
      nb.distance =
          SquaredL2(stored_vectors_.data() + size_t(nb.id) * dim_, query, dim_);
    }
    std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
      return a.distance < b.distance ||
             (a.distance == b.distance && a.id < b.id);
    });
    if (out.size() > params.k) out.resize(params.k);
  }
  return out;
}

uint64_t IvfPqIndex::CodesScanned(const float* query, size_t nprobe) const {
  uint64_t total = 0;
  for (uint32_t c : SelectProbes(query, nprobe)) {
    total += lists_[c].ids.size();
  }
  return total;
}

uint64_t IvfPqIndex::index_bytes() const {
  uint64_t bytes = coarse_.size() * sizeof(float);
  for (const List& l : lists_) {
    bytes += l.ids.size() * sizeof(uint32_t) + l.codes.size();
  }
  bytes += stored_vectors_.size() * sizeof(float);
  return bytes;
}

}  // namespace fpgadp::anns

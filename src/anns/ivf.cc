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
  // Size every list first, then write each code straight to its slot in
  // the list's blocks (see List), in ascending id order.
  const size_t m = index.pq_.m();
  std::vector<size_t> sizes(options.nlist, 0);
  for (uint32_t c : coarse->assignment) ++sizes[c];
  index.lists_.resize(options.nlist);
  for (size_t c = 0; c < options.nlist; ++c) {
    index.lists_[c].ids.reserve(sizes[c]);
    index.lists_[c].codes.resize(sizes[c] * m);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = coarse->assignment[i];
    List& list = index.lists_[c];
    const size_t p = list.ids.size();
    const size_t b = p - p % List::kBlock;
    const size_t w = std::min(List::kBlock, sizes[c] - b);
    uint8_t* slot = list.codes.data() + b * m + (p - b);
    const std::vector<uint8_t> code =
        index.pq_.Encode(residuals.data() + i * dim);
    for (size_t j = 0; j < m; ++j) slot[j * w] = code[j];
    list.ids.push_back(static_cast<uint32_t>(i));
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

namespace {

// Scores one block of `w` <= List::kBlock codes (see IvfPqIndex::List):
// out[l] = the ADC distance of the block's code l. Lanes are codes, never
// sub-quantizers: each lane sums lut[j * ksub + code_j] for j = 0..m-1 from
// 0, the expression and order of ProductQuantizer::AdcDistance, so every
// distance is the same float.
inline void ScoreBlock(const float* lut, size_t m, size_t ksub,
                       const uint8_t* block, size_t w, float* out) {
  float acc[IvfPqIndex::List::kBlock] = {};
  for (size_t j = 0; j < m; ++j) {
    const float* row = lut + j * ksub;
    const uint8_t* codes = block + j * w;
    for (size_t l = 0; l < w; ++l) acc[l] += row[codes[l]];
  }
  std::copy_n(acc, w, out);
}

}  // namespace

std::vector<Neighbor> IvfPqIndex::SearchLists(
    const float* query, const std::vector<uint32_t>& lists, size_t k) const {
  FPGADP_CHECK(k > 0);
  using Entry = std::pair<float, uint32_t>;
  constexpr size_t kBlock = List::kBlock;
  std::priority_queue<Entry> heap;  // max-heap of the best k
  std::vector<float> residual_query(dim_);
  std::vector<float> dists;
  const size_t m = pq_.m();
  const size_t ksub = pq_.ksub();
  for (uint32_t c : lists) {
    const List& list = lists_[c];
    const size_t len = list.ids.size();
    if (len == 0) continue;
    // Residual of the query against this list's centroid.
    const float* ctr = coarse_.data() + c * dim_;
    for (size_t d = 0; d < dim_; ++d) residual_query[d] = query[d] - ctr[d];
    const std::vector<float> lut = pq_.BuildLut(residual_query.data());
    dists.resize(len);
    // Full blocks pass the constant width, so their lane loop has a fixed
    // trip count the compiler unrolls and vectorizes across lanes.
    size_t b = 0;
    for (; b + kBlock <= len; b += kBlock) {
      ScoreBlock(lut.data(), m, ksub, list.codes.data() + b * m, kBlock,
                 dists.data() + b);
    }
    if (b < len) {
      ScoreBlock(lut.data(), m, ksub, list.codes.data() + b * m, len - b,
                 dists.data() + b);
    }
    // Top-k in list order: push while the heap holds fewer than k, then
    // replace the worst only on a strictly smaller distance: a candidate
    // that ties the worst is dropped.
    size_t i = 0;
    for (; i < len && heap.size() < k; ++i) heap.emplace(dists[i], list.ids[i]);
    float worst = heap.top().first;
    for (; i < len; ++i) {
      if (dists[i] < worst) {
        heap.pop();
        heap.emplace(dists[i], list.ids[i]);
        worst = heap.top().first;
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

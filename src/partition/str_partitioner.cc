#include "partition/str_partitioner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace st4ml {
namespace partition_internal {

namespace {

double CenterX(const STBox& b) { return (b.mbr.x_min + b.mbr.x_max) / 2.0; }
double CenterY(const STBox& b) { return (b.mbr.y_min + b.mbr.y_max) / 2.0; }

int64_t CenterT(const STBox& b) {
  return b.time.start() / 2 + b.time.end() / 2;
}

/// Order-preserving unsigned images of the center keys. For doubles this
/// is the IEEE total order, so a NaN center (an empty trajectory's
/// envelope) gets a place at an end instead of breaking the comparator;
/// on ordinary values it orders exactly like `<`.
uint64_t OrderKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}
uint64_t OrderKey(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

/// Ranks of the `count - 1` equal-count cuts of `n` ordered elements: the
/// k-th cut is the element at rank n*k/count. None for n == 0.
std::vector<size_t> CutRanks(size_t n, int count) {
  std::vector<size_t> ranks;
  if (n == 0 || count <= 1) return ranks;
  ranks.reserve(static_cast<size_t>(count - 1));
  for (int k = 1; k < count; ++k) {
    ranks.push_back(n * static_cast<size_t>(k) / static_cast<size_t>(count));
  }
  return ranks;
}

/// Places the element of every rank in `ranks` (ascending) at its sorted
/// position, and everything between two consecutive ranks between them —
/// exactly the equal-count groups a full sort would produce, for
/// O(n log k) instead of O(n log n). Recursive std::nth_element on the
/// middle rank. Keys are unique (scan index breaks ties), so the group of
/// every element is fully determined, whatever nth_element's internals.
void MultiSelect(RankedKey* first, RankedKey* last, const size_t* rank_lo,
                 const size_t* rank_hi, size_t base) {
  if (rank_lo == rank_hi || first == last) return;
  const size_t* mid = rank_lo + (rank_hi - rank_lo) / 2;
  RankedKey* nth = first + (*mid - base);
  std::nth_element(first, nth, last);
  MultiSelect(first, nth, rank_lo, std::lower_bound(rank_lo, mid, *mid), base);
  MultiSelect(nth + 1, last, std::upper_bound(mid, rank_hi, *mid), rank_hi,
              *mid + 1);
}

/// The equal-count cut values of `keyed` (whose elements are rearranged
/// into their rank groups): `value_of(scan index)` of each cut rank.
template <typename V, typename ValueFn>
std::vector<V> SelectCuts(std::vector<RankedKey>* keyed, int count,
                          ValueFn value_of) {
  std::vector<size_t> ranks = CutRanks(keyed->size(), count);
  MultiSelect(keyed->data(), keyed->data() + keyed->size(), ranks.data(),
              ranks.data() + ranks.size(), 0);
  std::vector<V> cuts;
  cuts.reserve(ranks.size());
  for (size_t r : ranks) cuts.push_back(value_of((*keyed)[r].index));
  return cuts;
}

}  // namespace

int StrTiling::TileOf(double x, double y) const {
  int slab = static_cast<int>(
      std::upper_bound(x_splits.begin(), x_splits.end(), x) -
      x_splits.begin());
  const std::vector<double>& cuts = y_splits[slab];
  int tile = static_cast<int>(std::upper_bound(cuts.begin(), cuts.end(), y) -
                              cuts.begin());
  return slab * gy + tile;
}

void StrTiling::IntersectingTiles(const Mbr& mbr, int base,
                                  std::vector<int>* out) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Trained on fewer centers than tiles, a slab (or the tiling) has fewer
  // cuts than its shape: the last trained slab or tile extends to infinity
  // and the untrained ones stay empty, exactly as TileOf sees them.
  int slabs = std::min(gx, static_cast<int>(x_splits.size()) + 1);
  for (int slab = 0; slab < slabs; ++slab) {
    double x_lo = slab == 0 ? -kInf : x_splits[slab - 1];
    double x_hi = slab == slabs - 1 ? kInf : x_splits[slab];
    if (mbr.x_min > x_hi || mbr.x_max < x_lo) continue;
    const std::vector<double>& cuts = y_splits[slab];
    int tiles = std::min(gy, static_cast<int>(cuts.size()) + 1);
    for (int tile = 0; tile < tiles; ++tile) {
      double y_lo = tile == 0 ? -kInf : cuts[tile - 1];
      double y_hi = tile == tiles - 1 ? kInf : cuts[tile];
      if (mbr.y_min > y_hi || mbr.y_max < y_lo) continue;
      out->push_back(base + slab * gy + tile);
    }
  }
}

StrTiling BuildStrTiling(const std::vector<STBox>& boxes,
                         const RankedKey* members, size_t count, int gx,
                         int gy) {
  StrTiling tiling;
  tiling.gx = gx;
  tiling.gy = gy;
  auto x_of = [&](uint64_t i) { return CenterX(boxes[i]); };
  auto y_of = [&](uint64_t i) { return CenterY(boxes[i]); };

  std::vector<RankedKey> by_x(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t scan = members[i].index;
    by_x[i] = RankedKey{OrderKey(x_of(scan)), scan};
  }
  tiling.x_splits = SelectCuts<double>(&by_x, gx, x_of);

  // Slab membership by rank (not by re-applying the cuts): ties on the cut
  // value do not matter for split QUALITY, only for balance, and ranks
  // keep the per-slab counts exactly even.
  tiling.y_splits.resize(gx);
  std::vector<RankedKey> by_y;
  for (int slab = 0; slab < gx; ++slab) {
    size_t lo = count * static_cast<size_t>(slab) / gx;
    size_t hi = count * static_cast<size_t>(slab + 1) / gx;
    by_y.clear();
    for (size_t i = lo; i < hi; ++i) {
      uint64_t scan = by_x[i].index;
      by_y.push_back(RankedKey{OrderKey(y_of(scan)), scan});
    }
    tiling.y_splits[slab] = SelectCuts<double>(&by_y, gy, y_of);
  }
  return tiling;
}

}  // namespace partition_internal

namespace {

/// Splits ~n tiles into gx x gy with gx = ceil(sqrt(n)).
void GridShape(int n, int* gx, int* gy) {
  *gx = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  if (*gx < 1) *gx = 1;
  *gy = (n + *gx - 1) / *gx;
  if (*gy < 1) *gy = 1;
}

}  // namespace

STRPartitioner::STRPartitioner(int num_partitions) {
  ST4ML_CHECK(num_partitions > 0) << "num_partitions must be positive";
  GridShape(num_partitions, &tiling_.gx, &tiling_.gy);
  tiling_.y_splits.resize(tiling_.gx);
}

void STRPartitioner::Train(const std::vector<STBox>& boxes) {
  std::vector<partition_internal::RankedKey> all(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) all[i].index = i;
  int gx = tiling_.gx;
  int gy = tiling_.gy;
  tiling_ = partition_internal::BuildStrTiling(boxes, all.data(), all.size(),
                                               gx, gy);
}

std::vector<int> STRPartitioner::Assign(const STBox& box, bool duplicate,
                                        uint64_t record_id) const {
  (void)record_id;
  if (!duplicate) {
    return {tiling_.TileOf(partition_internal::CenterX(box),
                           partition_internal::CenterY(box))};
  }
  std::vector<int> out;
  tiling_.IntersectingTiles(box.mbr, 0, &out);
  return out;
}

TSTRPartitioner::TSTRPartitioner(int temporal_slices, int spatial_tiles)
    : temporal_slices_(temporal_slices) {
  ST4ML_CHECK(temporal_slices > 0 && spatial_tiles > 0)
      << "slice and tile counts must be positive";
  GridShape(spatial_tiles, &gsx_, &gsy_);
  tiles_per_slice_ = gsx_ * gsy_;
  tilings_.resize(temporal_slices_);
  for (auto& tiling : tilings_) {
    tiling.gx = gsx_;
    tiling.gy = gsy_;
    tiling.y_splits.resize(gsx_);
  }
}

void TSTRPartitioner::Train(const std::vector<STBox>& boxes) {
  using partition_internal::CenterT;
  using partition_internal::RankedKey;
  std::vector<RankedKey> by_t(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    by_t[i] = RankedKey{partition_internal::OrderKey(CenterT(boxes[i])), i};
  }
  t_splits_ = partition_internal::SelectCuts<int64_t>(
      &by_t, temporal_slices_, [&](uint64_t i) { return CenterT(boxes[i]); });

  // Slice membership by time-center rank, then an independent 2-d STR
  // tiling per slice — this is what lets spatial boundaries adapt to where
  // the data actually was during each time slice.
  tilings_.assign(temporal_slices_, partition_internal::StrTiling{});
  for (int s = 0; s < temporal_slices_; ++s) {
    size_t lo = by_t.size() * static_cast<size_t>(s) / temporal_slices_;
    size_t hi = by_t.size() * static_cast<size_t>(s + 1) / temporal_slices_;
    tilings_[s] = partition_internal::BuildStrTiling(boxes, by_t.data() + lo,
                                                     hi - lo, gsx_, gsy_);
  }
}

std::vector<int> TSTRPartitioner::Assign(const STBox& box, bool duplicate,
                                         uint64_t record_id) const {
  (void)record_id;
  if (!duplicate) {
    int slice = static_cast<int>(
        std::upper_bound(t_splits_.begin(), t_splits_.end(),
                         partition_internal::CenterT(box)) -
        t_splits_.begin());
    int tile = tilings_[slice].TileOf(partition_internal::CenterX(box),
                                      partition_internal::CenterY(box));
    return {slice * tiles_per_slice_ + tile};
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Like StrTiling::IntersectingTiles: a slicing trained on fewer centers
  // than slices leaves the untrained slices empty.
  int slices =
      std::min(temporal_slices_, static_cast<int>(t_splits_.size()) + 1);
  std::vector<int> out;
  for (int s = 0; s < slices; ++s) {
    int64_t t_lo = s == 0 ? kMin : t_splits_[s - 1];
    int64_t t_hi = s == slices - 1 ? kMax : t_splits_[s];
    if (box.time.start() > t_hi || box.time.end() < t_lo) continue;
    tilings_[s].IntersectingTiles(box.mbr, s * tiles_per_slice_, &out);
  }
  return out;
}

}  // namespace st4ml

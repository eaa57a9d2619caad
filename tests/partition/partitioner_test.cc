#include "partition/partitioner.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/dataset.h"
#include "engine/execution_context.h"
#include "instances/instances.h"
#include "partition/balance.h"
#include "partition/baseline_partitioners.h"
#include "partition/hash_partitioner.h"
#include "partition/quadtree_partitioner.h"
#include "partition/st_partition_ops.h"
#include "partition/str_partitioner.h"
#include "partition/tbalance_partitioner.h"
#include "storage/records.h"

namespace st4ml {
namespace {

std::vector<STBox> ClusteredBoxes(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<STBox> boxes;
  boxes.reserve(n);
  for (int i = 0; i < n; ++i) {
    double cx = rng.Bernoulli(0.5) ? 20.0 : 80.0;
    double x = rng.Gaussian(cx, 8.0), y = rng.Gaussian(50.0, 20.0);
    int64_t t = rng.UniformInt(0, 100000);
    boxes.push_back(STBox(Mbr(x, y, x + 0.5, y + 0.5), Duration(t, t + 60)));
  }
  return boxes;
}

std::vector<std::unique_ptr<STPartitioner>> AllPartitioners() {
  std::vector<std::unique_ptr<STPartitioner>> out;
  out.push_back(std::make_unique<HashPartitioner>(16));
  out.push_back(std::make_unique<STRPartitioner>(16));
  out.push_back(std::make_unique<TSTRPartitioner>(4, 4));
  out.push_back(std::make_unique<QuadTreePartitioner>(16));
  out.push_back(std::make_unique<TBalancePartitioner>(16));
  out.push_back(std::make_unique<KDBPartitioner>(16));
  out.push_back(std::make_unique<GridPartitioner>(16));
  return out;
}

TEST(PartitionerTest, PrimaryAssignmentIsSingleAndInRange) {
  auto boxes = ClusteredBoxes(2000, 5);
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    EXPECT_GT(p->num_partitions(), 0);
    for (size_t i = 0; i < boxes.size(); ++i) {
      std::vector<int> assigned =
          p->Assign(boxes[i], /*duplicate=*/false, static_cast<uint64_t>(i));
      ASSERT_EQ(assigned.size(), 1u);
      EXPECT_GE(assigned[0], 0);
      EXPECT_LT(assigned[0], p->num_partitions());
    }
  }
}

TEST(PartitionerTest, DuplicateAssignmentIncludesPrimary) {
  auto boxes = ClusteredBoxes(500, 6);
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    for (size_t i = 0; i < boxes.size(); ++i) {
      int primary =
          p->Assign(boxes[i], false, static_cast<uint64_t>(i))[0];
      std::vector<int> all =
          p->Assign(boxes[i], true, static_cast<uint64_t>(i));
      EXPECT_FALSE(all.empty());
      EXPECT_NE(std::find(all.begin(), all.end(), primary), all.end())
          << "duplicate assignment must contain the primary partition";
      for (int q : all) {
        EXPECT_GE(q, 0);
        EXPECT_LT(q, p->num_partitions());
      }
    }
  }
}

TEST(PartitionerTest, OutOfExtentRecordsStillLand) {
  auto boxes = ClusteredBoxes(300, 7);
  STBox far(Mbr(1e6, 1e6, 1e6 + 1, 1e6 + 1), Duration(1 << 30, (1 << 30) + 1));
  for (auto& p : AllPartitioners()) {
    p->Train(boxes);
    auto assigned = p->Assign(far, false, 999);
    ASSERT_EQ(assigned.size(), 1u);
    EXPECT_LT(assigned[0], p->num_partitions());
  }
}

TEST(PartitionerTest, StrBeatsHashOnSpatialLocality) {
  auto boxes = ClusteredBoxes(3000, 8);
  STRPartitioner str(16);
  HashPartitioner hash(16);
  str.Train(boxes);
  hash.Train(boxes);
  auto bounds_of = [&](const STPartitioner& p) {
    std::vector<int> assignment;
    assignment.reserve(boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      assignment.push_back(p.Assign(boxes[i], false, i)[0]);
    }
    return PartitionContentBounds(boxes, assignment, p.num_partitions());
  };
  double str_overlap = OverlapRatio(bounds_of(str));
  double hash_overlap = OverlapRatio(bounds_of(hash));
  EXPECT_LT(str_overlap, hash_overlap);
}

TEST(PartitionerTest, TstrSlicesTimeFirst) {
  // Two well-separated temporal clusters: T-STR must never mix them in one
  // partition when trained with two temporal slices.
  std::vector<STBox> boxes;
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    int64_t t = (i % 2 == 0) ? rng.UniformInt(0, 100)
                             : rng.UniformInt(1000000, 1000100);
    double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    boxes.push_back(STBox(Mbr(x, y, x, y), Duration(t, t)));
  }
  TSTRPartitioner tstr(2, 4);
  tstr.Train(boxes);
  std::vector<Duration> spans(static_cast<size_t>(tstr.num_partitions()),
                              Duration(int64_t{1} << 60, int64_t{1} << 60));
  std::vector<bool> seen(static_cast<size_t>(tstr.num_partitions()), false);
  for (size_t i = 0; i < boxes.size(); ++i) {
    int part = tstr.Assign(boxes[i], false, i)[0];
    if (!seen[part]) {
      spans[part] = boxes[i].time;
      seen[part] = true;
    } else {
      spans[part].Extend(boxes[i].time);
    }
  }
  for (size_t q = 0; q < spans.size(); ++q) {
    if (seen[q]) {
      EXPECT_LT(spans[q].Seconds(), 500000) << "partition " << q;
    }
  }
}

TEST(BalanceTest, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({5, 5, 5, 5}), 0.0);
  EXPECT_GT(CoefficientOfVariation({1, 9, 1, 9}), 0.5);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({}), 0.0);
}

TEST(STPartitionTest, RedistributesRecordsAndTrains) {
  auto ctx = ExecutionContext::Create(2);
  std::vector<STEvent> events;
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    STEvent e;
    e.spatial = Point(rng.Uniform(0, 100), rng.Uniform(0, 100));
    e.temporal = Duration(rng.UniformInt(0, 1000));
    e.data.id = i;
    events.push_back(e);
  }
  auto data = Dataset<STEvent>::Parallelize(ctx, events, 4);
  TSTRPartitioner tstr(2, 2);
  auto partitioned = TrySTPartition(
      data, &tstr, [](const STEvent& e) { return e.ComputeSTBox(); },
      [](const STEvent& e) { return static_cast<uint64_t>(e.data.id); });
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  EXPECT_EQ(partitioned->num_partitions(),
            static_cast<size_t>(tstr.num_partitions()));
  EXPECT_EQ(partitioned->Count(), events.size());
}

// ---- TrySTPartition placement: the parallel, bucketed placement must be
// byte-identical to the serial one, whatever the worker and source
// partition counts, and moving a sole-owned input must equal copying a
// shared one.

std::vector<TrajRecord> SomeTrajs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TrajRecord> trajs;
  for (int i = 0; i < n; ++i) {
    TrajRecord r;
    r.id = i;
    double x = rng.Uniform(0, 100);
    double y = rng.Uniform(0, 100);
    // Coarse times: many trajectories share a time center.
    int64_t t = rng.UniformInt(0, 40) * 100;
    int points = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < points; ++k) {
      TrajPointRecord p;
      p.x = x + rng.Uniform(0, 6);
      p.y = y + rng.Uniform(0, 6);
      p.time = t + k * 30;
      r.points.push_back(p);
    }
    trajs.push_back(std::move(r));
  }
  return trajs;
}

/// Id plus every point's bytes: equal strings mean identical records.
std::string RecordBytes(const TrajRecord& r) {
  std::string out(reinterpret_cast<const char*>(&r.id), sizeof(r.id));
  for (const TrajPointRecord& p : r.points) {
    out.append(reinterpret_cast<const char*>(&p), sizeof(p));
  }
  return out;
}

using Layout = std::vector<std::vector<std::string>>;

Layout LayoutOf(const Dataset<TrajRecord>& data) {
  Layout out(data.num_partitions());
  for (size_t p = 0; p < data.num_partitions(); ++p) {
    for (const TrajRecord& r : data.partition(p)) {
      out[p].push_back(RecordBytes(r));
    }
  }
  return out;
}

/// The serial placement TrySTPartition must reproduce: train on every
/// envelope in scan order, then place records one by one.
struct SerialPlacement {
  Layout layout;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

SerialPlacement PlaceSerially(const std::vector<TrajRecord>& trajs,
                              bool duplicate) {
  std::vector<STBox> boxes;
  for (const TrajRecord& r : trajs) boxes.push_back(r.ComputeSTBox());
  TSTRPartitioner tstr(4, 4);
  tstr.Train(boxes);
  SerialPlacement out;
  out.layout.resize(static_cast<size_t>(tstr.num_partitions()));
  for (size_t i = 0; i < trajs.size(); ++i) {
    for (int p : tstr.Assign(boxes[i], duplicate,
                             static_cast<uint64_t>(trajs[i].id))) {
      out.layout[static_cast<size_t>(p)].push_back(RecordBytes(trajs[i]));
      out.records += 1;
      out.bytes += ApproxShuffleBytes(trajs[i]);
    }
  }
  return out;
}

StatusOr<Dataset<TrajRecord>> PlaceInParallel(Dataset<TrajRecord> data,
                                              bool duplicate) {
  TSTRPartitioner tstr(4, 4);
  STPartitionOptions options;
  options.duplicate = duplicate;
  return TrySTPartition(
      std::move(data), &tstr,
      [](const TrajRecord& r) { return r.ComputeSTBox(); },
      [](const TrajRecord& r) { return static_cast<uint64_t>(r.id); },
      options);
}

TEST(STPartitionTest, ParallelPlacementEqualsSerialPlacement) {
  auto trajs = SomeTrajs(1500, 21);
  for (bool duplicate : {false, true}) {
    SerialPlacement reference = PlaceSerially(trajs, duplicate);
    if (duplicate) {
      ASSERT_GT(reference.records, trajs.size());
    }
    for (int workers : {1, 2, 8}) {
      for (size_t sources : {1, 3, 8, 64}) {
        SCOPED_TRACE("duplicate=" + std::to_string(duplicate) +
                     " workers=" + std::to_string(workers) +
                     " sources=" + std::to_string(sources));
        auto ctx = ExecutionContext::Create(workers);
        auto placed = PlaceInParallel(
            Dataset<TrajRecord>::Parallelize(ctx, trajs, sources), duplicate);
        ASSERT_TRUE(placed.ok()) << placed.status().ToString();
        EXPECT_EQ(LayoutOf(*placed), reference.layout);
        MetricsSnapshot snap = ctx->MetricsSnapshot();
        EXPECT_EQ(snap[Counter::kShuffleRecordsStPartition],
                  reference.records);
        EXPECT_EQ(snap[Counter::kShuffleBytesStPartition], reference.bytes);
      }
    }
  }
}

TEST(STPartitionTest, SoleOwnerMovesAndSharedCopiesAgree) {
  auto trajs = SomeTrajs(800, 22);
  auto ctx = ExecutionContext::Create(4);
  for (bool duplicate : {false, true}) {
    auto shared = Dataset<TrajRecord>::Parallelize(ctx, trajs, 5);
    auto copied = PlaceInParallel(shared, duplicate);  // handle copy: shared
    auto moved = PlaceInParallel(
        Dataset<TrajRecord>::Parallelize(ctx, trajs, 5), duplicate);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(LayoutOf(*copied), LayoutOf(*moved));
    // The shared source is untouched: still every record, in scan order.
    std::vector<TrajRecord> survived = shared.Collect();
    ASSERT_EQ(survived.size(), trajs.size());
    for (size_t i = 0; i < trajs.size(); ++i) {
      EXPECT_EQ(RecordBytes(survived[i]), RecordBytes(trajs[i])) << i;
    }
  }
}

TEST(STPartitionTest, TinyInputDuplicatePlacementStaysInRange) {
  // Fewer training records than slices and tiles leaves untrained slices
  // and slabs; duplicate assignment must treat them as empty, not read
  // cuts they do not have.
  for (int n : {1, 2, 5}) {
    auto trajs = SomeTrajs(n, 23);
    auto ctx = ExecutionContext::Create(2);
    auto placed = PlaceInParallel(
        Dataset<TrajRecord>::Parallelize(ctx, trajs, 1), /*duplicate=*/true);
    ASSERT_TRUE(placed.ok()) << placed.status().ToString();
    EXPECT_EQ(LayoutOf(*placed), PlaceSerially(trajs, true).layout);
    EXPECT_GE(placed->Count(), trajs.size());
  }
}

// ---- Training by rank selection on tie-heavy input: group membership is
// the stable (center, scan index) order, so equal-count groups stay exactly
// equal and the tiling is a function of the input alone.

std::vector<partition_internal::RankedKey> AllMembers(size_t n) {
  std::vector<partition_internal::RankedKey> members(n);
  for (size_t i = 0; i < n; ++i) members[i].index = i;
  return members;
}

TEST(StrTrainingTest, TiedXCentersSplitSlabsByScanOrder) {
  // Every x center ties; y is the scan index, so each slab's y cuts reveal
  // exactly which records it was trained on.
  constexpr int kGx = 3;
  constexpr int kGy = 4;
  const size_t n = 1000;
  std::vector<STBox> boxes;
  for (size_t i = 0; i < n; ++i) {
    double y = static_cast<double>(i);
    boxes.push_back(STBox(Mbr(5.0, y, 5.0, y), Duration(0)));
  }
  auto members = AllMembers(n);
  auto tiling = partition_internal::BuildStrTiling(boxes, members.data(), n,
                                                   kGx, kGy);
  ASSERT_EQ(tiling.x_splits.size(), static_cast<size_t>(kGx - 1));
  for (double cut : tiling.x_splits) EXPECT_EQ(cut, 5.0);
  for (int slab = 0; slab < kGx; ++slab) {
    size_t lo = n * slab / kGx;
    size_t hi = n * (slab + 1) / kGx;
    std::vector<double> expected;
    for (int k = 1; k < kGy; ++k) {
      expected.push_back(static_cast<double>(lo + (hi - lo) * k / kGy));
    }
    EXPECT_EQ(tiling.y_splits[slab], expected) << "slab " << slab;
  }
}

TEST(StrTrainingTest, TiedTimeCentersSplitSlicesByScanOrder) {
  // One shared time center: slice membership must follow scan order, which
  // duplicate assignment exposes through every slice's own tiling.
  constexpr int kSlices = 4;
  const size_t n = 2000;
  Rng rng(31);
  std::vector<STBox> boxes;
  for (size_t i = 0; i < n; ++i) {
    // Each scan-order quarter lives in its own x band, so a slice trained
    // on the wrong records gets visibly wrong cuts.
    double x = static_cast<double>(i * kSlices / n) * 100 + rng.Uniform(0, 50);
    double y = rng.Uniform(0, 100);
    boxes.push_back(STBox(Mbr(x, y, x, y), Duration(7778)));
  }
  TSTRPartitioner tstr(kSlices, 4);
  tstr.Train(boxes);
  std::vector<partition_internal::StrTiling> expected;
  auto members = AllMembers(n);
  for (int s = 0; s < kSlices; ++s) {
    size_t lo = n * s / kSlices;
    size_t hi = n * (s + 1) / kSlices;
    expected.push_back(partition_internal::BuildStrTiling(
        boxes, members.data() + lo, hi - lo, 2, 2));
  }
  for (size_t i = 0; i < n; i += 7) {
    std::vector<int> want;
    for (int s = 0; s < kSlices; ++s) {
      expected[s].IntersectingTiles(boxes[i].mbr, s * 4, &want);
    }
    EXPECT_EQ(tstr.Assign(boxes[i], /*duplicate=*/true, i), want) << i;
  }
}

TEST(StrTrainingTest, TieHeavyTilingIsIdenticalAcrossCallsAndWorkers) {
  // All centers equal, plus a second population with many equal times.
  std::vector<TrajRecord> trajs(600);
  for (size_t i = 0; i < trajs.size(); ++i) {
    trajs[i].id = static_cast<int64_t>(i);
    trajs[i].points.push_back(TrajPointRecord{1.0, 2.0, 50});
  }
  auto mixed = SomeTrajs(900, 24);
  for (TrajRecord& r : mixed) {
    r.id += 600;
    trajs.push_back(std::move(r));
  }
  std::vector<STBox> boxes;
  for (const TrajRecord& r : trajs) boxes.push_back(r.ComputeSTBox());
  TSTRPartitioner first(4, 4);
  TSTRPartitioner again(4, 4);
  first.Train(boxes);
  again.Train(boxes);
  again.Train(boxes);  // retraining replaces, never accumulates
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(first.Assign(boxes[i], true, i), again.Assign(boxes[i], true, i));
  }
  Layout reference;
  for (int workers : {1, 2, 8}) {
    auto ctx = ExecutionContext::Create(workers);
    auto placed = PlaceInParallel(
        Dataset<TrajRecord>::Parallelize(ctx, trajs, 7), /*duplicate=*/false);
    ASSERT_TRUE(placed.ok()) << placed.status().ToString();
    if (reference.empty()) {
      reference = LayoutOf(*placed);
      EXPECT_EQ(reference, PlaceSerially(trajs, false).layout);
    } else {
      EXPECT_EQ(LayoutOf(*placed), reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace st4ml

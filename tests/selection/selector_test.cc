#include "selection/selector.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/execution_context.h"
#include "selection/on_disk_index.h"
#include "storage/records.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("st4ml_selector_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<EventRecord> RandomEvents(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    EventRecord r;
    r.id = i;
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = "e";
    events.push_back(r);
  }
  return events;
}

std::vector<int64_t> SortedIds(const Dataset<EventRecord>& data) {
  std::vector<int64_t> ids;
  for (const EventRecord& r : data.Collect()) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> ReferenceIds(const std::vector<EventRecord>& events,
                                  const STBox& query) {
  std::vector<int64_t> ids;
  for (const EventRecord& r : events) {
    if (r.ComputeSTBox().Intersects(query)) ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class SelectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = ExecutionContext::Create(2);
    events_ = RandomEvents(3000, 31);
    dir_ = TempDir("index");
    meta_ = dir_ + "/index.meta";
    auto data = Dataset<EventRecord>::Parallelize(ctx_, events_, 4);
    TSTRPartitioner partitioner(4, 4);
    ASSERT_TRUE(BuildOnDiskIndex(data, &partitioner, dir_, meta_).ok());
  }

  std::shared_ptr<ExecutionContext> ctx_;
  std::vector<EventRecord> events_;
  std::string dir_;
  std::string meta_;
};

TEST_F(SelectorTest, FullScanMatchesReferencePredicate) {
  std::vector<STBox> queries = {
      STBox(Mbr(10, 10, 40, 40), Duration(0, 50000)),
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)),
      STBox(Mbr(70, 70, 71, 71), Duration(90000, 90001)),
      STBox(Mbr(200, 200, 300, 300), Duration(0, 100000)),  // empty result
  };
  for (const STBox& query : queries) {
    Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query));
    auto selected = selector.Select(dir_);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
  }
}

TEST_F(SelectorTest, MetaPrunedEqualsFullScan) {
  std::vector<STBox> queries = {
      STBox(Mbr(10, 10, 40, 40), Duration(0, 50000)),
      STBox(Mbr(50, 0, 100, 30), Duration(25000, 75000)),
      STBox(Mbr(0, 0, 5, 5), Duration(0, 5000)),
  };
  for (const STBox& query : queries) {
    Selector<EventRecord> full(ctx_, SelectQuery::FromBox(query));
    Selector<EventRecord> pruned(ctx_, SelectQuery::FromBox(query));
    auto full_result = full.Select(dir_);
    auto pruned_result = pruned.Select(dir_, meta_);
    ASSERT_TRUE(full_result.ok());
    ASSERT_TRUE(pruned_result.ok()) << pruned_result.status().ToString();
    EXPECT_EQ(SortedIds(*pruned_result), SortedIds(*full_result));
  }
}

TEST_F(SelectorTest, PruningLoadsFewerBytesOnSelectiveQuery) {
  STBox query(Mbr(5, 5, 15, 15), Duration(0, 10000));
  // Pin the linear-scan plan: under the mmap index BOTH selectors already
  // read only matching bytes, which is a different assertion (below).
  SelectorOptions options;
  options.use_disk_index = false;
  Selector<EventRecord> full(ctx_, SelectQuery::FromBox(query), options);
  Selector<EventRecord> pruned(ctx_, SelectQuery::FromBox(query), options);
  ASSERT_TRUE(full.Select(dir_).ok());
  ASSERT_TRUE(pruned.Select(dir_, meta_).ok());
  EXPECT_GT(full.stats().bytes_loaded, 0u);
  EXPECT_LT(pruned.stats().bytes_loaded, full.stats().bytes_loaded);
  EXPECT_EQ(pruned.stats().bytes_selected, full.stats().bytes_selected);
}

TEST_F(SelectorTest, MmapIndexMatchesLinearScanAndReadsFewerBytes) {
  STBox query(Mbr(5, 5, 25, 25), Duration(0, 30000));
  SelectorOptions with_index;
  with_index.use_disk_index = true;
  SelectorOptions without;
  without.use_disk_index = false;
  Selector<EventRecord> indexed(ctx_, SelectQuery::FromBox(query), with_index);
  Selector<EventRecord> scanned(ctx_, SelectQuery::FromBox(query), without);
  auto ri = indexed.Select(dir_, meta_);
  auto rs = scanned.Select(dir_, meta_);
  ASSERT_TRUE(ri.ok()) << ri.status().ToString();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(SortedIds(*ri), SortedIds(*rs));
  EXPECT_EQ(SortedIds(*ri), ReferenceIds(events_, query));
  // The selective query keeps a small fraction; ranged reads must beat
  // parsing the surviving files end to end.
  EXPECT_GT(scanned.stats().bytes_loaded, 0u);
  EXPECT_LT(indexed.stats().bytes_loaded, scanned.stats().bytes_loaded);
  EXPECT_EQ(indexed.stats().bytes_selected, scanned.stats().bytes_selected);
}

TEST_F(SelectorTest, IdPredicateComposesIdenticallyAcrossPlans) {
  std::vector<int64_t> wanted = {7, 250, 251, 252, 1999, 2998, 5000};
  SelectQuery id_only = SelectQuery::FromIds(wanted);
  SelectQuery id_and_box = SelectQuery::FromIds(wanted);
  id_and_box.box = STBox(Mbr(0, 0, 60, 60), Duration(0, 100000));
  for (const SelectQuery& query : {id_only, id_and_box}) {
    std::vector<int64_t> expected;
    for (const EventRecord& r : events_) {
      if (query.MatchesId(r.id) && r.ComputeSTBox().Intersects(query.box)) {
        expected.push_back(r.id);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (bool disk_index : {false, true}) {
      SelectorOptions options;
      options.use_disk_index = disk_index;
      Selector<EventRecord> selector(ctx_, query, options);
      auto selected = selector.Select(dir_, meta_);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(SortedIds(*selected), expected)
          << "disk_index=" << disk_index;
    }
  }
}

TEST_F(SelectorTest, EmptyIdSetMatchesNothing) {
  SelectQuery query = SelectQuery::FromBox(
      STBox(Mbr(0, 0, 100, 100), Duration(0, 100000)));
  query.SetIds({});
  for (bool disk_index : {false, true}) {
    SelectorOptions options;
    options.use_disk_index = disk_index;
    Selector<EventRecord> selector(ctx_, query, options);
    auto selected = selector.Select(dir_, meta_);
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(selected->Count(), 0u) << "disk_index=" << disk_index;
  }
}

TEST_F(SelectorTest, RtreeRefineMatchesLinearRefine) {
  STBox query(Mbr(20, 20, 60, 60), Duration(10000, 80000));
  SelectorOptions with_tree;
  with_tree.use_rtree = true;
  SelectorOptions linear;
  linear.use_rtree = false;
  Selector<EventRecord> a(ctx_, SelectQuery::FromBox(query), with_tree);
  Selector<EventRecord> b(ctx_, SelectQuery::FromBox(query), linear);
  auto ra = a.Select(dir_, meta_);
  auto rb = b.Select(dir_, meta_);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(SortedIds(*ra), SortedIds(*rb));
}

TEST_F(SelectorTest, PartitionAfterSelectRedistributes) {
  STBox query(Mbr(0, 0, 100, 100), Duration(0, 100000));
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(2, 2);
  options.partition_after_select = true;
  Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query), options);
  auto selected = selector.Select(dir_, meta_);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->num_partitions(),
            static_cast<size_t>(options.partitioner->num_partitions()));
  EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
}

TEST_F(SelectorTest, PersistDatasetSupportsFullScanOnly) {
  std::string plain = TempDir("plain");
  auto data = Dataset<EventRecord>::Parallelize(ctx_, events_, 3);
  ASSERT_TRUE(PersistDataset(data, plain).ok());
  STBox query(Mbr(30, 30, 70, 70), Duration(20000, 60000));
  Selector<EventRecord> selector(ctx_, SelectQuery::FromBox(query));
  auto selected = selector.Select(plain);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(SortedIds(*selected), ReferenceIds(events_, query));
}

}  // namespace
}  // namespace st4ml

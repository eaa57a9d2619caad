// The `apps` workload: the eight Table 7 feature-extraction apps (the
// ST4ML-B calls of the paper's Table 8) run back to back over seeded,
// shaped query batches at the 100% data scale, each Selection ->
// Conversion -> Extraction, with the dataset cache off (the paper's
// from-disk setup; the OS page cache is warm after setup). Every result is
// checked against the app's ST4ML-C twin, computed once per query during
// setup outside the timed region.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "datagen/generators.h"
#include "engine/execution_context.h"
#include "extraction/collective_extractors.h"
#include "extraction/event_extractors.h"
#include "extraction/extractor.h"
#include "extraction/rdd_api.h"
#include "extraction/traj_extractors.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "temporal/duration.h"

namespace e2ebench {
namespace {

using namespace st4ml;
namespace fs = std::filesystem;

struct Layout {
  std::string dir;
  std::string meta;
};

/// The staged inputs of one run: four T-STR-partitioned STPQ layouts with
/// `.stix` sidecars plus the in-memory structures the apps convert onto.
struct AppsData {
  Layout nyc, porto, air, osm;
  Mbr nyc_extent, porto_extent, air_extent, osm_extent;
  Duration nyc_range, porto_range, air_range;
  std::vector<Polygon> postal_areas;
  std::vector<Polygon> road_cells;
};

template <typename RecordT>
void StageLayout(const std::shared_ptr<ExecutionContext>& ctx,
                 std::vector<RecordT> records, const Layout& layout, int gt,
                 int gs) {
  fs::create_directories(layout.dir);
  auto data = Dataset<RecordT>::Parallelize(ctx, std::move(records), 16);
  TSTRPartitioner partitioner(gt, gs);
  Status staged = BuildOnDiskIndex(data, &partitioner, layout.dir, layout.meta);
  if (!staged.ok()) {
    std::fprintf(stderr, "apps: staging %s failed: %s\n", layout.dir.c_str(),
                 staged.ToString().c_str());
    std::exit(1);
  }
}

/// Buffered-rectangle cells around every other road segment (one per
/// physical road): the irregular cells air-over-road aggregates over.
std::vector<Polygon> RoadCells(const RoadNetwork& network, double buffer_deg,
                               size_t max_cells) {
  std::vector<Polygon> cells;
  for (size_t i = 0; i < network.num_segments() && cells.size() < max_cells;
       i += 2) {
    Mbr box = network.segment(static_cast<int32_t>(i)).shape.ComputeMbr();
    cells.push_back(Polygon::FromMbr(box.Buffered(buffer_deg)));
  }
  return cells;
}

/// Generates every dataset from the seed and writes its on-disk layout —
/// the part of setup the benchmark times.
AppsData Stage(const std::shared_ptr<ExecutionContext>& ctx,
               const std::string& root, uint64_t seed, double scale) {
  AppsData d;
  auto layout = [&](const std::string& name) {
    return Layout{root + "/" + name, root + "/" + name + ".meta"};
  };
  d.nyc = layout("nyc");
  d.porto = layout("porto");
  d.air = layout("air");
  d.osm = layout("osm");

  NycEventOptions nyc;
  nyc.count = static_cast<int64_t>(240000 * scale);
  nyc.seed = MixSeed(seed, 1);
  StageLayout(ctx, GenerateNycEvents(nyc), d.nyc, 6, 8);
  d.nyc_extent = nyc.extent;
  d.nyc_range = nyc.range;

  PortoTrajOptions porto;
  porto.count = static_cast<int64_t>(12000 * scale);
  porto.seed = MixSeed(seed, 2);
  StageLayout(ctx, GeneratePortoTrajectories(porto), d.porto, 6, 8);
  d.porto_extent = porto.extent;
  d.porto_range = porto.range;

  AirQualityOptions air;
  air.seed = MixSeed(seed, 3);
  if (scale < 1) air.range = Duration(air.range.start(), air.range.start() +
                                      static_cast<int64_t>(30 * 86400 * scale));
  StageLayout(ctx, GenerateAirQuality(air), d.air, 5, 6);
  d.air_extent = air.extent;
  d.air_range = air.range;

  OsmOptions osm;
  osm.poi_count = static_cast<int64_t>(40000 * scale);
  osm.seed = MixSeed(seed, 7);
  OsmData osm_data = GenerateOsm(osm);
  d.postal_areas = std::move(osm_data.postal_areas);
  StageLayout(ctx, std::move(osm_data.pois), d.osm, 1, 32);
  d.osm_extent = osm.extent;

  RoadNetworkOptions roads;
  roads.extent = air.extent;
  roads.seed = MixSeed(seed, 11);
  d.road_cells = RoadCells(*GenerateRoadNetwork(roads), 0.01, 400);
  return d;
}

/// Per-query context the app bodies share: where to log layer spans.
struct Call {
  const std::shared_ptr<ExecutionContext>& ctx;
  const AppsData& data;
  SpanLog* log;  // null in untraced rounds
  int app;
  int parent;
};

/// Runs `fn` inside a layer span of the current query.
template <typename Fn>
auto InSpan(const Call& c, SpanKind kind, Fn&& fn) {
  Span span(c.log, kind, c.app, c.parent);
  return fn();
}

template <typename RecordT>
std::optional<Dataset<RecordT>> SelectRaw(const Call& c, const Layout& layout,
                                          const STBox& box) {
  Span span(c.log, SpanKind::kSelect, c.app, c.parent);
  SelectorOptions options;
  options.partitioner = std::make_shared<TSTRPartitioner>(4, 4);
  Selector<RecordT> selector(c.ctx, SelectQuery::FromBox(box), options);
  auto selected = selector.Select(layout.dir, layout.meta);
  if (!selected.ok()) {
    std::fprintf(stderr, "apps: select failed: %s\n",
                 selected.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(selected).value();
}

std::optional<Dataset<STEvent>> SelectEvents(const Call& c,
                                             const Layout& layout,
                                             const STBox& box) {
  auto raw = SelectRaw<EventRecord>(c, layout, box);
  if (!raw) return std::nullopt;
  return InSpan(c, SpanKind::kParse, [&] { return ParseEvents(*raw); });
}

std::optional<Dataset<STTrajectory>> SelectTrajs(const Call& c,
                                                 const Layout& layout,
                                                 const STBox& box) {
  auto raw = SelectRaw<TrajRecord>(c, layout, box);
  if (!raw) return std::nullopt;
  return InSpan(c, SpanKind::kParse, [&] { return ParseTrajs(*raw); });
}

// ---- ST4ML-B: the built-in operators, timed per layer. ----

std::optional<size_t> AnomalyB(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.nyc, q);
  if (!events) return std::nullopt;
  return InSpan(c, SpanKind::kExtract,
                [&] { return ExtractAnomalies(*events, 23, 4).Count(); });
}

std::optional<size_t> AvgSpeedB(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  return InSpan(c, SpanKind::kExtract, [&] {
    auto speeds = ExtractTrajSpeeds(*trajs, SpeedUnit::kKilometersPerHour);
    size_t moving = 0;
    for (const auto& [id, kmh] : speeds.Collect()) {
      if (kmh > 1.0) ++moving;
    }
    return moving;
  });
}

std::optional<size_t> StayPointB(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  return InSpan(c, SpanKind::kExtract, [&] {
    auto stays = ExtractStayPoints(*trajs, 200.0, 600);
    size_t total = 0;
    for (const auto& [id, points] : stays.Collect()) total += points.size();
    return total;
  });
}

std::optional<size_t> HourlyFlowB(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.nyc, q);
  if (!events) return std::nullopt;
  auto converted = InSpan(c, SpanKind::kConvert, [&] {
    Event2TsConverter<STEvent> converter(
        std::make_shared<const TemporalStructure>(
            TemporalStructure::RegularByInterval(q.time, 3600)));
    return converter.Convert(*events);
  });
  return InSpan(c, SpanKind::kExtract, [&] {
    TimeSeries<int64_t> flow = ExtractTsFlow(converted);
    size_t total = 0;
    for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
    return total;
  });
}

std::optional<size_t> GridSpeedB(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  auto converted = InSpan(c, SpanKind::kConvert, [&] {
    Traj2SmConverter<STTrajectory> converter(
        std::make_shared<const SpatialStructure>(
            SpatialStructure::Grid(q.mbr, 48, 48)));
    return converter.Convert(*trajs);
  });
  return InSpan(c, SpanKind::kExtract, [&] {
    SpatialMap<double> speed =
        ExtractSmSpeed(converted, SpeedUnit::kKilometersPerHour);
    size_t occupied = 0;
    for (size_t i = 0; i < speed.size(); ++i) {
      if (speed.value(i) > 0) ++occupied;
    }
    return occupied;
  });
}

std::shared_ptr<const RasterStructure> TransitionRaster(const STBox& q) {
  return std::make_shared<const RasterStructure>(RasterStructure::Regular(
      q.mbr, 16, 16, q.time,
      std::max(1, static_cast<int>(q.time.Seconds() / 3600))));
}

std::optional<size_t> TransitionB(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  auto converted = InSpan(c, SpanKind::kConvert, [&] {
    Traj2RasterConverter<STTrajectory> converter(TransitionRaster(q));
    return converter.Convert(*trajs);
  });
  return InSpan(c, SpanKind::kExtract, [&] {
    auto transit = ExtractRasterTransit(converted);
    size_t total = 0;
    for (size_t i = 0; i < transit.size(); ++i) {
      total += transit.value(i).first + transit.value(i).second;
    }
    return total;
  });
}

std::shared_ptr<const RasterStructure> RoadRaster(const AppsData& d,
                                                  const STBox& q) {
  return std::make_shared<const RasterStructure>(RasterStructure::CrossProduct(
      d.road_cells, TemporalSliding(q.time, 86400)));
}

std::optional<size_t> AirOverRoadB(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.air, q);
  if (!events) return std::nullopt;
  auto converted = InSpan(c, SpanKind::kConvert, [&] {
    Event2RasterConverter<STEvent> converter(RoadRaster(c.data, q));
    auto pre = [](const STEvent& e) { return std::atof(e.data.attr.c_str()); };
    auto agg = [](const std::vector<double>& values) {
      MeanAcc acc;
      for (double v : values) acc.Add(v);
      return acc;
    };
    return converter.Convert(*events, pre, agg);
  });
  return InSpan(c, SpanKind::kExtract, [&] {
    Raster<MeanAcc> merged =
        CollectAndMerge(converted, MeanAcc{},
                        [](MeanAcc a, const MeanAcc& b) { return a + b; });
    size_t covered = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged.value(i).count > 0) ++covered;
    }
    return covered;
  });
}

std::optional<size_t> PoiCountB(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.osm, STBox(q.mbr, Duration(0)));
  if (!events) return std::nullopt;
  auto converted = InSpan(c, SpanKind::kConvert, [&] {
    Event2SmConverter<STEvent> converter(
        std::make_shared<const SpatialStructure>(
            SpatialStructure::Irregular(c.data.postal_areas)));
    return converter.Convert(*events);
  });
  return InSpan(c, SpanKind::kExtract, [&] {
    SpatialMap<int64_t> counts = ExtractSmFlow(converted);
    size_t total = 0;
    for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
    return total;
  });
}

// ---- ST4ML-C twins: the extension points, untimed references. ----

std::optional<size_t> AnomalyC(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.nyc, q);
  if (!events) return std::nullopt;
  return events
      ->Filter([](const STEvent& e) {
        int h = HourOfDay(e.temporal.start());
        return h >= 23 || h < 4;
      })
      .Count();
}

std::optional<size_t> AvgSpeedC(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  auto speeds = trajs->Map([](const STTrajectory& t) {
    double meters = 0.0;
    for (size_t i = 1; i < t.entries.size(); ++i) {
      meters += HaversineMeters(t.entries[i - 1].point, t.entries[i].point);
    }
    int64_t span = t.TemporalExtent().Seconds();
    return span > 0 ? meters / span * 3.6 : 0.0;
  });
  return speeds.Aggregate(
      static_cast<size_t>(0),
      [](size_t acc, const double& kmh) { return acc + (kmh > 1.0 ? 1 : 0); },
      [](size_t a, size_t b) { return a + b; });
}

std::optional<size_t> StayPointC(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  auto stays = trajs->Map([](const STTrajectory& t) {
    return StayPointsOf(t.entries, 200.0, 600);
  });
  return stays.Aggregate(
      static_cast<size_t>(0),
      [](size_t acc, const std::vector<StayPoint>& v) {
        return acc + v.size();
      },
      [](size_t a, size_t b) { return a + b; });
}

std::optional<size_t> HourlyFlowC(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.nyc, q);
  if (!events) return std::nullopt;
  auto structure = std::make_shared<const TemporalStructure>(
      TemporalStructure::RegularByInterval(q.time, 3600));
  Event2TsConverter<STEvent> converter(structure);
  auto converted = converter.Convert(
      *events, [](const STEvent&) { return Unit{}; },
      [](const std::vector<Unit>& arr) {
        return static_cast<int64_t>(arr.size());
      });
  TimeSeries<int64_t> flow = CollectAndMerge(
      converted, static_cast<int64_t>(0),
      [](int64_t a, int64_t b) { return a + b; });
  size_t total = 0;
  for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
  return total;
}

std::optional<size_t> GridSpeedC(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Grid(q.mbr, 48, 48));
  Traj2SmConverter<STTrajectory> converter(structure);
  auto cell_mean_speed = [](const std::vector<STTrajectory>& arr) {
    double sum = 0.0;
    for (const STTrajectory& t : arr) sum += t.AverageSpeedMps() * 3.6;
    return arr.empty() ? 0.0 : sum / arr.size();
  };
  auto f = [&](const Dataset<SpatialMap<std::vector<STTrajectory>>>& rdd) {
    return MapValue(rdd, cell_mean_speed);
  };
  auto extractor = MakeExtractor(f);
  auto merged = CollectAndMerge(extractor.Extract(converter.Convert(*trajs)),
                                0.0, [](double a, double b) { return a + b; });
  size_t occupied = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i) > 0) ++occupied;
  }
  return occupied;
}

std::optional<size_t> TransitionC(const Call& c, const STBox& q) {
  auto trajs = SelectTrajs(c, c.data.porto, q);
  if (!trajs) return std::nullopt;
  Traj2RasterConverter<STTrajectory> converter(TransitionRaster(q));
  auto cell_transit = [](const std::vector<STTrajectory>& arr,
                         const Polygon& cell, const Duration& bin) {
    int64_t in = 0, out = 0;
    for (const STTrajectory& t : arr) {
      bool prev = false, first = true;
      for (const auto& e : t.entries) {
        bool inside = bin.Contains(e.time) && cell.ContainsPoint(e.point);
        if (inside && !prev && !first) ++in;
        if (!inside && prev) ++out;
        prev = inside;
        first = false;
      }
    }
    return std::pair<int64_t, int64_t>(in, out);
  };
  auto merged = CollectAndMerge(
      MapValuePlus(converter.Convert(*trajs), cell_transit),
      std::pair<int64_t, int64_t>(0, 0),
      [](std::pair<int64_t, int64_t> a, const std::pair<int64_t, int64_t>& b) {
        return std::pair<int64_t, int64_t>(a.first + b.first,
                                           a.second + b.second);
      });
  size_t total = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    total += merged.value(i).first + merged.value(i).second;
  }
  return total;
}

std::optional<size_t> AirOverRoadC(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.air, q);
  if (!events) return std::nullopt;
  Event2RasterConverter<STEvent> converter(RoadRaster(c.data, q));
  auto merged = CollectAndMerge(
      converter.Convert(
          *events,
          [](const STEvent& e) { return std::atof(e.data.attr.c_str()); },
          [](const std::vector<double>& values) {
            double sum = 0.0;
            for (double v : values) sum += v;
            return std::pair<double, int64_t>(
                sum, static_cast<int64_t>(values.size()));
          }),
      std::pair<double, int64_t>(0.0, 0),
      [](std::pair<double, int64_t> a, const std::pair<double, int64_t>& b) {
        return std::pair<double, int64_t>(a.first + b.first,
                                          a.second + b.second);
      });
  size_t covered = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged.value(i).second > 0) ++covered;
  }
  return covered;
}

std::optional<size_t> PoiCountC(const Call& c, const STBox& q) {
  auto events = SelectEvents(c, c.data.osm, STBox(q.mbr, Duration(0)));
  if (!events) return std::nullopt;
  auto structure = std::make_shared<const SpatialStructure>(
      SpatialStructure::Irregular(c.data.postal_areas));
  Event2SmConverter<STEvent> converter(structure);
  SpatialMap<int64_t> counts = CollectAndMerge(
      converter.Convert(
          *events, [](const STEvent&) { return Unit{}; },
          [](const std::vector<Unit>& arr) {
            return static_cast<int64_t>(arr.size());
          }),
      static_cast<int64_t>(0), [](int64_t a, int64_t b) { return a + b; });
  size_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) total += counts.value(i);
  return total;
}

using AppFn = std::optional<size_t> (*)(const Call&, const STBox&);

/// One app of the batch: its two implementations, its query shape and its
/// batch size. Shapes follow the Fig. 7 harness (bench_e2e), except that
/// anomaly and grid speed use half its time window and twice as many
/// queries: the seed-driven hot-spot layout swings a handful of big boxes
/// far more than many smaller ones. Batch sizes put every app's batch at
/// roughly 0.35 s on a 4-thread host.
struct AppSpec {
  AppFn builtin;
  AppFn twin;
  int dataset;  // 0 nyc, 1 porto, 2 air, 3 osm
  double side_fraction;
  int64_t span_seconds;
  int queries;
};

const std::vector<AppSpec>& Specs() {
  static const std::vector<AppSpec> specs = {
      {AnomalyB, AnomalyC, 0, 0.6, 30 * 86400, 24},
      {AvgSpeedB, AvgSpeedC, 1, 0.6, 60 * 86400, 30},
      {StayPointB, StayPointC, 1, 0.6, 60 * 86400, 30},
      {HourlyFlowB, HourlyFlowC, 0, 0.6, 14 * 86400, 40},
      {GridSpeedB, GridSpeedC, 1, 0.5, 15 * 86400, 12},
      {TransitionB, TransitionC, 1, 0.5, 2 * 86400, 64},
      {AirOverRoadB, AirOverRoadC, 2, 0.8, 7 * 86400, 112},
      {PoiCountB, PoiCountC, 3, 0.7, 1, 56},
  };
  return specs;
}

/// Shaped query boxes on a Latin hypercube over (x, y, t). A box's corner
/// ranges over [min - side, max] on each spatial axis, so every point of
/// the extent lies under a box with the same probability: the seed moves
/// the boxes and the data's hot spots, but not how much of the data a
/// batch selects on average, and the hypercube keeps each batch close to
/// that average.
std::vector<STBox> ShapedQueries(const Mbr& extent, const Duration& range,
                                 double side_fraction, int64_t span_seconds,
                                 int count, Rng& rng) {
  std::vector<int> px = rng.Permutation(count);
  std::vector<int> py = rng.Permutation(count);
  std::vector<int> pt = rng.Permutation(count);
  double w = extent.Width() * side_fraction;
  double h = extent.Height() * side_fraction;
  int64_t span = std::min(span_seconds, range.Seconds());
  int64_t slack = std::max<int64_t>(0, range.Seconds() - span);
  auto cell = [&](const std::vector<int>& perm, int i) {
    return (perm[static_cast<size_t>(i)] + rng.Uniform(0, 1)) / count;
  };
  std::vector<STBox> queries;
  for (int i = 0; i < count; ++i) {
    double x = extent.x_min - w + cell(px, i) * (extent.Width() + w);
    double y = extent.y_min - h + cell(py, i) * (extent.Height() + h);
    int64_t t = range.start() + static_cast<int64_t>(cell(pt, i) * slack);
    queries.push_back(
        STBox(Mbr(x, y, x + w, y + h), Duration(t, t + span - 1)));
  }
  return queries;
}

}  // namespace

int RunApps(const Args& args, Report* report) {
  const double scale = args.tiny ? 0.02 : 1.0;
  const std::vector<AppSpec>& specs = Specs();
  const std::vector<std::string>& names = AppNames();
  const size_t num_apps = specs.size();

  // ---- Setup, timed: generate + stage every dataset. Repeated; the
  // median is setup_s and the last staging is the one measured.
  auto ctx = UncachedContext();
  const int setups = args.tiny ? 1 : 5;
  std::vector<double> setup_times;
  AppsData data;
  for (int s = 0; s < setups; ++s) {
    std::string root = args.data_root + "/stage";
    fs::remove_all(root);
    double t0 = Now();
    data = Stage(ctx, root, args.seed, scale);
    setup_times.push_back(Now() - t0);
  }

  // ---- Queries and references, untimed.
  Rng rng(MixSeed(args.seed, 100));
  std::vector<std::vector<STBox>> queries(num_apps);
  for (size_t a = 0; a < num_apps; ++a) {
    const AppSpec& spec = specs[a];
    Mbr extent[] = {data.nyc_extent, data.porto_extent, data.air_extent,
                    data.osm_extent};
    Duration range[] = {data.nyc_range, data.porto_range, data.air_range,
                        Duration(0, 1)};
    int count = args.tiny ? std::max(1, spec.queries / 4) : spec.queries;
    queries[a] = ShapedQueries(extent[spec.dataset], range[spec.dataset],
                               spec.side_fraction, spec.span_seconds, count,
                               rng);
  }
  std::vector<std::vector<size_t>> expected(num_apps);
  for (size_t a = 0; a < num_apps; ++a) {
    Call call{ctx, data, nullptr, static_cast<int>(a), -1};
    for (const STBox& q : queries[a]) {
      auto ref = specs[a].twin(call, q);
      if (!ref) {
        report->Fail(names[a] + ": reference (ST4ML-C) query failed");
        return 0;
      }
      expected[a].push_back(*ref);
    }
  }
  int zero_apps = 0;
  for (size_t a = 0; a < num_apps; ++a) {
    size_t total = 0;
    for (size_t r : expected[a]) total += r;
    report->Set("app." + names[a] + ".results",
                static_cast<double>(total) / expected[a].size());
    if (total == 0) {
      ++zero_apps;
      report->Note("WARNING: " + names[a] + ": every reference result is 0, "
                   "so its check compares nothing");
    }
  }
  report->Set("check.zero_apps", zero_apps);

  // ---- Timed phase: rounds of the eight batches back to back. With
  // --trace 1, odd rounds record spans and even rounds stay untraced.
  ResetPeakRss();
  const MetricsSnapshot before = ctx->MetricsSnapshot();
  const double cpu_before = CpuSeconds();
  const double start = Now();
  const int min_rounds =
      args.tiny ? (args.trace ? 2 : 1) : (args.trace ? 4 : 3);
  std::vector<double> round_wall[2];           // [traced]
  std::vector<std::vector<double>> app_wall;   // untraced rounds, [app][round]
  app_wall.resize(num_apps);
  SpanLog log;
  uint64_t ops = 0;
  for (int round = 0;; ++round) {
    if (round >= min_rounds && Now() - start >= args.seconds &&
        (!args.trace || round % 2 == 0)) {
      break;
    }
    const bool traced = args.trace && round % 2 == 1;
    SpanLog* spans = traced ? &log : nullptr;
    Span round_span(spans, SpanKind::kRound, round, -1);
    double r0 = Now();
    for (size_t a = 0; a < num_apps; ++a) {
      Span app_span(spans, SpanKind::kApp, static_cast<int>(a),
                    round_span.id());
      double a0 = Now();
      for (size_t i = 0; i < queries[a].size(); ++i) {
        Span query_span(spans, SpanKind::kQuery, static_cast<int>(a),
                        app_span.id());
        Call call{ctx, data, spans, static_cast<int>(a), query_span.id()};
        auto got = specs[a].builtin(call, queries[a][i]);
        ++ops;
        ++report->attempted;
        if (!got || *got != expected[a][i]) {
          ++report->failed;
          char what[160];
          std::snprintf(what, sizeof(what),
                        "%s query %zu: got %lld, ST4ML-C twin says %zu",
                        names[a].c_str(), i,
                        got ? static_cast<long long>(*got) : -1LL,
                        expected[a][i]);
          report->Fail(what);
        }
      }
      double wall = Now() - a0;
      if (!traced) app_wall[a].push_back(wall);
    }
    round_wall[traced ? 1 : 0].push_back(Now() - r0);
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu_before;
  const MetricsSnapshot after = ctx->MetricsSnapshot();

  // ---- End-to-end: one "query" is one untraced round, the whole Fig. 7
  // batch of all eight apps' query batches (per-app batch times are the
  // per-layer app.*_s). About 20 rounds fit a run, so query_p99_ms is in
  // effect the slowest round.
  std::vector<double> round_ms;
  for (double r : round_wall[0]) round_ms.push_back(r * 1e3);
  report->Set("setup_s", Median(setup_times));
  report->Set("query_mean_ms", Mean(round_ms));
  report->Set("query_p50_ms", Median(round_ms));
  report->Set("query_p99_ms", Quantile(round_ms, 0.99));
  report->Note("# apps: " + std::to_string(round_ms.size()) +
               " untraced rounds (the query samples), " +
               std::to_string(report->attempted) +
               " app queries checked against their ST4ML-C twins");
  report->Set("peak_rss_mb", PeakRssMb());

  // ---- Per layer.
  SetCounterMetrics(before, after, static_cast<double>(ops), cpu, wall, report);
  report->Set("batch_s", Median(round_wall[0]));
  report->Set("failed_frac",
              static_cast<double>(report->failed) / static_cast<double>(ops));
  report->Set("query.samples", static_cast<double>(round_ms.size()));
  for (size_t a = 0; a < num_apps; ++a) {
    report->Set("app." + names[a] + "_s", Median(app_wall[a]));
  }

  if (args.trace && !round_wall[1].empty()) {
    // Layer self times per traced round (mean over traced rounds), split
    // per app; the residual is round time outside every layer call:
    // freeing each stage's datasets, the result checks, span bookkeeping.
    const std::vector<SpanRecord>& spans = log.spans();
    std::vector<double> self = log.SelfTimes();
    const double traced_rounds = static_cast<double>(round_wall[1].size());
    double layer_total[4] = {};
    std::vector<std::array<double, 4>> per_app(num_apps, {0, 0, 0, 0});
    for (size_t i = 0; i < spans.size(); ++i) {
      int layer = -1;
      switch (spans[i].kind) {
        case SpanKind::kSelect: layer = 0; break;
        case SpanKind::kParse: layer = 1; break;
        case SpanKind::kConvert: layer = 2; break;
        case SpanKind::kExtract: layer = 3; break;
        default: break;
      }
      if (layer < 0) continue;
      layer_total[layer] += self[i] / traced_rounds;
      per_app[static_cast<size_t>(spans[i].tag)][static_cast<size_t>(layer)] +=
          self[i] / traced_rounds;
    }
    const double traced_batch = Mean(round_wall[1]);
    const double untraced_batch = Mean(round_wall[0]);
    const double layers =
        layer_total[0] + layer_total[1] + layer_total[2] + layer_total[3];
    report->Set("selection.select_s", layer_total[0]);
    report->Set("conversion.parse_s", layer_total[1]);
    report->Set("conversion.convert_s", layer_total[2]);
    report->Set("extraction.extract_s", layer_total[3]);
    report->Set("trace.batch_s", traced_batch);
    report->Set("trace.residual_s", traced_batch - layers);
    report->Set("trace.overhead_s", traced_batch - untraced_batch);
    report->Set("trace.overhead_frac",
                untraced_batch > 0 ? traced_batch / untraced_batch - 1 : 0);
    const char* layer_names[] = {"select", "parse", "convert", "extract"};
    report->Note("# per-app layer self time per traced round (s)");
    report->Note(
        "# app            select    parse     convert   extract   dominant");
    for (size_t a = 0; a < num_apps; ++a) {
      for (int l = 0; l < 4; ++l) {
        report->Set("app." + names[a] + "." + layer_names[l] + "_s",
                    per_app[a][static_cast<size_t>(l)]);
      }
      int top = static_cast<int>(
          std::max_element(per_app[a].begin(), per_app[a].end()) -
          per_app[a].begin());
      char line[160];
      std::snprintf(line, sizeof(line),
                    "# %-15s %-9.4f %-9.4f %-9.4f %-9.4f %s", names[a].c_str(),
                    per_app[a][0], per_app[a][1], per_app[a][2], per_app[a][3],
                    layer_names[top]);
      report->Note(line);
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "# layers %.4f + residual %.4f = traced batch %.4f s; "
                  "untraced batch_s %.4f (mean %.4f), tracing overhead %.4f s",
                  layers, traced_batch - layers, traced_batch,
                  Median(round_wall[0]), untraced_batch,
                  traced_batch - untraced_batch);
    report->Note(line);
  }
  return 0;
}

}  // namespace e2ebench

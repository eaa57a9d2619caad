#include "bench_common.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "baselines/geomesa_like.h"
#include "common/logging.h"
#include "common/rng.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "storage/json.h"

namespace st4ml {
namespace bench {

namespace fs = std::filesystem;

namespace {

constexpr const char* kStageMarker = "staged.ok";

std::string RootDir() {
  return GetEnvString("ST4ML_BENCH_DATA", "bench_data");
}

ScaledDirs DirsFor(const std::string& root, const std::string& name) {
  ScaledDirs dirs;
  dirs.st4ml_dir = root + "/" + name + "/st4ml";
  dirs.st4ml_meta = root + "/" + name + "/st4ml_meta";
  dirs.plain_dir = root + "/" + name + "/plain";
  dirs.gm_dir = root + "/" + name + "/geomesa";
  return dirs;
}

/// Buffered-rectangle polygons around road segments: the irregular cells the
/// air-over-road application aggregates over.
std::vector<Polygon> BufferedRoadCells(const RoadNetwork& network,
                                       double buffer_deg, size_t max_cells) {
  std::vector<Polygon> cells;
  for (size_t i = 0; i < network.num_segments() && cells.size() < max_cells;
       i += 2) {  // one direction per physical road
    Mbr box = network.segment(static_cast<int32_t>(i)).shape.ComputeMbr();
    cells.push_back(Polygon::FromMbr(box.Buffered(buffer_deg)));
  }
  return cells;
}

template <typename RecordT>
void StageOne(const std::shared_ptr<ExecutionContext>& ctx,
              std::vector<RecordT> records, const ScaledDirs& dirs,
              int tstr_gt, int tstr_gs) {
  auto data = Dataset<RecordT>::Parallelize(ctx, std::move(records), 16);
  ST4ML_CHECK(PersistDataset(data, dirs.plain_dir).ok());
  TSTRPartitioner partitioner(tstr_gt, tstr_gs);
  ST4ML_CHECK(
      BuildOnDiskIndex(data, &partitioner, dirs.st4ml_dir, dirs.st4ml_meta)
          .ok());
  GeoMesaLike geomesa(ctx);
  std::vector<RecordT> all = data.Collect();
  if constexpr (std::is_same_v<RecordT, EventRecord>) {
    ST4ML_CHECK(geomesa.IngestEvents(all, dirs.gm_dir).ok());
  } else {
    ST4ML_CHECK(geomesa.IngestTrajs(all, dirs.gm_dir).ok());
  }
}

void StageAll(BenchEnv* env) {
  const std::string root = RootDir();
  std::printf("[bench] staging datasets into %s (scale %.2f) ...\n",
              root.c_str(), env->scale);
  Stopwatch timer;
  fs::remove_all(root);
  fs::create_directories(root);

  // NYC events at three scales.
  {
    NycEventOptions gen;
    gen.count = static_cast<int64_t>(240000 * env->scale);
    auto full = GenerateNycEvents(gen);
    for (int s = 0; s < 3; ++s) {
      double frac = s == 0 ? 0.25 : (s == 1 ? 0.5 : 1.0);
      auto subset = std::vector<EventRecord>(
          full.begin(), full.begin() + static_cast<size_t>(full.size() * frac));
      env->nyc_count[s] = static_cast<int64_t>(subset.size());
      StageOne(env->ctx, std::move(subset), env->nyc[s], 6, 8);
    }
    env->nyc_extent = gen.extent;
    env->nyc_range = gen.range;
  }
  // Porto trajectories at three scales.
  {
    PortoTrajOptions gen;
    gen.count = static_cast<int64_t>(12000 * env->scale);
    auto full = GeneratePortoTrajectories(gen);
    for (int s = 0; s < 3; ++s) {
      double frac = s == 0 ? 0.25 : (s == 1 ? 0.5 : 1.0);
      auto subset = std::vector<TrajRecord>(
          full.begin(), full.begin() + static_cast<size_t>(full.size() * frac));
      env->porto_count[s] = static_cast<int64_t>(subset.size());
      StageOne(env->ctx, std::move(subset), env->porto[s], 6, 8);
    }
    env->porto_extent = gen.extent;
    env->porto_range = gen.range;
  }
  // Air quality.
  {
    AirQualityOptions gen;
    gen.stations = static_cast<int>(24 * std::max(1.0, env->scale));
    gen.replicas = 4;
    auto records = GenerateAirQuality(gen);
    env->air_count = static_cast<int64_t>(records.size());
    StageOne(env->ctx, std::move(records), env->air, 5, 6);
    env->air_extent = gen.extent;
    env->air_range = gen.range;
  }
  // OSM POIs (no temporal info — T-STR degenerates to spatial STR, which is
  // fine: all timestamps are 0).
  {
    OsmOptions gen;
    gen.poi_count = static_cast<int64_t>(40000 * env->scale);
    OsmData osm = GenerateOsm(gen);
    env->osm_count = static_cast<int64_t>(osm.pois.size());
    StageOne(env->ctx, std::move(osm.pois), env->osm, 1, 32);
    env->osm_extent = gen.extent;
  }

  std::ofstream marker(root + "/" + kStageMarker);
  marker << env->scale << "\n";
  std::printf("[bench] staging done in %.1f s\n", timer.ElapsedSeconds());
}

/// Regenerates the in-memory-only parts (polygon structures, networks) that
/// are cheap and deterministic, whether or not the on-disk staging ran.
void BuildInMemoryStructures(BenchEnv* env) {
  OsmOptions osm_gen;
  osm_gen.poi_count = 1;  // only the areas matter here
  env->postal_areas = GenerateOsm(osm_gen).postal_areas;
  env->osm_extent = osm_gen.extent;

  RoadNetworkOptions road_gen;
  road_gen.nx = 12;
  road_gen.ny = 12;
  AirQualityOptions air_gen;
  road_gen.extent = air_gen.extent;
  env->air_network = GenerateRoadNetwork(road_gen);
  env->road_cells = BufferedRoadCells(*env->air_network, 0.01, 400);
}

/// The first "model name" in /proc/cpuinfo; "unknown" when absent.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// Commit of the source tree this binary was built from, read at run time
/// (a configure-time sha goes stale as soon as the tree moves on).
std::string GitCommit() {
  FILE* pipe = ::popen("git -C '" ST4ML_SOURCE_DIR
                       "' describe --always --dirty --abbrev=12 "
                       "--exclude='*' 2>/dev/null",
                       "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

}  // namespace

const std::string& HostJson() {
  static const std::string json = [] {
    std::string build = ST4ML_BUILD_TYPE;
    return "\"host\":{\"hw_threads\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + JsonQuote(CpuModel()) +
           ",\"build_type\":" + JsonQuote(build.empty() ? "none" : build) +
           ",\"git_sha\":" + JsonQuote(GitCommit()) + "}";
  }();
  return json;
}

const BenchEnv& GetBenchEnv() {
  static BenchEnv* env = [] {
    auto* e = new BenchEnv;
    e->ctx = ExecutionContext::Create();
    e->scale = BenchScale();
    const std::string root = RootDir();
    for (int s = 0; s < 3; ++s) {
      e->nyc[s] = DirsFor(root, "nyc_" + std::to_string(s));
      e->porto[s] = DirsFor(root, "porto_" + std::to_string(s));
    }
    e->air = DirsFor(root, "air");
    e->osm = DirsFor(root, "osm");

    // Re-stage unless the marker matches the requested scale.
    bool staged = false;
    std::ifstream marker(root + "/" + kStageMarker);
    if (marker) {
      double staged_scale = -1;
      marker >> staged_scale;
      staged = staged_scale == e->scale;
    }
    if (!staged) {
      StageAll(e);
    } else {
      // Restore counts/extents from generators' options (deterministic).
      NycEventOptions nyc_gen;
      e->nyc_extent = nyc_gen.extent;
      e->nyc_range = nyc_gen.range;
      PortoTrajOptions porto_gen;
      e->porto_extent = porto_gen.extent;
      e->porto_range = porto_gen.range;
      AirQualityOptions air_gen;
      e->air_extent = air_gen.extent;
      e->air_range = air_gen.range;
      for (int s = 0; s < 3; ++s) {
        double frac = s == 0 ? 0.25 : (s == 1 ? 0.5 : 1.0);
        e->nyc_count[s] = static_cast<int64_t>(240000 * e->scale * frac);
        e->porto_count[s] = static_cast<int64_t>(12000 * e->scale * frac);
      }
      int stations = static_cast<int>(24 * std::max(1.0, e->scale)) * 4;
      int64_t samples = (air_gen.range.Seconds() + air_gen.interval_s) /
                        air_gen.interval_s;
      e->air_count = static_cast<int64_t>(stations) * samples;
      e->osm_count = static_cast<int64_t>(40000 * e->scale);
    }
    BuildInMemoryStructures(e);
    return e;
  }();
  return *env;
}

std::vector<STBox> MakeQueries(const Mbr& extent, const Duration& range,
                               double volume_fraction, int count,
                               uint64_t seed) {
  Rng rng(seed);
  double side = std::cbrt(volume_fraction);
  std::vector<STBox> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    double w = extent.Width() * side;
    double h = extent.Height() * side;
    int64_t span = std::max<int64_t>(
        1, static_cast<int64_t>(range.Seconds() * side));
    double x = rng.Uniform(extent.x_min, extent.x_max - w);
    double y = rng.Uniform(extent.y_min, extent.y_max - h);
    int64_t t = range.start() +
                rng.UniformInt(0, std::max<int64_t>(1, range.Seconds() - span));
    queries.push_back(
        STBox(Mbr(x, y, x + w, y + h), Duration(t, t + span - 1)));
  }
  return queries;
}

std::vector<STBox> MakeShapedQueries(const Mbr& extent, const Duration& range,
                                     double side_fraction, int64_t span_seconds,
                                     int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<STBox> queries;
  queries.reserve(count);
  double w = extent.Width() * side_fraction;
  double h = extent.Height() * side_fraction;
  int64_t span = std::min(span_seconds, range.Seconds());
  for (int i = 0; i < count; ++i) {
    double x = rng.Uniform(extent.x_min, extent.x_max - w);
    double y = rng.Uniform(extent.y_min, extent.y_max - h);
    int64_t t = range.start() +
                rng.UniformInt(0, std::max<int64_t>(1, range.Seconds() - span));
    queries.push_back(STBox(Mbr(x, y, x + w, y + h), Duration(t, t + span - 1)));
  }
  return queries;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("| ");
    for (size_t i = 0; i < widths.size(); ++i) {
      std::printf("%-*s | ", static_cast<int>(widths[i]),
                  i < row.size() ? row[i].c_str() : "");
    }
    std::printf("\n");
  };
  print_row(header_);
  std::printf("|");
  for (size_t w : widths) {
    for (size_t i = 0; i < w + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string FmtSeconds(double s) {
  char buf[32];
  if (s < 0.1) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  }
  return buf;
}

std::string FmtCount(uint64_t n) {
  char buf[32];
  if (n >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", n / 1e6);
  } else if (n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", n / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

std::string FmtRatio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

std::string FmtMb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / 1e6);
  return buf;
}

double TimeIt(const std::function<void()>& fn) {
  Stopwatch timer;
  fn();
  return timer.ElapsedSeconds();
}

}  // namespace bench
}  // namespace st4ml

#ifndef ST4ML_BENCH_BENCH_COMMON_H_
#define ST4ML_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/stopwatch.h"
#include "datagen/generators.h"
#include "engine/dataset.h"
#include "geometry/polygon.h"
#include "index/stbox.h"
#include "mapmatching/road_network.h"

namespace st4ml {
namespace bench {

/// On-disk layouts of one dataset for the three systems under test.
struct ScaledDirs {
  std::string st4ml_dir;   ///< T-STR partitioned STPQ files
  std::string st4ml_meta;  ///< metadata file for on-disk pruning
  std::string plain_dir;   ///< unindexed STPQ files (native-Spark layout)
  std::string gm_dir;      ///< GeoMesa-like XZ2 block layout
};

/// All staged benchmark data. Staged once per (scale) into
/// <repo>/build/bench_data and reused by every bench binary; delete that
/// directory to re-stage. Record counts scale with ST4ML_SCALE (default 1.0,
/// tuned for a small 2-core container).
struct BenchEnv {
  std::shared_ptr<ExecutionContext> ctx;
  double scale = 1.0;

  /// NYC-like events and Porto-like trajectories at 25% / 50% / 100% of the
  /// full record count (the Fig. 7 data-scale sweep).
  ScaledDirs nyc[3];
  ScaledDirs porto[3];
  int64_t nyc_count[3];
  int64_t porto_count[3];

  ScaledDirs air;
  ScaledDirs osm;
  int64_t air_count = 0;
  int64_t osm_count = 0;

  Mbr nyc_extent, porto_extent, air_extent, osm_extent;
  Duration nyc_range, porto_range, air_range;

  std::vector<Polygon> postal_areas;

  /// Road cells for the "air over road" application: buffered road-segment
  /// polygons over the air-quality extent.
  std::shared_ptr<RoadNetwork> air_network;
  std::vector<Polygon> road_cells;
};

/// Stages (or re-opens) the shared benchmark data. Aborts on IO failure.
const BenchEnv& GetBenchEnv();

/// Deterministic random ST query boxes covering roughly `volume_fraction` of
/// the dataset's ST volume: each dimension is scaled by fraction^(1/3).
std::vector<STBox> MakeQueries(const Mbr& extent, const Duration& range,
                               double volume_fraction, int count,
                               uint64_t seed);

/// Deterministic random ST query boxes with an explicit shape: spatial side
/// scaled by `side_fraction` per axis, temporal window of `span_seconds`.
/// Matches how real STDML apps query (city-scale area x days-scale window).
std::vector<STBox> MakeShapedQueries(const Mbr& extent, const Duration& range,
                                     double side_fraction, int64_t span_seconds,
                                     int count, uint64_t seed);

/// Markdown-ish fixed-width table printer for bench reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds / counts / ratios compactly.
std::string FmtSeconds(double s);
std::string FmtCount(uint64_t n);
std::string FmtRatio(double r);
std::string FmtMb(uint64_t bytes);

/// The `"host":{...}` member every BENCH_*.json row carries, so a number
/// names the machine and build that produced it: hardware threads, CPU
/// model, CMake build type, and the git commit of the source tree (with a
/// "-dirty" suffix when tracked files had uncommitted changes). Computed
/// once per process.
const std::string& HostJson();

/// Times `fn` once and returns seconds (bench runs are deterministic, and
/// the paper reports totals over query batches anyway).
double TimeIt(const std::function<void()>& fn);

}  // namespace bench
}  // namespace st4ml

#endif  // ST4ML_BENCH_BENCH_COMMON_H_

#include "bench_util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "engine/execution_context.h"
#include "observability/counters.h"

namespace e2ebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(Next() >> 11) * 0x1.0p-53);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  if (hi <= lo) return lo;
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Gaussian() {
  double u1 = std::max(Uniform(0, 1), 1e-300);
  double u2 = Uniform(0, 1);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2 * M_PI * u2);
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(UniformInt(0, i))]);
  }
  return perm;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return rng.Next();
}

std::shared_ptr<st4ml::ExecutionContext> UncachedContext() {
  auto ctx = st4ml::ExecutionContext::Create();
  st4ml::DatasetCache::Options off;
  off.budget_bytes = 0;
  ctx->ConfigureCache(off);
  return ctx;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || std::isinf(values[lo])) return values[hi];
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void ResetPeakRss() {
  // Hand freed heap back first, so the mark starts from live data rather
  // than from whatever set-up happened to leave in the allocator.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

namespace {

/// The numeric field `key` of a "key: value" /proc file; 0 when absent.
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      std::istringstream fields(line.substr(key.size() + 1));
      uint64_t value = 0;
      fields >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM")) / 1024.0;
}

uint64_t BytesWritten() { return ProcField("/proc/self/io", "wchar"); }

int SpanLog::Begin(SpanKind kind, int tag, int parent) {
  SpanRecord span;
  span.parent = parent;
  span.kind = kind;
  span.tag = tag;
  span.start = Now();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

std::vector<double> SpanLog::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

void Report::Fail(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void SetCounterMetrics(const st4ml::MetricsSnapshot& before,
                       const st4ml::MetricsSnapshot& after, double ops,
                       double cpu_s, double wall_s, Report* report) {
  using st4ml::Counter;
  auto delta = [&](Counter c) {
    return static_cast<double>(after[c] - before[c]);
  };
  auto per_op = [&](Counter c) { return ops > 0 ? delta(c) / ops : 0; };
  const std::pair<const char*, Counter> per_op_counters[] = {
      {"selection.records_out", Counter::kSelectionRecordsOut},
      {"selection.bytes_selected", Counter::kSelectionBytesSelected},
      {"selection.partitions_pruned", Counter::kPartitionsPruned},
      {"selection.partitions_scanned", Counter::kPartitionsScanned},
      {"storage.stpq_bytes_read", Counter::kStpqBytesRead},
      {"storage.stpq_files_read", Counter::kStpqFilesRead},
      {"storage.stpq_bytes_written", Counter::kStpqBytesWritten},
      {"index.pages_read", Counter::kIndexPagesRead},
      {"index.files_mmapped", Counter::kIndexFilesMmapped},
      {"planner.mmap_index", Counter::kPlannerMmapIndex},
      {"planner.cached_index", Counter::kPlannerCachedIndex},
      {"planner.linear_scan", Counter::kPlannerLinearScan},
      {"partition.st_records", Counter::kShuffleRecordsStPartition},
      {"partition.st_bytes", Counter::kShuffleBytesStPartition},
      {"engine.parallel_jobs", Counter::kParallelJobs},
      {"engine.chunk_claims", Counter::kChunkClaims},
      {"cache.hits", Counter::kCacheHits},
      {"cache.misses", Counter::kCacheMisses},
      {"cache.evictions", Counter::kCacheEvictions},
      {"ingest.wal_segments_scanned", Counter::kWalSegmentsScanned},
  };
  for (const auto& [name, counter] : per_op_counters) {
    report->Set(name, per_op(counter));
  }
  double read = delta(Counter::kStpqBytesRead);
  report->Set("selection.useful_ratio",
              read > 0 ? delta(Counter::kSelectionBytesSelected) / read : 0);
  double lookups = delta(Counter::kCacheHits) + delta(Counter::kCacheMisses);
  report->Set("cache.hit_ratio",
              lookups > 0 ? delta(Counter::kCacheHits) / lookups : 0);
  report->Set("engine.tasks_failed", delta(Counter::kTasksFailed));
  report->Set("engine.tasks_retried", delta(Counter::kTasksRetried));
  report->Set("engine.cpu_s", ops > 0 ? cpu_s / ops : 0);
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  report->Set("engine.cpu_util", wall_s > 0 ? cpu_s / (wall_s * threads) : 0);
}

const std::vector<std::string>& AppNames() {
  static const std::vector<std::string> names = {
      "anomaly",     "avg_speed",  "stay_point",    "hourly_flow",
      "grid_speed",  "transition", "air_over_road", "poi_count"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s", "lower"},
      {"query_mean_ms", "ms", "lower"},
      {"query_p50_ms", "ms", "lower"},
      {"query_p99_ms", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        // Workload-level figures that hold on one workload only.
        {"batch_s", "s", "lower"},
        {"append_p99_ms", "ms", "lower"},
        {"failed_frac", "frac", "lower"},
        {"query.samples", "count", "higher"},
        {"check.zero_apps", "count", "lower"},
        // selection
        {"selection.select_s", "s", "lower"},
        {"selection.records_out", "count/op", "lower"},
        {"selection.bytes_selected", "B/op", "lower"},
        {"selection.useful_ratio", "ratio", "higher"},
        {"selection.partitions_pruned", "count/op", "higher"},
        {"selection.partitions_scanned", "count/op", "lower"},
        // storage
        {"storage.stpq_bytes_read", "B/op", "lower"},
        {"storage.stpq_files_read", "count/op", "lower"},
        {"storage.stpq_bytes_written", "B/op", "lower"},
        // index
        {"index.pages_read", "count/op", "lower"},
        {"index.files_mmapped", "count/op", "lower"},
        {"planner.mmap_index", "count/op", "higher"},
        {"planner.cached_index", "count/op", "higher"},
        {"planner.linear_scan", "count/op", "lower"},
        // partition
        {"partition.st_records", "count/op", "lower"},
        {"partition.st_bytes", "B/op", "lower"},
        // conversion / extraction
        {"conversion.parse_s", "s", "lower"},
        {"conversion.convert_s", "s", "lower"},
        {"extraction.extract_s", "s", "lower"},
        // engine
        {"engine.parallel_jobs", "count/op", "lower"},
        {"engine.chunk_claims", "count/op", "lower"},
        {"engine.tasks_failed", "count", "lower"},
        {"engine.tasks_retried", "count", "lower"},
        {"engine.cpu_s", "s/op", "lower"},
        {"engine.cpu_util", "frac", "lower"},
        // cache
        {"cache.hits", "count/op", "higher"},
        {"cache.misses", "count/op", "lower"},
        {"cache.evictions", "count/op", "lower"},
        {"cache.hit_ratio", "ratio", "higher"},
        // server
        {"server.elapsed_p50_ms", "ms", "lower"},
        {"server.elapsed_p99_ms", "ms", "lower"},
        {"server.wire_p50_ms", "ms", "lower"},
        {"select.p99_ms", "ms", "lower"},
        {"lookup_id.p99_ms", "ms", "lower"},
        {"extract.p99_ms", "ms", "lower"},
        {"server.response_bytes", "B/op", "lower"},
        {"server.shed", "count", "lower"},
        {"gen.lag_p99_ms", "ms", "lower"},
        // ingest
        {"ingest.append_elapsed_p99_ms", "ms", "lower"},
        {"ingest.compactions", "count", "lower"},
        {"ingest.wal_segments_scanned", "count/op", "lower"},
        {"ingest.staged_end", "count", "lower"},
        {"ingest.write_amp", "ratio", "lower"},
        {"ingest.flush_s", "s", "lower"},
        // the traced run itself
        {"trace.batch_s", "s", "lower"},
        {"trace.residual_s", "s", "lower"},
        {"trace.overhead_s", "s", "lower"},
        {"trace.overhead_frac", "frac", "lower"},
    };
    for (const std::string& app : AppNames()) {
      m.push_back({"app." + app + "_s", "s", "lower"});
      m.push_back({"app." + app + ".select_s", "s", "lower"});
      m.push_back({"app." + app + ".parse_s", "s", "lower"});
      m.push_back({"app." + app + ".convert_s", "s", "lower"});
      m.push_back({"app." + app + ".extract_s", "s", "lower"});
      m.push_back({"app." + app + ".results", "count/query", "higher"});
    }
    return m;
  }();
  return metrics;
}

}  // namespace e2ebench

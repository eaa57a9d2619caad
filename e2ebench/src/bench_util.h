#ifndef ST4ML_E2EBENCH_BENCH_UTIL_H_
#define ST4ML_E2EBENCH_BENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: arguments, the seeded query
// RNG, percentiles, process probes (CPU, peak RSS, bytes written), the
// benchmark-owned span log, and the metric registry every workload reports
// into. Nothing here reaches into the library beyond its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace st4ml {
class ExecutionContext;
struct MetricsSnapshot;
}

namespace e2ebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short phases: the smoke test's mode. Same code paths,
  /// same metric names, numbers not comparable to full-size runs.
  bool tiny = false;
  /// Closed-loop capacity probe instead of the open-loop run (serve only):
  /// how the fixed offered rate was derived.
  bool calibrate = false;
  std::string data_root;
};

/// Seeded splitmix64. The benchmark owns its generator so the query
/// streams do not change when the library's own RNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next();
  double Uniform(double lo, double hi);
  int64_t UniformInt(int64_t lo, int64_t hi);  // inclusive
  double Gaussian();
  /// A random permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// A fresh engine context with the dataset cache off: every selection reads
/// its files (the apps' from-disk setup, and the cold reference answers).
std::shared_ptr<st4ml::ExecutionContext> UncachedContext();

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
/// Infinite samples (failed operations) sort last.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Process-wide CPU seconds (user + system, every thread).
double CpuSeconds();
/// Resets the peak-RSS high-water mark (writes 5 to /proc/self/clear_refs).
void ResetPeakRss();
/// Peak resident set since the last reset, in MB (VmHWM).
double PeakRssMb();
/// Bytes this process has handed to write(2)-family calls (/proc/self/io
/// wchar). Socket traffic through send(2) is not included.
uint64_t BytesWritten();

/// The benchmark's own span log: run -> round/request -> app -> query ->
/// layer call, recorded from the benchmark's code around its calls into the
/// library. It is never attached to an ExecutionContext, so the library's
/// internal spans stay off. One log per thread; no locking.
enum class SpanKind { kRound, kApp, kQuery, kSelect, kParse, kConvert,
                      kExtract, kRequest };

struct SpanRecord {
  int parent = -1;  // -1: a child of the run itself
  SpanKind kind = SpanKind::kRound;
  int tag = -1;  // app index for app/query/layer spans
  double start = 0;
  double end = 0;
};

class SpanLog {
 public:
  int Begin(SpanKind kind, int tag, int parent);
  void End(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Duration minus the durations of direct children, per span.
  std::vector<double> SelfTimes() const;

 private:
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op against a null log (the untraced run).
class Span {
 public:
  Span(SpanLog* log, SpanKind kind, int tag, int parent)
      : log_(log), id_(log ? log->Begin(kind, tag, parent) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// One metric of the registry: BENCHMARK.json lists the same names, units
/// and directions, and holds the end-to-end bounds.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
/// The eight Table 7 apps, in report order.
const std::vector<std::string>& AppNames();

/// What a workload hands back to main: named metric values (any subset of
/// the registry; per-layer metrics it does not set are reported as 0 — no
/// work in that layer), the operation counts, and human-readable lines
/// printed before the result.
struct Report {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a correctness failure; the run exits non-zero.
  void Fail(const std::string& what);
};

/// The engine-counter metrics (selection, storage, index, planner,
/// partition, engine, cache, WAL scans) from the counter deltas of a timed
/// phase: per-op averages over `ops` operations, plus CPU time and
/// utilization over `wall_s`.
void SetCounterMetrics(const st4ml::MetricsSnapshot& before,
                       const st4ml::MetricsSnapshot& after, double ops,
                       double cpu_s, double wall_s, Report* report);

int RunApps(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);
int RunIngestMixed(const Args& args, Report* report);

}  // namespace e2ebench

#endif  // ST4ML_E2EBENCH_BENCH_UTIL_H_

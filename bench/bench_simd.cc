// SIMD kernel benchmark (ISSUE 7): times every registered backend against
// the scalar reference on the four batch kernels (ST-box filter, hash
// combine, distance, min/max/sum reduction) at 1M records, then a warm
// cached Selection end-to-end per backend. Every timed run is also a
// correctness gate: SIMD outputs must match scalar BIT-for-bit (the
// backend contract the property harness pins) and warm-select checksums
// must be identical across backends — any divergence exits non-zero, so a
// published BENCH_simd.json always reflects verified outputs. The box
// filter additionally gates best-SIMD >= 2x scalar at 1M records.
// Emits one JSON object per line; bench/run_bench.sh writes it to
// BENCH_simd.json.
//
// Usage: bench_simd [--records=N] [--reps=R]

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "st4ml.h"

namespace st4ml {
namespace {

namespace fs = std::filesystem;
using accel::BackendRegistry;
using accel::BoxFilterQuery;
using accel::EnvelopeColumns;
using accel::KernelBackend;

struct KernelInputs {
  EnvelopeColumns cols;
  std::vector<double> ax, ay, bx, by;
  std::vector<uint64_t> h1, h2;
};

KernelInputs MakeInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  KernelInputs in;
  in.cols.Reserve(n);
  in.ax.resize(n);
  in.ay.resize(n);
  in.bx.resize(n);
  in.by.resize(n);
  in.h1.resize(n);
  in.h2.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    int64_t t = rng.UniformInt(0, 100000);
    in.cols.Append(STBox(Mbr(x, y, x + rng.Uniform(0, 2), y + rng.Uniform(0, 2)),
                         Duration(t, t + rng.UniformInt(0, 600))));
    in.ax[i] = rng.Uniform(-180, 180);
    in.ay[i] = rng.Uniform(-85, 85);
    in.bx[i] = in.ax[i] + rng.Uniform(-0.01, 0.01);
    in.by[i] = in.ay[i] + rng.Uniform(-0.01, 0.01);
    in.h1[i] = rng.Next();
    in.h2[i] = rng.Next();
  }
  return in;
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Times `op` `reps` times, returns the best wall time.
template <typename Op>
double Best(int reps, Op op) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    op();
    double secs = watch.ElapsedSeconds();
    if (r == 0 || secs < best) best = secs;
  }
  return best;
}

void EmitKernelRow(const char* kernel, const char* backend, size_t records,
                   double seconds, double scalar_seconds, bool identical) {
  double speedup = seconds > 0 ? scalar_seconds / seconds : 0;
  std::cout << "{\"kernel\":\"" << kernel << "\""
            << ",\"backend\":\"" << backend << "\""
            << ",\"records\":" << records << ",\"seconds\":" << seconds
            << ",\"records_per_sec\":"
            << (seconds > 0 ? static_cast<double>(records) / seconds : 0)
            << ",\"speedup_vs_scalar\":" << speedup
            << ",\"output_identical\":" << (identical ? "true" : "false")
            << "," << bench::HostJson() << "}" << std::endl;
  if (!identical) {
    std::cerr << "MISMATCH: kernel " << kernel << " backend " << backend
              << " diverged from scalar\n";
    std::exit(1);
  }
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Checksum(const std::vector<EventRecord>& records) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const EventRecord& r : records) {
    hash = Fnv1a(hash, &r.id, sizeof(r.id));
    hash = Fnv1a(hash, &r.x, sizeof(r.x));
    hash = Fnv1a(hash, &r.y, sizeof(r.y));
    hash = Fnv1a(hash, &r.time, sizeof(r.time));
    hash = Fnv1a(hash, r.attr.data(), r.attr.size());
  }
  return hash;
}

std::vector<EventRecord> MakeEvents(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<EventRecord> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EventRecord r;
    r.id = static_cast<int64_t>(i);
    r.x = rng.Uniform(0, 100);
    r.y = rng.Uniform(0, 100);
    r.time = rng.UniformInt(0, 100000);
    r.attr = std::string(static_cast<size_t>(rng.UniformInt(4, 24)), 'x');
    events.push_back(std::move(r));
  }
  return events;
}

int Run(int argc, char** argv) {
  size_t records = 1000000;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--records=", 0) == 0) {
      records = std::stoul(flag.substr(10));
    } else if (flag.rfind("--reps=", 0) == 0) {
      reps = std::atoi(flag.substr(7).c_str());
    } else {
      std::cerr << "usage: bench_simd [--records=N] [--reps=R]\n";
      return 2;
    }
  }

  BackendRegistry& registry = BackendRegistry::Instance();
  const KernelBackend* scalar = registry.Find("scalar");
  ST4ML_CHECK(scalar != nullptr);

  KernelInputs in = MakeInputs(records, /*seed=*/7);
  // ~half the staged boxes: the filter branch pattern matters for SIMD.
  BoxFilterQuery query{0, 0, 50, 100, 0, 100000};

  std::vector<uint8_t> ref_hits(records), hits(records);
  std::vector<uint64_t> ref_hash(records), hash(records);
  std::vector<double> ref_hav(records), ref_euc(records), dist(records);
  double ref_mms[3], mms[3];

  double scalar_filter = 0, best_simd_filter_speedup = 0;
  struct KernelTimes {
    double filter = 0, hash = 0, haversine = 0, euclidean = 0, reduce = 0;
  } scalar_times;

  for (const KernelBackend* backend : registry.Available()) {
    bool is_scalar = backend == scalar;
    const char* name = backend->name();
    auto view = in.cols.View();

    double t = Best(reps, [&] {
      backend->FilterBoxes(query, view, (is_scalar ? ref_hits : hits).data());
    });
    bool ok = is_scalar ||
              std::memcmp(ref_hits.data(), hits.data(), records) == 0;
    if (is_scalar) {
      scalar_times.filter = scalar_filter = t;
    } else if (t > 0) {
      double speedup = scalar_filter / t;
      if (speedup > best_simd_filter_speedup) best_simd_filter_speedup = speedup;
    }
    EmitKernelRow("box_filter", name, records, t, scalar_times.filter, ok);

    t = Best(reps, [&] {
      backend->CombineHashes(in.h1.data(), in.h2.data(), records,
                             (is_scalar ? ref_hash : hash).data());
    });
    ok = is_scalar || ref_hash == hash;
    if (is_scalar) scalar_times.hash = t;
    EmitKernelRow("hash_combine", name, records, t, scalar_times.hash, ok);

    t = Best(reps, [&] {
      backend->HaversineMeters(in.ax.data(), in.ay.data(), in.bx.data(),
                               in.by.data(), records,
                               (is_scalar ? ref_hav : dist).data());
    });
    ok = is_scalar || SameBits(ref_hav.data(), dist.data(), records);
    if (is_scalar) scalar_times.haversine = t;
    EmitKernelRow("haversine", name, records, t, scalar_times.haversine, ok);

    t = Best(reps, [&] {
      backend->EuclideanDistance(in.ax.data(), in.ay.data(), in.bx.data(),
                                 in.by.data(), records,
                                 (is_scalar ? ref_euc : dist).data());
    });
    ok = is_scalar || SameBits(ref_euc.data(), dist.data(), records);
    if (is_scalar) scalar_times.euclidean = t;
    EmitKernelRow("euclidean", name, records, t, scalar_times.euclidean, ok);

    t = Best(reps, [&] {
      double* out = is_scalar ? ref_mms : mms;
      backend->MinMaxSum(in.ax.data(), records, &out[0], &out[1], &out[2]);
    });
    ok = is_scalar || SameBits(ref_mms, mms, 3);
    if (is_scalar) scalar_times.reduce = t;
    EmitKernelRow("min_max_sum", name, records, t, scalar_times.reduce, ok);
  }

  // End-to-end: a warm cached Selection (columnar fast path) per backend.
  // Cache is primed once per backend so the timed pass filters the cached
  // columns directly; checksums must agree across backends.
  size_t e2e_records = std::min<size_t>(records, 200000);
  std::string dir = (fs::temp_directory_path() /
                     ("st4ml_bench_simd_" + std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string meta = dir + "/index.meta";
  {
    auto ctx = ExecutionContext::Create();
    auto data = Dataset<EventRecord>::Parallelize(
        ctx, MakeEvents(e2e_records, 42), 16);
    TSTRPartitioner partitioner(3, 3);
    Status staged = BuildOnDiskIndex(data, &partitioner, dir, meta);
    if (!staged.ok()) {
      std::cerr << "bench_simd: " << staged.ToString() << "\n";
      return 1;
    }
  }
  STBox e2e_query(Mbr(0, 0, 100, 60), Duration(0, 100000));
  uint64_t reference_sum = 0;
  double scalar_warm = 0;
  for (const KernelBackend* backend : registry.Available()) {
    Status forced = registry.ForceBackend(backend->name());
    ST4ML_CHECK(forced.ok());
    auto ctx = ExecutionContext::Create();
    DatasetCache::Options cache_options;
    cache_options.budget_bytes = DatasetCache::kUnbounded;
    ctx->ConfigureCache(std::move(cache_options));

    Selector<EventRecord> prime(ctx, SelectQuery::FromBox(e2e_query));
    auto cold = prime.Select(dir, meta);
    if (!cold.ok()) {
      std::cerr << "bench_simd: " << cold.status().ToString() << "\n";
      return 1;
    }
    uint64_t sum = 0;
    double warm_seconds = Best(reps, [&] {
      Selector<EventRecord> warm(ctx, SelectQuery::FromBox(e2e_query));
      auto selected = warm.Select(dir, meta);
      ST4ML_CHECK(selected.ok());
      sum = Checksum(std::move(*selected).Collect());
    });
    bool is_scalar = backend == scalar;
    if (is_scalar) {
      reference_sum = sum;
      scalar_warm = warm_seconds;
    }
    double speedup = warm_seconds > 0 ? scalar_warm / warm_seconds : 0;
    bool identical = sum == reference_sum;
    std::cout << "{\"e2e\":\"warm_select\",\"backend\":\"" << backend->name()
              << "\",\"records\":" << e2e_records
              << ",\"seconds\":" << warm_seconds
              << ",\"speedup_vs_scalar\":" << speedup
              << ",\"output_identical\":" << (identical ? "true" : "false")
              << "," << bench::HostJson() << "}" << std::endl;
    if (!identical) {
      std::cerr << "MISMATCH: warm select under backend " << backend->name()
                << " changed the selected output\n";
      return 1;
    }
  }
  ST4ML_CHECK(registry.ForceBackend("").ok());
  fs::remove_all(dir);

  // Acceptance gate: on a machine with any SIMD backend, the best one must
  // beat scalar >= 2x on the box filter at 1M records. Smaller --records
  // runs (e.g. the CI correctness smoke on shared hardware) skip the perf
  // gate but keep every bit-identity check above.
  bool has_simd = registry.Available().size() > 1;
  bool gated = has_simd && records >= 1000000;
  std::cout << "{\"gate\":\"box_filter_speedup\",\"records\":" << records
            << ",\"best_simd_speedup\":" << best_simd_filter_speedup
            << ",\"required\":2.0,\"simd_available\":"
            << (has_simd ? "true" : "false")
            << ",\"enforced\":" << (gated ? "true" : "false") << ",\"pass\":"
            << (!gated || best_simd_filter_speedup >= 2.0 ? "true" : "false")
            << "," << bench::HostJson() << "}" << std::endl;
  if (gated && best_simd_filter_speedup < 2.0) {
    std::cerr << "GATE FAILED: best SIMD box filter speedup "
              << best_simd_filter_speedup << " < 2.0\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }

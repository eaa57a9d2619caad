// Scale-out microbenchmark for the executor backends (DESIGN.md §14): the
// same 1M-record ReduceByKey shuffle (~200k distinct keys) runs under the
// local thread-pool executor and the multiprocess executor at 1, 2 and 4
// forked workers. Every configuration's collected output is FNV-checksummed
// against the local run — any divergence exits non-zero, so a published
// BENCH file always reflects byte-identical cross-backend results. Emits
// one JSON object per line (bench/run_bench.sh writes BENCH_scaleout.json)
// with per-executor throughput, speedup vs mp:1, and the mp fleet counters
// (workers spawned, bytes over the shuffle sockets).
//
// The acceptance gate — mp:4 >= 1.6x mp:1 — is enforced only at full scale
// on a machine with >= 4 hardware threads: on fewer cores the forked
// workers time-slice one another and the gate would measure the scheduler,
// not the executor (same idiom as bench_simd's records>=1M gate).
//
// Usage: bench_scaleout [--records=N] [--parts=N] [--reps=R]
// Record count scales with ST4ML_SCALE (default 1.0).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "st4ml.h"

namespace st4ml {
namespace {

using KV = std::pair<int64_t, int64_t>;

std::vector<KV> MakePairs(size_t records, uint64_t seed) {
  Rng rng(seed);
  std::vector<KV> pairs;
  pairs.reserve(records);
  // ~5 values per key: the map-side combine shrinks the shuffle without
  // collapsing it, so real record volume crosses the worker sockets.
  int64_t key_space = static_cast<int64_t>(records / 5) + 1;
  for (size_t i = 0; i < records; ++i) {
    pairs.emplace_back(rng.UniformInt(0, key_space), rng.UniformInt(-5, 5));
  }
  return pairs;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Checksum(const std::vector<KV>& pairs) {
  uint64_t hash = 14695981039346656037ull;
  for (const auto& [k, v] : pairs) {
    hash = Fnv1a(hash, &k, sizeof(k));
    hash = Fnv1a(hash, &v, sizeof(v));
  }
  return hash;
}

struct Run {
  std::string executor;
  double seconds = 0;
  uint64_t checksum = 0;
  uint64_t workers_spawned = 0;
  uint64_t workers_lost = 0;
  uint64_t shuffle_net_bytes = 0;
};

/// Times the ReduceByKey `reps` times under `spec` (best run wins), then
/// collects and checksums the final output outside the timed region.
Run MeasureExecutor(const std::string& executor, const std::vector<KV>& pairs,
                    size_t parts, int reps) {
  auto spec = ExecutorSpec::Parse(executor);
  ST4ML_CHECK(spec.ok()) << spec.status().ToString();
  auto ctx = ExecutionContext::Create(*spec);
  auto data = Dataset<KV>::Parallelize(ctx, pairs, parts);

  Run run;
  run.executor = executor;
  Dataset<KV> reduced_out;
  for (int r = 0; r < reps; ++r) {
    ctx->ResetMetrics();
    Stopwatch watch;
    auto reduced = TryReduceByKey<int64_t, int64_t>(data, std::plus<int64_t>());
    double secs = watch.ElapsedSeconds();
    ST4ML_CHECK(reduced.ok()) << executor << ": "
                              << reduced.status().ToString();
    if (r == 0 || secs < run.seconds) run.seconds = secs;
    MetricsSnapshot metrics = ctx->MetricsSnapshot();
    run.workers_spawned = metrics[Counter::kWorkersSpawned];
    run.workers_lost = metrics[Counter::kWorkersLost];
    run.shuffle_net_bytes = metrics[Counter::kShuffleNetBytes];
    reduced_out = std::move(*reduced);
  }
  run.checksum = Checksum(std::move(reduced_out).Collect());
  return run;
}

void EmitRow(const Run& run, size_t records, size_t parts, double mp1_seconds,
             uint64_t reference_checksum) {
  bool identical = run.checksum == reference_checksum;
  double speedup = run.seconds > 0 ? mp1_seconds / run.seconds : 0;
  std::cout << "{\"executor\":\"" << run.executor << "\""
            << ",\"records\":" << records << ",\"partitions\":" << parts
            << ",\"seconds\":" << run.seconds << ",\"records_per_sec\":"
            << (run.seconds > 0 ? records / run.seconds : 0)
            << ",\"speedup_vs_mp1\":" << speedup
            << ",\"workers_spawned\":" << run.workers_spawned
            << ",\"workers_lost\":" << run.workers_lost
            << ",\"shuffle_net_bytes\":" << run.shuffle_net_bytes
            << ",\"checksum\":\"" << std::hex << run.checksum << std::dec
            << "\",\"checksum_identical\":" << (identical ? "true" : "false")
            << "," << bench::HostJson() << "}" << std::endl;
  if (!identical) {
    std::cerr << "MISMATCH: " << run.executor
              << " output diverged from the local executor\n";
    std::exit(1);
  }
}

}  // namespace

int Run(int argc, char** argv) {
  size_t records = static_cast<size_t>(1000000 * BenchScale());
  size_t parts = 64;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--records=", 0) == 0) {
      records = std::stoul(flag.substr(10));
    } else if (flag.rfind("--parts=", 0) == 0) {
      parts = std::stoul(flag.substr(8));
    } else if (flag.rfind("--reps=", 0) == 0) {
      reps = std::atoi(flag.substr(7).c_str());
    } else {
      std::cerr << "usage: bench_scaleout [--records=N] [--parts=N] "
                   "[--reps=R]\n";
      return 2;
    }
  }

  auto pairs = MakePairs(records, /*seed=*/records);
  std::vector<struct Run> runs;
  for (const char* executor : {"local", "mp:1", "mp:2", "mp:4"}) {
    runs.push_back(MeasureExecutor(executor, pairs, parts, reps));
  }
  uint64_t reference_checksum = runs[0].checksum;  // the local run
  double mp1_seconds = runs[1].seconds;
  for (const auto& run : runs) {
    EmitRow(run, records, parts, mp1_seconds, reference_checksum);
  }

  // Acceptance gate: with real cores behind the forked workers and a
  // full-scale shuffle, mp:4 must beat mp:1 by >= 1.6x. Below either
  // threshold the rows above still publish (and still checksum-gate) but
  // the speedup is advisory.
  double mp4_speedup =
      runs[3].seconds > 0 ? mp1_seconds / runs[3].seconds : 0;
  unsigned cores = std::thread::hardware_concurrency();
  bool gated = cores >= 4 && records >= 1000000;
  bool pass = !gated || mp4_speedup >= 1.6;
  std::cout << "{\"gate\":\"mp4_speedup_vs_mp1\",\"records\":" << records
            << ",\"hardware_threads\":" << cores
            << ",\"mp4_speedup\":" << mp4_speedup << ",\"threshold\":1.6"
            << ",\"enforced\":" << (gated ? "true" : "false")
            << ",\"pass\":" << (pass ? "true" : "false")
            << "," << bench::HostJson() << "}" << std::endl;
  if (!pass) {
    std::cerr << "GATE FAILED: mp:4 speedup " << mp4_speedup
              << " < 1.6 over mp:1\n";
    return 1;
  }
  return 0;
}

}  // namespace st4ml

int main(int argc, char** argv) { return st4ml::Run(argc, argv); }

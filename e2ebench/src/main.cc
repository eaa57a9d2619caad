// st4ml_e2ebench: the repo's end-to-end benchmark. Three workloads drive
// the library's public API and the in-process st4mld server:
//
//   apps          closed loop, one calling thread: the eight Table 7 apps
//                 (Selection -> Conversion -> Extraction) back to back at
//                 the 100% data scale, dataset cache off
//   serve         open loop at a fixed offered rate against the in-process
//                 Server with st4mld's defaults (unbounded, warmed cache)
//   ingest_mixed  open loop: a fixed-rate append stream into a fresh ingest
//                 directory beside a fixed-rate select stream over it
//
//   st4ml_e2ebench --workload W --seed N --seconds S --trace 0|1
//                  [--size full|tiny] [--calibrate] --data-root DIR
//
// --trace 0 measures and prints the end-to-end metrics; --trace 1 runs the
// same workload with the benchmark's own span log on (alternating traced
// and untraced rounds or windows) and prints the per-layer metrics. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it stamps the host. Any correctness mismatch
// exits 1.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "st4ml_e2ebench: %s\nusage: st4ml_e2ebench --workload "
               "apps|serve|ingest_mixed --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--calibrate] --data-root DIR\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--calibrate") {
      args.calibrate = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") Usage("bad --size " + value);
      args.tiny = value == "tiny";
    } else if (flag == "--data-root") {
      args.data_root = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.data_root.empty()) Usage("--data-root is required");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

/// A finite JSON number with all its digits; a failed percentile (inf)
/// prints as a huge value rather than invalid JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  int (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "apps") run = RunApps;
  if (args.workload == "serve") run = RunServe;
  if (args.workload == "ingest_mixed") run = RunIngestMixed;
  if (run == nullptr) Usage("unknown workload " + args.workload);
  if (args.calibrate && args.workload != "serve") {
    Usage("--calibrate applies to the serve workload");
  }

  // Every run writes under its own directory and removes it afterwards.
  args.data_root += "/" + args.workload + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(args.data_root);
  std::filesystem::create_directories(args.data_root);

  Report report;
  int rc = run(args, &report);
  std::filesystem::remove_all(args.data_root);
  if (rc != 0 || args.calibrate) return rc;

  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"size\":\"%s\",\"hardware_threads\":%u,\"cpu\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\",\"src_digest\":\"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      args.tiny ? "tiny" : "full", std::thread::hardware_concurrency(),
      JsonEscape(CpuModel()).c_str(), E2EBENCH_BUILD_TYPE,
      JsonEscape(EnvOr("ST4ML_BENCH_GIT_SHA", "unknown")).c_str(),
      JsonEscape(EnvOr("ST4ML_BENCH_SRC_DIGEST", "unknown")).c_str());

  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = report.values.find(spec.name);
    if (it == report.values.end() && !args.trace) {
      std::fprintf(stderr, "st4ml_e2ebench: workload did not report %s\n",
                   spec.name.c_str());
      return 3;
    }
    double value = it == report.values.end() ? 0 : it->second;
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + spec.name + "\":{\"value\":" + Num(value) +
               ",\"unit\":\"" + spec.unit + "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }

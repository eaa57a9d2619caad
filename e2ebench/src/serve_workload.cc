// The `serve` workload: an open loop at one fixed offered rate against the
// in-process st4mld Server with the daemon's defaults (unbounded dataset
// cache, warmed during setup). The mix is mostly `select` over small
// city-block x hours boxes returning up to 100 rows, plus wide count-only
// selects, `lookup_id` and `extract`; query centres are Zipf-skewed over
// hot spots. A seeded sample of responses is re-answered in process by a
// cold Selector (and the extract pipeline) after the timed phase.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "conversion/parse.h"
#include "conversion/singular_to_collective.h"
#include "datagen/generators.h"
#include "engine/execution_context.h"
#include "extraction/collective_extractors.h"
#include "open_loop.h"
#include "partition/str_partitioner.h"
#include "selection/on_disk_index.h"
#include "selection/selector.h"
#include "server/client.h"

namespace e2ebench {
namespace {

using namespace st4ml;
namespace fs = std::filesystem;

/// Offered request rate (requests/s): two thirds of the 46 requests/s
/// closed-loop capacity `--calibrate` measured with 4 connections on a
/// 4-thread host. Capacity is bound by the wire, not the server's work:
/// each round trip waits on Nagle + delayed ACK because a frame's 4-byte
/// length prefix and its payload go out in two send(2) calls.
constexpr double kOfferedRate = 30;
constexpr int kConnections = 4;

enum Verb { kSelect = 0, kWideSelect, kLookupId, kExtract, kNumVerbs };
const char* const kVerbNames[kNumVerbs] = {"select", "select", "lookup_id",
                                           "extract"};

struct Request {
  Verb verb;
  std::string json;
  STBox box;
  std::vector<int64_t> ids;
  int64_t limit = 100;
};

/// Writes the indexed layout of `events` into `dir`, starts the daemon and
/// warms its cache with one everything-select.
Daemon Setup(const std::string& dir, const std::vector<EventRecord>& events,
             const STBox& everything) {
  fs::create_directories(dir);
  auto data = Dataset<EventRecord>::Parallelize(ExecutionContext::Create(),
                                                events, 16);
  TSTRPartitioner partitioner(6, 8);
  Status staged =
      BuildOnDiskIndex(data, &partitioner, dir, dir + "/index.meta");
  if (!staged.ok()) {
    std::fprintf(stderr, "serve: staging failed: %s\n",
                 staged.ToString().c_str());
    std::exit(1);
  }
  Daemon d = StartDaemon();
  CallOrDie(d.server->port(), "{\"verb\":\"select\",\"dir\":\"" + dir + "\"," +
                                  BoxJson(everything) + ",\"limit\":0}");
  return d;
}

/// The seeded request stream.
std::vector<Request> MakeRequests(const std::vector<EventRecord>& events,
                                  const std::string& dir, const Mbr& extent,
                                  const Duration& range, size_t count,
                                  uint64_t seed) {
  Rng rng(seed);
  HotSpots hot(events, rng);
  auto box_at = [&](Point c, double half_w, double half_h, int64_t seconds) {
    int64_t t = range.start() + rng.UniformInt(0, range.Seconds() - seconds);
    return STBox(Mbr(c.x - half_w, c.y - half_h, c.x + half_w, c.y + half_h),
                 Duration(t, t + seconds));
  };
  const std::string head = "{\"dir\":\"" + dir + "\",";
  std::vector<Request> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Request req;
    double pick = rng.Uniform(0, 1);
    if (pick < 0.80) {
      req.verb = kSelect;
      req.box = box_at(hot.Pick(rng, 0.004), 0.003, 0.003,
                       3600 * rng.UniformInt(1, 6));
      req.json = head + "\"verb\":\"select\"," + BoxJson(req.box) +
                 ",\"limit\":100}";
    } else if (pick < 0.88) {
      req.verb = kWideSelect;
      req.limit = 0;
      req.box = box_at(hot.Pick(rng, 0.01), extent.Width() * 0.15,
                       extent.Height() * 0.15, 7 * 86400);
      req.json = head + "\"verb\":\"select\"," + BoxJson(req.box) +
                 ",\"limit\":0}";
    } else if (pick < 0.95) {
      req.verb = kLookupId;
      std::string ids;
      for (int64_t k = rng.UniformInt(1, 8); k > 0; --k) {
        int64_t id = events[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(events.size()) - 1))]
                         .id;
        req.ids.push_back(id);
        ids += (ids.empty() ? "" : ",") + std::to_string(id);
      }
      req.json = head + "\"verb\":\"lookup_id\",\"ids\":[" + ids +
                 "],\"limit\":100}";
    } else {
      req.verb = kExtract;
      req.box = box_at(hot.Pick(rng, 0.004), 0.01, 0.01, 86400);
      req.json = head + "\"verb\":\"extract\"," + BoxJson(req.box) +
                 ",\"interval\":3600}";
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Re-answers one sampled request in process, through a cold Selector on
/// its own context, and compares it with the server's answer.
bool CheckResponse(const std::shared_ptr<ExecutionContext>& ctx,
                   const std::string& dir, const Request& req,
                   const std::string& raw, std::string* why) {
  auto parsed = server::ParseJson(raw);
  if (!parsed.ok()) {
    *why = "unparseable response";
    return false;
  }
  SelectQuery query = req.ids.empty() ? SelectQuery::FromBox(req.box)
                                      : SelectQuery::FromIds(req.ids);
  Selector<EventRecord> selector(ctx, query);
  auto selected = selector.Select(dir, dir + "/index.meta");
  if (!selected.ok()) {
    *why = "reference select failed: " + selected.status().ToString();
    return false;
  }
  if (req.verb == kExtract) {
    TimeSeriesConverter<STEvent> converter(std::make_shared<TemporalStructure>(
        TemporalStructure::RegularByInterval(req.box.time, 3600)));
    TimeSeries<int64_t> flow =
        ExtractTsFlow(converter.Convert(ParseEvents(*selected)));
    int64_t total = 0;
    for (size_t i = 0; i < flow.size(); ++i) total += flow.value(i);
    if (parsed->GetInt("count", -1) != total ||
        parsed->GetInt("num_bins", -1) != static_cast<int64_t>(flow.size())) {
      *why = "extract total/bins differ from the in-process pipeline";
      return false;
    }
    return true;
  }
  std::vector<EventRecord> records = selected->Collect();
  std::sort(records.begin(), records.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.id < b.id;
            });
  if (parsed->GetInt("count", -1) != static_cast<int64_t>(records.size())) {
    *why = "count " + std::to_string(parsed->GetInt("count", -1)) +
           " != in-process " + std::to_string(records.size());
    return false;
  }
  const server::JsonValue* rows = parsed->Find("rows");
  size_t shown = std::min(records.size(), static_cast<size_t>(req.limit));
  if (rows == nullptr || !rows->IsArray() || rows->array.size() != shown) {
    *why = "row count differs";
    return false;
  }
  for (size_t i = 0; i < shown; ++i) {
    if (rows->array[i].GetInt("id", -1) != records[i].id) {
      *why = "row ids differ";
      return false;
    }
  }
  return true;
}

/// Closed loop with every connection busy: the capacity the offered rate
/// is derived from.
void Calibrate(int port, const std::vector<Request>& requests,
               double seconds) {
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  double t0 = Now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      auto client = server::Client::Connect(port);
      if (!client.ok()) return;
      while (!stop.load()) {
        size_t i = next.fetch_add(1);
        if (!client->Call(requests[i % requests.size()].json).ok()) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) t.join();
  std::printf("# serve capacity: %.1f requests/s closed loop, %d connections\n",
              static_cast<double>(next.load()) / (Now() - t0), kConnections);
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  const double rate = args.tiny ? 20 : kOfferedRate;
  NycEventOptions gen;
  gen.count = args.tiny ? 12000 : 240000;
  gen.seed = MixSeed(args.seed, 1);

  // ---- Setup, timed and repeated: generate, stage, start, warm.
  const int setups = args.tiny ? 1 : 5;
  std::vector<double> setup_times;
  Daemon daemon;
  std::string dir;
  std::vector<EventRecord> events;
  for (int s = 0; s < setups; ++s) {
    daemon.Stop();
    dir = args.data_root + "/serve" + std::to_string(s);
    double t0 = Now();
    events = GenerateNycEvents(gen);
    daemon = Setup(dir, events, STBox(gen.extent, gen.range));
    setup_times.push_back(Now() - t0);
  }
  const int port = daemon.server->port();
  const size_t count = static_cast<size_t>(std::ceil(rate * args.seconds));
  std::vector<Request> requests = MakeRequests(
      events, dir, gen.extent, gen.range, count, MixSeed(args.seed, 200));
  if (args.calibrate) {
    Calibrate(port, requests, args.seconds);
    return 0;
  }

  // ---- Timed phase.
  std::vector<Outcome> outcomes(count);
  std::vector<std::string> sampled(count);
  Rng sample_rng(MixSeed(args.seed, 300));
  std::vector<bool> keep(count);
  for (size_t i = 0; i < count; ++i) keep[i] = sample_rng.Uniform(0, 1) < 0.02;

  auto ctx = daemon.session->context();
  ResetPeakRss();
  const MetricsSnapshot before = ctx->MetricsSnapshot();
  const double cpu_before = CpuSeconds();
  OpenLoop loop(port, kConnections, rate, args.trace);
  double wall = loop.Run(
      count, [&](size_t i) -> const std::string& { return requests[i].json; },
      [&](size_t i, const std::string& raw, Outcome* out) {
        ParseOutcome(raw, out);
        if (keep[i]) sampled[i] = raw;
      },
      &outcomes);
  const double cpu = CpuSeconds() - cpu_before;
  const MetricsSnapshot after = ctx->MetricsSnapshot();
  const double peak_rss = PeakRssMb();

  // ---- Correctness: every response ok, sampled ones re-answered.
  auto check_ctx = UncachedContext();
  size_t checked = 0;
  for (size_t i = 0; i < count; ++i) {
    ++report->attempted;
    std::string why = outcomes[i].error;
    if (outcomes[i].ok && keep[i]) {
      ++checked;
      CheckResponse(check_ctx, dir, requests[i], sampled[i], &why);
    }
    if (!why.empty()) {
      ++report->failed;
      report->Fail("request " + std::to_string(i) + " (" +
                   kVerbNames[requests[i].verb] + "): " + why);
    }
  }
  report->Note("# serve: " + std::to_string(count) + " requests at " +
               std::to_string(static_cast<int>(rate)) + "/s offered, " +
               std::to_string(checked) + " re-answered in process");
  daemon.Stop();

  const double ops = static_cast<double>(count);
  report->Set("setup_s", Median(setup_times));
  report->Set("peak_rss_mb", peak_rss);
  SetLatencyMetrics(outcomes, report);
  SetServerMetrics(outcomes, report);
  SetCounterMetrics(before, after, ops, cpu, wall, report);
  std::vector<double> by_verb[kNumVerbs];
  for (size_t i = 0; i < count; ++i) {
    by_verb[requests[i].verb == kWideSelect ? kSelect : requests[i].verb]
        .push_back(outcomes[i].LatencyMs());
  }
  report->Set("select.p99_ms", Quantile(by_verb[kSelect], 0.99));
  report->Set("lookup_id.p99_ms", Quantile(by_verb[kLookupId], 0.99));
  report->Set("extract.p99_ms", Quantile(by_verb[kExtract], 0.99));
  report->Set("failed_frac", static_cast<double>(report->failed) / ops);
  return 0;
}

}  // namespace e2ebench

// The `ingest_mixed` workload: writes beside reads on one in-process
// st4mld Server. One open-loop stream sends `append` batches at a fixed
// record rate into a fresh ingest directory while a second open-loop
// stream sends `select`s over the same directory at a fixed rate; the
// compactor runs on its default cadence throughout. The run ends with a
// `flush` and checks that every acked record appears exactly once, and
// that each sampled mid-stream select counted between the records acked
// before it was sent and the records sent before it returned.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/generators.h"
#include "engine/execution_context.h"
#include "open_loop.h"
#include "selection/selector.h"

namespace e2ebench {
namespace {

using namespace st4ml;

/// Fixed offered load: 4 append batches/s of 2000 records on one
/// connection, and 20 selects/s on three more — about two thirds of what
/// the connections sustain given the ~85 ms each round trip waits on the
/// wire (see serve_workload.cc).
constexpr double kAppendBatchRate = 4;
constexpr int kAppendBatch = 2000;
constexpr double kSelectRate = 30;
constexpr int kSelectConnections = 3;
/// The stream's data clock: each record is 0.25 s of event time after the
/// previous one (with jitter), so a run spans many one-hour WAL buckets.
constexpr double kEventSecondsPerRecord = 0.25;
constexpr int64_t kStreamStart = 1577836800;

struct Stream {
  std::string dir;
  std::vector<EventRecord> records;   // id == index
  std::vector<std::string> appends;   // one request per batch
  Daemon daemon;
};

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Generates the seeded stream, renders its append requests, starts the
/// daemon and opens the (fresh) ingest directory.
void Setup(const std::string& dir, size_t count, uint64_t seed, Stream* s) {
  s->dir = dir;
  NycEventOptions gen;
  gen.count = static_cast<int64_t>(count);
  gen.seed = MixSeed(seed, 1);
  s->records = GenerateNycEvents(gen);
  Rng jitter(MixSeed(seed, 2));
  for (size_t i = 0; i < s->records.size(); ++i) {
    EventRecord& r = s->records[i];
    r.id = static_cast<int64_t>(i);
    r.time = kStreamStart +
             static_cast<int64_t>(static_cast<double>(i) *
                                  kEventSecondsPerRecord) +
             jitter.UniformInt(-30, 30);
  }
  s->appends.clear();
  for (size_t b = 0; b * kAppendBatch < s->records.size(); ++b) {
    std::string json =
        "{\"verb\":\"append\",\"dir\":\"" + dir + "\",\"records\":[";
    size_t end = std::min(s->records.size(), (b + 1) * kAppendBatch);
    for (size_t i = b * kAppendBatch; i < end; ++i) {
      const EventRecord& r = s->records[i];
      if (i > b * kAppendBatch) json += ",";
      json += "{\"id\":" + std::to_string(r.id) + ",\"x\":" + Fmt(r.x) +
              ",\"y\":" + Fmt(r.y) + ",\"time\":" + std::to_string(r.time) +
              ",\"attr\":\"" + r.attr + "\"}";
    }
    s->appends.push_back(json + "]}");
  }
  s->daemon = StartDaemon();
  CallOrDie(s->daemon.server->port(),
            "{\"verb\":\"ingest_status\",\"dir\":\"" + dir + "\"}");
}

struct SelectReq {
  STBox box;
  std::string json;
};

/// City-block boxes around Zipf-ranked hot spots over the last two hours
/// of event time the append schedule has reached by the select's due time.
std::vector<SelectReq> MakeSelects(const Stream& s, size_t count,
                                   double select_rate, double record_rate,
                                   uint64_t seed) {
  Rng rng(seed);
  HotSpots hot(s.records, rng);
  std::vector<SelectReq> selects;
  for (size_t j = 0; j < count; ++j) {
    Point c = hot.Pick(rng, 0.004);
    double due = static_cast<double>(j) / select_rate;
    double event_seconds = due * record_rate * kEventSecondsPerRecord;
    int64_t head = kStreamStart + static_cast<int64_t>(event_seconds);
    SelectReq req;
    req.box = STBox(Mbr(c.x - 0.005, c.y - 0.005, c.x + 0.005, c.y + 0.005),
                    Duration(head - 7200, head));
    req.json = "{\"verb\":\"select\",\"dir\":\"" + s.dir + "\"," +
               BoxJson(req.box) + ",\"limit\":100}";
    selects.push_back(std::move(req));
  }
  return selects;
}

size_t CountInBox(const std::vector<EventRecord>& records, size_t prefix,
                  const STBox& box) {
  size_t n = 0;
  for (size_t i = 0; i < std::min(prefix, records.size()); ++i) {
    if (records[i].ComputeSTBox().Intersects(box)) ++n;
  }
  return n;
}


}  // namespace

int RunIngestMixed(const Args& args, Report* report) {
  const double batch_rate = args.tiny ? 2 : kAppendBatchRate;
  const double select_rate = args.tiny ? 10 : kSelectRate;
  const size_t batches =
      static_cast<size_t>(std::ceil(batch_rate * args.seconds));
  const size_t num_selects =
      static_cast<size_t>(std::ceil(select_rate * args.seconds));

  // ---- Setup, timed and repeated: generate, render, start, open.
  const int setups = args.tiny ? 1 : 5;
  std::vector<double> setup_times;
  Stream stream;
  for (int s = 0; s < setups; ++s) {
    stream.daemon.Stop();
    double t0 = Now();
    Setup(args.data_root + "/ingest" + std::to_string(s),
          batches * kAppendBatch, args.seed, &stream);
    setup_times.push_back(Now() - t0);
  }
  std::vector<SelectReq> selects =
      MakeSelects(stream, num_selects, select_rate, batch_rate * kAppendBatch,
                  MixSeed(args.seed, 3));
  const int port = stream.daemon.server->port();

  // ---- Timed phase: both streams share one start time.
  std::vector<Outcome> append_out(batches), select_out(num_selects);
  std::atomic<size_t> appends_sent{0}, appends_acked{0};
  std::vector<size_t> acked_at_send(num_selects), sent_at_recv(num_selects);
  auto ctx = stream.daemon.session->context();
  ResetPeakRss();
  const MetricsSnapshot before = ctx->MetricsSnapshot();
  const uint64_t written_before = BytesWritten();
  const double cpu_before = CpuSeconds();
  const double start = Now() + 0.05;
  OpenLoop append_loop(port, 1, batch_rate, args.trace);
  OpenLoop select_loop(port, kSelectConnections, select_rate, args.trace);
  std::thread appender([&] {
    append_loop.Run(
        batches,
        [&](size_t i) -> const std::string& {
          appends_sent.store(i + 1);
          return stream.appends[i];
        },
        [&](size_t, const std::string& raw, Outcome* out) {
          if (!raw.empty()) ParseOutcome(raw, out);
          if (out->ok) appends_acked.fetch_add(1);
        },
        &append_out, start);
  });
  const double wall = select_loop.Run(
      num_selects,
      [&](size_t j) -> const std::string& {
        acked_at_send[j] = appends_acked.load();
        return selects[j].json;
      },
      [&](size_t j, const std::string& raw, Outcome* out) {
        sent_at_recv[j] = appends_sent.load();
        if (!raw.empty()) ParseOutcome(raw, out);
      },
      &select_out, start);
  appender.join();
  const double cpu = CpuSeconds() - cpu_before;
  const double peak_rss = PeakRssMb();

  server::JsonValue status = CallOrDie(
      port, "{\"verb\":\"ingest_status\",\"dir\":\"" + stream.dir + "\"}");
  double t_flush = Now();
  CallOrDie(port, "{\"verb\":\"flush\",\"dir\":\"" + stream.dir + "\"}");
  const double flush_s = Now() - t_flush;
  const uint64_t written = BytesWritten() - written_before;
  const MetricsSnapshot after = ctx->MetricsSnapshot();

  // ---- Correctness.
  size_t acked_batches = 0;
  bool prefix = true;  // acked batches are exactly batches 0..k-1
  for (size_t b = 0; b < batches; ++b) {
    ++report->attempted;
    if (append_out[b].ok) {
      prefix = prefix && acked_batches == b;
      ++acked_batches;
    } else {
      ++report->failed;
      report->Fail("append " + std::to_string(b) + ": " + append_out[b].error);
    }
  }
  const size_t acked = acked_batches * kAppendBatch;
  for (size_t j = 0; j < num_selects; ++j) {
    ++report->attempted;
    if (!select_out[j].ok) {
      ++report->failed;
      report->Fail("select " + std::to_string(j) + ": " + select_out[j].error);
    }
  }
  // Mid-stream bounds on a seeded sample of selects.
  Rng sample(MixSeed(args.seed, 4));
  size_t bound_checks = 0;
  for (size_t j = 0; j < num_selects && prefix; ++j) {
    if (!select_out[j].ok || sample.Uniform(0, 1) >= 0.05) continue;
    ++bound_checks;
    size_t lo = CountInBox(stream.records, acked_at_send[j] * kAppendBatch,
                           selects[j].box);
    size_t hi = CountInBox(stream.records, sent_at_recv[j] * kAppendBatch,
                           selects[j].box);
    int64_t got = select_out[j].count;
    if (got < static_cast<int64_t>(lo) || got > static_cast<int64_t>(hi)) {
      ++report->failed;
      report->Fail("select " + std::to_string(j) + " counted " +
                   std::to_string(got) + ", outside [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
    }
  }
  // Every acked record exactly once: the server's count, then the ids
  // through an in-process merged Select.
  server::JsonValue total = CallOrDie(
      port, "{\"verb\":\"select\",\"dir\":\"" + stream.dir +
                "\",\"mbr\":[-180,-90,180,90],\"time\":[0,4102444800],"
                "\"limit\":0}");
  if (total.GetInt("count", -1) != static_cast<int64_t>(acked)) {
    report->Fail("final count " + std::to_string(total.GetInt("count", -1)) +
                 " != acked " + std::to_string(acked));
  }
  {
    Selector<EventRecord> selector(
        UncachedContext(), SelectQuery::FromBox(SelectQuery::EverythingBox()));
    auto all = selector.SelectIngest(stream.dir);
    if (!all.ok()) {
      report->Fail("merged select failed: " + all.status().ToString());
    } else {
      std::vector<int64_t> ids;
      for (const EventRecord& r : all->Collect()) ids.push_back(r.id);
      std::sort(ids.begin(), ids.end());
      bool unique = std::adjacent_find(ids.begin(), ids.end()) == ids.end();
      if (!unique) report->Fail("a record id appears more than once");
      bool ids_match = ids.size() == acked &&
                       (!prefix || ids.empty() ||
                        ids.back() == static_cast<int64_t>(acked) - 1);
      if (!ids_match) {
        report->Fail("merged select holds " + std::to_string(ids.size()) +
                     " records, acked " + std::to_string(acked));
      }
    }
  }
  report->Note("# ingest_mixed: " + std::to_string(acked) +
               " records acked in " +
               std::to_string(acked_batches) + " batches, " +
               std::to_string(num_selects) + " selects, " +
               std::to_string(bound_checks) + " mid-stream bound checks");
  stream.daemon.Stop();

  // ---- Metrics.
  double payload = 0;
  for (size_t i = 0; i < acked && i < stream.records.size(); ++i) {
    payload += 36.0 + static_cast<double>(stream.records[i].attr.size());
  }
  report->Set("setup_s", Median(setup_times));
  SetLatencyMetrics(select_out, report);
  report->Set("peak_rss_mb", peak_rss);
  std::vector<double> append_latency, append_elapsed;
  for (const Outcome& o : append_out) {
    append_latency.push_back(o.LatencyMs());
    if (o.ok) append_elapsed.push_back(o.elapsed_ms);
  }
  report->Set("append_p99_ms", Quantile(append_latency, 0.99));
  report->Set("ingest.append_elapsed_p99_ms", Quantile(append_elapsed, 0.99));
  report->Set("select.p99_ms", Quantile([&] {
                std::vector<double> v;
                for (const Outcome& o : select_out) v.push_back(o.LatencyMs());
                return v;
              }(), 0.99));
  SetServerMetrics(select_out, report);
  report->Set("failed_frac", static_cast<double>(report->failed) /
                                 static_cast<double>(report->attempted));
  SetCounterMetrics(before, after, static_cast<double>(num_selects), cpu, wall,
                    report);
  report->Set("ingest.compactions",
              static_cast<double>(status.GetInt("compactions", 0)));
  report->Set("ingest.staged_end",
              static_cast<double>(status.GetInt("staged", 0)));
  report->Set("ingest.write_amp",
              payload > 0 ? static_cast<double>(written) / payload : 0);
  report->Set("ingest.flush_s", flush_s);
  return 0;
}

}  // namespace e2ebench
